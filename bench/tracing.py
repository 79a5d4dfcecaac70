"""Per-layer spans for the traced run, recorded from outside the program.

install() wraps each layer's public functions listed in LAYERS.  A wrapper
replaces the function in every pglspectra module namespace that binds it
(primegraph, for one, imports numtheory.factor under its own name), so calls
made inside the program are counted too.  Spans nest on one stack: a
function's self time is its span minus the spans of the wrapped functions it
called.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS: dict[str, tuple[str, ...]] = {
    "numtheory": ("factor", "primality", "cyclotomic_value",
                  "primitive_prime_divisors", "ppd_exists_above",
                  "multiplicative_order", "divisors"),
    "spectra": ("omega_symmetric", "omega_alternating", "omega_metacyclic",
                "omega_closure", "maximal_elements", "mu_pgl2", "mu_psl2"),
    "primegraph": ("build_graph", "components", "mu_components"),
    "matrixgroups": ("field_ctx", "FieldCtx.tables", "omega_bruteforce",
                     "subgroup_closure", "find_binary_octahedral_subgroup"),
    "verify": ("verify_table1", "verify_lemma1", "verify_case_factorizations",
               "check_pgl2_component_structure"),
    "cli": ("main", "render_document"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self._children: list[float] = []  # child span time of each open span
        self.factor_incomplete = 0
        self.factor_cache_hits = 0
        self._factor_last: dict[int, object] = {}

    def wrap(self, name: str, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stat[0] += 1
                stat[1] += span - children.pop()
                if children:
                    children[-1] += span
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_factor(self, args, result) -> None:
        if not result.complete:
            self.factor_incomplete += 1
        n = args[0]
        if self._factor_last.get(n) is result:
            self.factor_cache_hits += 1
        self._factor_last[n] = result

    def report(self) -> dict:
        out = {name: [calls, secs * 1000] for name, (calls, secs) in self.stats.items()}
        out["numtheory.factor.incomplete"] = self.factor_incomplete
        out["numtheory.factor.cache_hits"] = self.factor_cache_hits
        return out


def install() -> Tracer:
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "pglspectra" or name.startswith("pglspectra."))]
    for layer, names in LAYERS.items():
        home = sys.modules[f"pglspectra.{layer}"]
        for name in names:
            label = f"{layer}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, tracer.wrap(label, getattr(cls, meth)))
                continue
            original = getattr(home, name)
            after = tracer._after_factor if label == "numtheory.factor" else None
            wrapped = tracer.wrap(label, original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    return tracer
