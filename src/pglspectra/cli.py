"""Command-line front end.

Every command can emit either human-readable text or, with --json, a
machine-readable document with a stable schema:

    {"schema_version": ..., "command": ..., "inputs": ..., "result": ...,
     "diagnostics": [...]}

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 enumeration cap or factoring budget exhausted.

Each command's handler, _cmd_<command>(args, diagnostics), set as its
subparser's default, appends its notes to diagnostics and returns (result,
text lines, exit code); main() alone writes the output.  Every argument
that parses but is rejected raises ValueError, from the library or, where
only the CLI can tell (a --cap below 1, the number of params, an empty ppd
--upto range, an option the command line does not read), from main or the
handler: it is a domain error, exit 2.  A domain error or a cap or budget
error (exit 3) goes to stderr, or with --json gives a document whose
result is null.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import matrixgroups, numtheory, primegraph, spectra, verify
from .errors import CapExceeded, FactorizationIncomplete, ToolkitError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# The choices of mu/omega/graph and of verify.  Each names the library
# function it calls, looked up on its module at call time (tests and
# bench/tracing.py rebind module attributes), its params, and the options
# of _LIMITS it reads.  An option not given is not passed on, so the
# library default applies.
_SPECTRUM_FAMILIES = {  # builders on spectra
    "pgl2": ("mu_pgl2", "p n", ()),
    "psl2": ("mu_psl2", "p n", ()),
    "sym": ("omega_symmetric", "n", ("cap",)),
    "alt": ("omega_alternating", "n", ("cap",)),
    "metacyclic": ("omega_metacyclic", "m n k", ("cap",)),
    "f4psi": ("mu_psi_f4", "e", ()),
}
_VERIFY_TARGETS = {  # checkers on verify
    "table1": ("verify_table1", "", ()),
    "lemma1": ("verify_lemma1", "", ("nmax",)),
    "lemma2": ("verify_lemma2", "", ("bound",)),
    "cases": ("verify_case_factorizations", "", ()),
    "pgl2": ("check_pgl2_component_structure", "p n", ()),
    "all": ("verify_all", "", ("nmax", "bound")),
}
# Each option some choices read, with the library keyword it is passed as.
# catalan's positional bound is the value_bound of catalan_solutions, which
# verify lemma2 passes --bound on to.
_LIMITS = {"cap": "cap", "nmax": "n_max", "bound": "value_bound"}


# Built on the first main() call and reused: parse_args leaves the parser
# unchanged, so a call sees nothing of an earlier one.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pglspectra",
        description="Element-order spectra, prime graphs and primitive prime "
                    "divisors for PGL/PSL(2,q) at desk scale.",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable document")
    parser.add_argument("--seed", type=int, default=numtheory.DEFAULT_SEED,
                        help="seed for the Pollard rho restarts "
                             "(default %(default)s)")
    parser.add_argument("--budget", type=int, default=numtheory.DEFAULT_RHO_BUDGET,
                        help="Pollard rho budget per cofactor, in "
                             "multiplications mod the cofactor "
                             "(default %(default)s)")
    parser.add_argument("--cap", type=int,
                        help="size cap: n for sym/alt, m*n for metacyclic, "
                             "q for oracle; other choices reject it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ppd", help="primitive prime divisors of a^n - 1")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--upto", action="store_true",
                   help="one line per i in 1..n")
    p.set_defaults(handler=_cmd_ppd)

    p = sub.add_parser("ppd-above",
                       help="is there a primitive prime divisor of a^n - 1 above q?")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=_cmd_ppd_above)

    p = sub.add_parser("factor", help="factor n")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_factor)

    for name in ("mu", "omega"):
        p = sub.add_parser(name, help=f"{name} of a group family")
        p.add_argument("family", choices=_SPECTRUM_FAMILIES)
        p.add_argument("params", type=int, nargs="+", help="; ".join(
            f"{family}: {names}" for family, (_, names, _) in _SPECTRUM_FAMILIES.items()))
        p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("graph", help="prime graph of a spectrum")
    # psi(F4(2^e)) is only part of a spectrum (spectra.mu_psi_f4)
    p.add_argument("family", choices=[f for f in _SPECTRUM_FAMILIES if f != "f4psi"])
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--dot", action="store_true", help="emit DOT format")
    p.set_defaults(handler=_cmd_graph)

    about = ("spectrum from conjugacy-class representatives, checked "
             "against the closed form for pgl2/psl2")
    p = sub.add_parser("oracle", help=about, description=about)
    p.add_argument("family", choices=[f.lower() for f in matrixgroups.FAMILIES])
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("catalan", help="solutions of p^m = q^n + 1 up to a bound")
    p.add_argument("bound", type=int)
    p.set_defaults(handler=_cmd_catalan)

    p = sub.add_parser("verify", help="run the bundled verification suites")
    p.add_argument("target", choices=_VERIFY_TARGETS)
    p.add_argument("params", type=int, nargs="*",
                   help="for target pgl2: p n")
    p.add_argument("--nmax", type=int,
                   help=f"upper n for the lemma1 rows (default {verify.DEFAULT_N_MAX})")
    p.add_argument("--bound", type=int,
                   help=f"enumeration bound for lemma2 (default {verify.DEFAULT_VALUE_BOUND})")
    p.set_defaults(handler=_cmd_verify)
    return parser


# ---------------------------------------------------------------------------
# handlers: (args, diagnostics) -> (result payload, text lines, exit code)

def _ppd_payload(rep: numtheory.PpdReport) -> dict:
    out = {
        "a": rep.a, "n": rep.n,
        "primitive_primes": sorted(rep.primitive_primes),
        "exception": rep.exception,
        "method": rep.method,
        "complete": rep.complete,
    }
    if rep.threshold is not None:
        out["threshold"] = rep.threshold
        out["residual"] = rep.residual
        out["exists_above_threshold"] = rep.exists_above_threshold
    return out


def _note_probable(probable, diagnostics: list[str]) -> None:
    for s in probable:
        diagnostics.append(f"primality of {s} established probabilistically")


def _read(args, what: str, *options: str) -> dict:
    """The options among these that the user gave, by library keyword.

    Any other option of _LIMITS that was given is a domain error: no
    command line silently ignores an option.
    """
    given = {}
    for option, keyword in _LIMITS.items():
        value = getattr(args, option, None)
        if value is None:
            continue
        if option not in options:
            raise ValueError(f"--{option} does not apply to {what}")
        given[keyword] = value
    return given


def _call(module, entry, what: str, params: list[int], args):
    """Call a table entry's library function with the params and the
    options it reads."""
    name, names, reads = entry
    if len(params) != len(names.split()):
        raise ValueError(f"{what} takes: {names}" if names else f"{what} takes no params")
    return getattr(module, name)(*params, **_read(args, what, *reads))


def _cmd_ppd(args, diagnostics):
    _read(args, "ppd")
    if args.upto and args.n < 1:  # an empty --upto range reaches no library check
        raise ValueError("need a >= 2 and n >= 1")
    ns = range(1, args.n + 1) if args.upto else [args.n]
    reports = [numtheory.primitive_prime_divisors(args.a, i) for i in ns]
    for rep in reports:
        _note_probable(rep.probable, diagnostics)
        if not rep.complete:
            diagnostics.append("factoring budget exhausted; the set may be missing primes")
    code = EXIT_OK if all(rep.complete for rep in reports) else EXIT_RESOURCE
    if args.upto:
        lines = [f"{rep.n:5d}     {sorted(rep.primitive_primes)}" for rep in reports]
        return {"rows": [_ppd_payload(rep) for rep in reports]}, lines, code
    rep, = reports
    found = ", ".join(str(s) for s in sorted(rep.primitive_primes)) or "(none)"
    lines = [f"primitive prime divisors of {args.a}^{args.n} - 1: {found}"]
    if rep.exception != numtheory.EXCEPTION_NONE:
        lines.append(f"exception: {rep.exception}")
    return _ppd_payload(rep), lines, code


def _cmd_ppd_above(args, diagnostics):
    _read(args, "ppd-above")
    rep = numtheory.ppd_exists_above(args.a, args.n, args.q)
    verdict = "true" if rep.exists_above_threshold else "false"
    lines = [
        f"primitive prime divisor of {args.a}^{args.n} - 1 above {args.q}: {verdict}",
        f"residual after stripping: {rep.residual}",
    ]
    return _ppd_payload(rep), lines, EXIT_OK


def _cmd_factor(args, diagnostics):
    _read(args, "factor")
    f = numtheory.factor(args.n)
    _note_probable(f.probable, diagnostics)
    code = EXIT_OK
    if not f.complete:
        diagnostics.append(f"budget exhausted: cofactor {f.cofactor} unfactored")
        code = EXIT_RESOURCE
    payload = {"n": f.base_n, "factors": [[p, e] for p, e in f.factors],
               "complete": f.complete, "cofactor": f.cofactor}
    return payload, [f"{args.n} = {f}"], code


def _cmd_mu(args, diagnostics):
    s = _call(spectra, _SPECTRUM_FAMILIES[args.family], args.family, args.params, args)
    payload = {"label": s.label, "mu": s.sorted_mu()}
    lines = [s.label, "mu: " + " ".join(map(str, s.sorted_mu()))]
    if args.command == "omega":
        omega = spectra.omega_closure(s)
        payload["omega"] = omega
        lines.append("omega: " + " ".join(map(str, omega)))
    return payload, lines, EXIT_OK


def _cmd_graph(args, diagnostics):
    s = _call(spectra, _SPECTRUM_FAMILIES[args.family], args.family, args.params, args)
    g = primegraph.build_graph(s)
    part = primegraph.components(g)
    payload = {
        "label": s.label,
        "vertices": sorted(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
        "components": [sorted(c) for c in part.components],
        "t": part.t,
    }
    if args.dot:
        dot = primegraph.to_dot(g, part, label=s.label)
        payload["dot"] = dot
        return payload, [dot.rstrip("\n")], EXIT_OK
    lines = [
        s.label,
        "vertices: " + " ".join(map(str, sorted(g.vertices))),
        "edges: " + (" ".join(f"{r}~{t}" for r, t in sorted(g.edges)) or "(none)"),
        f"components (t={part.t}): " +
        "; ".join(" ".join(map(str, sorted(c))) for c in part.components),
    ]
    return payload, lines, EXIT_OK


def _cmd_oracle(args, diagnostics):
    s = matrixgroups.omega_bruteforce(args.family.upper(), args.p, args.n,
                                      **_read(args, "oracle", "cap"))
    payload = {"label": s.label, "mu": s.sorted_mu(),
               "omega": spectra.omega_closure(s)}
    lines = [s.label, "mu: " + " ".join(map(str, s.sorted_mu()))]
    if args.family in _SPECTRUM_FAMILIES:  # pgl2 and psl2 have a closed form
        formula = getattr(spectra, _SPECTRUM_FAMILIES[args.family][0])(args.p, args.n)
        agree = formula.mu == s.mu
        payload["formula_mu"] = formula.sorted_mu()
        payload["matches_formula"] = agree
        lines.append(f"matches closed form {formula.sorted_mu()}: "
                     f"{'yes' if agree else 'NO'}")
        if not agree:
            return payload, lines, EXIT_VERIFY_FAILED
    return payload, lines, EXIT_OK


def _cmd_catalan(args, diagnostics):
    sols = numtheory.catalan_solutions(**_read(args, "catalan", "bound"))
    payload = {"bound": args.bound, "solutions": [
        {"p": s.p, "m": s.m, "q": s.q, "n": s.n, "value": s.value,
         "family": s.family} for s in sols]}
    lines = [f"{s.p}^{s.m} = {s.q}^{s.n} + 1 = {s.value}  [{s.family}]"
             for s in sols]
    lines.append(f"{len(sols)} solutions up to {args.bound}")
    return payload, lines, EXIT_OK


def _cmd_verify(args, diagnostics):
    reports = _call(verify, _VERIFY_TARGETS[args.target], f"verify {args.target}",
                    args.params, args)
    if not isinstance(reports, list):  # verify_all alone gives several
        reports = [reports]
    ok = all(r.ok for r in reports)
    lines = []
    for r in reports:
        lines.extend(r.lines())
    counts = sum(len(r.items) for r in reports)
    passed = sum(1 for r in reports for it in r.items if it.passed)
    errata = sum(len(r.errata) for r in reports)
    summary = f"{passed}/{counts} checks passed"
    if errata:
        summary += f"; {errata} documented errata reported"
    lines.append(summary)
    payload = {"reports": [r.to_payload() for r in reports], "ok": ok,
               "checks": counts, "passed": passed, "errata": errata}
    return payload, lines, EXIT_OK if ok else EXIT_VERIFY_FAILED


def render_document(command: str, inputs: dict, result, diagnostics) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _inputs_of(args) -> dict:
    # a verify option not given shows the default its checkers apply
    defaults = {"nmax": verify.DEFAULT_N_MAX, "bound": verify.DEFAULT_VALUE_BOUND}
    skip = {"command", "json", "seed", "budget", "cap", "handler"}
    return {k: defaults[k] if v is None else v
            for k, v in vars(args).items() if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    numtheory.configure(seed=args.seed, budget=args.budget)
    diagnostics: list[str] = []
    try:
        if args.cap is not None and args.cap < 1:
            raise ValueError(f"--cap must be >= 1, got {args.cap}")
        result, lines, code = args.handler(args, diagnostics)
    except (ToolkitError, ValueError) as exc:
        resource = isinstance(exc, (CapExceeded, FactorizationIncomplete))
        if args.json:
            kind = "resource limit" if resource else "domain error"
            sys.stdout.write(render_document(
                args.command, _inputs_of(args), None, [f"{kind}: {exc}"]))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE if resource else EXIT_USAGE
    if args.json:
        sys.stdout.write(render_document(
            args.command, _inputs_of(args), result, diagnostics))
    else:
        for line in lines:
            print(line)
        for note in diagnostics:
            print(f"note: {note}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
