"""Command-line front end.

Every command can emit either human-readable text or, with --json, a
machine-readable document with a stable schema:

    {"schema_version": ..., "command": ..., "inputs": ..., "result": ...,
     "diagnostics": [...]}

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 enumeration cap or factoring budget exhausted.

Each command's handler, _cmd_<command>(args, diagnostics), appends its
notes to diagnostics and returns (result, text lines, exit code); main()
alone writes the output.  Every argument that parses but is rejected
raises ValueError, from the library or, where only the CLI can tell (a
--cap below 1, the number of params, an empty ppd --upto range), from
main or the handler: it is a domain error, exit 2.  A domain error or a
cap or budget error (exit 3) goes to stderr, or with --json gives a
document whose result is null.
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

_SPECTRUM_FAMILIES = ("pgl2", "psl2", "sym", "alt", "metacyclic", "f4psi")
_ORACLE_FAMILIES = ("gl2", "sl2", "pgl2", "psl2")
_VERIFY_TARGETS = ("table1", "lemma1", "lemma2", "cases", "pgl2", "all")


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
    parser.add_argument("--cap", type=int, default=None,
                        help="size cap: n for sym/alt, m*n for metacyclic, "
                             "q for oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ppd", help="primitive prime divisors of a^n - 1")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--upto", action="store_true",
                   help="one line per i in 1..n")

    p = sub.add_parser("ppd-above",
                       help="is there a primitive prime divisor of a^n - 1 above q?")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)

    p = sub.add_parser("factor", help="factor n")
    p.add_argument("n", type=int)

    for name in ("mu", "omega"):
        p = sub.add_parser(name, help=f"{name} of a group family")
        p.add_argument("family", choices=_SPECTRUM_FAMILIES)
        p.add_argument("params", type=int, nargs="+",
                       help="pgl2/psl2: p n; sym/alt: n; metacyclic: m n k; f4psi: e")

    p = sub.add_parser("graph", help="prime graph of a spectrum")
    p.add_argument("family", choices=_SPECTRUM_FAMILIES[:-1])
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--dot", action="store_true", help="emit DOT format")

    p = sub.add_parser("oracle",
                       help="brute-force spectrum by matrix enumeration")
    p.add_argument("family", choices=_ORACLE_FAMILIES)
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("catalan", help="solutions of p^m = q^n + 1 up to a bound")
    p.add_argument("bound", type=int)

    p = sub.add_parser("verify", help="run the bundled verification suites")
    p.add_argument("target", choices=_VERIFY_TARGETS)
    p.add_argument("params", type=int, nargs="*",
                   help="for target pgl2: p n")
    p.add_argument("--nmax", type=int, default=60,
                   help="upper n for the lemma1 rows (default 60)")
    p.add_argument("--bound", type=int, default=10**6,
                   help="enumeration bound for lemma2 (default 10^6)")
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


def _cmd_ppd(args, diagnostics):
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
    rep = numtheory.ppd_exists_above(args.a, args.n, args.q)
    verdict = "true" if rep.exists_above_threshold else "false"
    lines = [
        f"primitive prime divisor of {args.a}^{args.n} - 1 above {args.q}: {verdict}",
        f"residual after stripping: {rep.residual}",
    ]
    return _ppd_payload(rep), lines, EXIT_OK


def _cmd_factor(args, diagnostics):
    f = numtheory.factor(args.n)
    _note_probable(f.probable, diagnostics)
    code = EXIT_OK
    if not f.complete:
        diagnostics.append(f"budget exhausted: cofactor {f.cofactor} unfactored")
        code = EXIT_RESOURCE
    payload = {"n": f.base_n, "factors": [[p, e] for p, e in f.factors],
               "complete": f.complete, "cofactor": f.cofactor}
    return payload, [f"{args.n} = {f}"], code


def _spectrum_for(family: str, params: list[int], cap: int | None):
    if family in ("pgl2", "psl2"):
        if len(params) != 2:
            raise ValueError(f"{family} takes: p n")
        fn = spectra.mu_pgl2 if family == "pgl2" else spectra.mu_psl2
        return fn(*params)
    if family in ("sym", "alt"):
        if len(params) != 1:
            raise ValueError(f"{family} takes: n")
        fn = spectra.omega_symmetric if family == "sym" else spectra.omega_alternating
        return fn(params[0], cap or spectra.DEFAULT_PARTITION_CAP)
    if family == "metacyclic":
        if len(params) != 3:
            raise ValueError("metacyclic takes: m n k")
        return spectra.omega_metacyclic(*params, cap=cap or spectra.DEFAULT_GROUP_CAP)
    # f4psi, the last of argparse's choices
    if len(params) != 1:
        raise ValueError("f4psi takes: e")
    e, = params
    return spectra.maximal_elements(spectra.psi_f4(e), label=f"psi(F4(2^{e}))")


def _cmd_mu(args, diagnostics):
    s = _spectrum_for(args.family, args.params, args.cap)
    payload = {"label": s.label, "mu": s.sorted_mu()}
    lines = [s.label, "mu: " + " ".join(map(str, s.sorted_mu()))]
    if args.command == "omega":
        omega = spectra.omega_closure(s)
        payload["omega"] = omega
        lines.append("omega: " + " ".join(map(str, omega)))
    return payload, lines, EXIT_OK


def _cmd_graph(args, diagnostics):
    s = _spectrum_for(args.family, args.params, args.cap)
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
    family = args.family.upper()
    cap = args.cap or matrixgroups.DEFAULT_ENUM_CAP
    s = matrixgroups.omega_bruteforce(family, args.p, args.n, cap=cap)
    payload = {"label": s.label, "mu": s.sorted_mu(),
               "omega": spectra.omega_closure(s)}
    lines = [s.label, "mu: " + " ".join(map(str, s.sorted_mu()))]
    if args.family in ("pgl2", "psl2"):
        formula = _spectrum_for(args.family, [args.p, args.n], None)
        agree = formula.mu == s.mu
        payload["formula_mu"] = formula.sorted_mu()
        payload["matches_formula"] = agree
        lines.append(f"matches closed form {formula.sorted_mu()}: "
                     f"{'yes' if agree else 'NO'}")
        if not agree:
            return payload, lines, EXIT_VERIFY_FAILED
    return payload, lines, EXIT_OK


def _cmd_catalan(args, diagnostics):
    sols = numtheory.catalan_solutions(args.bound)
    payload = {"bound": args.bound, "solutions": [
        {"p": s.p, "m": s.m, "q": s.q, "n": s.n, "value": s.value,
         "family": s.family} for s in sols]}
    lines = [f"{s.p}^{s.m} = {s.q}^{s.n} + 1 = {s.value}  [{s.family}]"
             for s in sols]
    lines.append(f"{len(sols)} solutions up to {args.bound}")
    return payload, lines, EXIT_OK


def _cmd_verify(args, diagnostics):
    target = args.target
    if target == "pgl2" and len(args.params) != 2:
        raise ValueError("verify pgl2 takes: p n")
    if target != "pgl2" and args.params:
        raise ValueError(f"verify {target} takes no params")
    if target == "table1":
        reports = [verify.verify_table1()]
    elif target == "lemma1":
        reports = [verify.verify_lemma1(args.nmax)]
    elif target == "lemma2":
        reports = [verify.verify_lemma2(args.bound)]
    elif target == "cases":
        reports = [verify.verify_case_factorizations()]
    elif target == "pgl2":
        reports = [verify.check_pgl2_component_structure(*args.params)]
    else:
        reports = verify.verify_all(args.nmax, args.bound)
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


_HANDLERS = {
    "ppd": _cmd_ppd,
    "ppd-above": _cmd_ppd_above,
    "factor": _cmd_factor,
    "mu": _cmd_mu,
    "omega": _cmd_mu,
    "graph": _cmd_graph,
    "oracle": _cmd_oracle,
    "catalan": _cmd_catalan,
    "verify": _cmd_verify,
}


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
    skip = {"command", "json", "seed", "budget", "cap"}
    return {k: v for k, v in vars(args).items() if k not in skip}


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
        result, lines, code = _HANDLERS[args.command](args, diagnostics)
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
