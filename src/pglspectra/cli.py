"""Command-line front end.

Every command can emit either human-readable text or, with --json, a
machine-readable document with a stable schema:

    {"schema_version": ..., "command": ..., "inputs": ..., "result": ...,
     "diagnostics": [...]}

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 enumeration cap or factoring budget exhausted, also for a verify run
whose only failed checks are ones the budget left incomplete.

Each command's handler, _cmd_<command>(args, diagnostics), set as its
subparser's default, appends its notes to diagnostics and returns (result,
text lines, exit code); main() alone writes the output.  The text lines
are a generator that main() walks only in text mode, so under --json no
line is formatted.  The document is byte for byte the json module's
rendering with indent=2 and sort_keys=True (render_document).  Every
argument that parses but is rejected raises ValueError, from the library
or, where only the CLI can tell (a --cap below 1, the number of params, an
option the command line does not read), from main or the handler: it is a
domain error, exit 2.  A domain error or a cap or budget error (exit 3)
goes to stderr, or with --json gives a document whose result is null.
While main() runs, an int of any number of digits is parsed and printed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import matrixgroups, numtheory, primegraph, spectra, verify
from .errors import CapExceeded, FactorizationIncomplete, ToolkitError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# A list of ints is formatted _CHUNK ints to a str (_join_ints), and the
# output is written _SLICE characters to a call (_write), so a large omega
# is never held as one str per int, nor as one encoded copy of its text.
_CHUNK = 4096
_SLICE = 1 << 20

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


# Built on the first main() call and reused: parse_args leaves a parser
# unchanged, so a call sees nothing of an earlier one.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pglspectra",
        description="Element-order spectra, prime graphs and primitive prime "
                    "divisors for PGL/PSL(2,q) at desk scale.",
        exit_on_error=False,
    )
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable document")
    parser.add_argument("--budget", type=int, default=numtheory.DEFAULT_RHO_BUDGET,
                        help="Pollard p-1, rho and ECM budget per cofactor, in "
                             "multiplications mod the cofactor; one p-1 attempt counts "
                             "about 22.6k and one ECM curve 5.6k or more, each run only "
                             "if that fits, and no curve runs below 13811; each part "
                             "of a split starts with the "
                             "whole budget again, so a factorization with s splits can "
                             "spend up to 2s + 1 times it; it decides what completes "
                             "(default %(default)s)")
    parser.add_argument("--cap", type=int,
                        help="size cap: n for sym/alt, m*n for metacyclic, "
                             "q for oracle; other choices reject it")
    sub = parser.add_subparsers(dest="command")

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


def _spaced(label: str, values) -> str:
    """label, then the values as str() gives them, joined by spaces."""
    out = [label]
    _join_ints(out, values, " ", str)
    return "".join(out)


def _cmd_ppd(args, diagnostics):
    _read(args, "ppd")
    ns = [*range(1, args.n), args.n] if args.upto else [args.n]  # the library checks n
    reports = [numtheory.primitive_prime_divisors(args.a, i) for i in ns]
    for rep in reports:
        _note_probable(rep.probable, diagnostics)
        if not rep.complete:
            diagnostics.append("factoring budget exhausted; the set may be missing primes")
    code = EXIT_OK if all(rep.complete for rep in reports) else EXIT_RESOURCE
    if args.upto:
        lines = (f"{rep.n:5d}     {sorted(rep.primitive_primes)}" for rep in reports)
        return {"rows": [_ppd_payload(rep) for rep in reports]}, lines, code
    rep, = reports

    def lines():
        found = ", ".join(str(s) for s in sorted(rep.primitive_primes)) or "(none)"
        yield f"primitive prime divisors of {args.a}^{args.n} - 1: {found}"
        if rep.exception != numtheory.EXCEPTION_NONE:
            yield f"exception: {rep.exception}"
    return _ppd_payload(rep), lines(), code


def _cmd_ppd_above(args, diagnostics):
    _read(args, "ppd-above")
    rep = numtheory.ppd_exists_above(args.a, args.n, args.q)

    def lines():
        verdict = "true" if rep.exists_above_threshold else "false"
        yield f"primitive prime divisor of {args.a}^{args.n} - 1 above {args.q}: {verdict}"
        yield f"residual after stripping: {rep.residual}"
    return _ppd_payload(rep), lines(), EXIT_OK


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

    def lines():
        yield f"{args.n} = {f}"
    return payload, lines(), code


def _cmd_mu(args, diagnostics):
    s = _call(spectra, _SPECTRUM_FAMILIES[args.family], args.family, args.params, args)
    payload = {"label": s.label, "mu": s.sorted_mu()}
    if args.command == "omega":
        payload["omega"] = spectra.omega_closure(s)

    def lines():
        yield s.label
        yield _spaced("mu: ", payload["mu"])
        if "omega" in payload:
            yield _spaced("omega: ", payload["omega"])
    return payload, lines(), EXIT_OK


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
        payload["dot"] = primegraph.to_dot(g, part, label=s.label)

    def lines():
        if args.dot:
            yield payload["dot"].rstrip("\n")
            return
        yield s.label
        yield _spaced("vertices: ", payload["vertices"])
        yield "edges: " + (" ".join(f"{r}~{t}" for r, t in payload["edges"]) or "(none)")
        yield f"components (t={part.t}): " + "; ".join(
            " ".join(map(str, c)) for c in payload["components"])
    return payload, lines(), EXIT_OK


def _cmd_oracle(args, diagnostics):
    s = matrixgroups.omega_bruteforce(args.family.upper(), args.p, args.n,
                                      **_read(args, "oracle", "cap"))
    payload = {"label": s.label, "mu": s.sorted_mu(),
               "omega": spectra.omega_closure(s)}
    code = EXIT_OK
    if args.family in _SPECTRUM_FAMILIES:  # pgl2 and psl2 have a closed form
        formula = getattr(spectra, _SPECTRUM_FAMILIES[args.family][0])(args.p, args.n)
        agree = formula.mu == s.mu
        payload["formula_mu"] = formula.sorted_mu()
        payload["matches_formula"] = agree
        if not agree:
            code = EXIT_VERIFY_FAILED

    def lines():
        yield s.label
        yield _spaced("mu: ", payload["mu"])
        if "formula_mu" in payload:
            yield (f"matches closed form {payload['formula_mu']}: "
                   f"{'yes' if payload['matches_formula'] else 'NO'}")
    return payload, lines(), code


def _cmd_catalan(args, diagnostics):
    sols = numtheory.catalan_solutions(**_read(args, "catalan", "bound"))
    payload = {"bound": args.bound, "solutions": [
        {"p": s.p, "m": s.m, "q": s.q, "n": s.n, "value": s.value,
         "family": s.family} for s in sols]}

    def lines():
        for s in sols:
            yield f"{s.p}^{s.m} = {s.q}^{s.n} + 1 = {s.value}  [{s.family}]"
        yield f"{len(sols)} solutions up to {args.bound}"
    return payload, lines(), EXIT_OK


def _cmd_verify(args, diagnostics):
    reports = _call(verify, _VERIFY_TARGETS[args.target], f"verify {args.target}",
                    args.params, args)
    if not isinstance(reports, list):  # verify_all alone gives several
        reports = [reports]
    failed = [it for r in reports for it in r.items if not it.passed]
    ok = not failed
    counts = sum(len(r.items) for r in reports)
    passed = counts - len(failed)
    if ok:
        code = EXIT_OK
    elif all(isinstance(it, verify.IncompleteCheck) for it in failed):
        diagnostics.append(f"factoring budget exhausted; {len(failed)} checks incomplete")
        code = EXIT_RESOURCE
    else:
        code = EXIT_VERIFY_FAILED
    errata = sum(len(r.errata) for r in reports)
    payload = {"reports": [r.to_payload() for r in reports], "ok": ok,
               "checks": counts, "passed": passed, "errata": errata}

    def lines():
        for r in reports:
            yield from r.lines()
        summary = f"{passed}/{counts} checks passed"
        if errata:
            summary += f"; {errata} documented errata reported"
        yield summary
    return payload, lines(), code


def _join_ints(out: list[str], values, sep: str, fmt) -> None:
    """Append sep.join(map(fmt, values)) to out in pieces of at most _CHUNK
    values, so that a str exists for _CHUNK values at a time, not for every
    value."""
    for i in range(0, len(values), _CHUNK):
        if i:
            out.append(sep)
        out.append(sep.join(map(fmt, values[i:i + _CHUNK])))


def _json(value, indent: str, out: list[str]) -> None:
    """Append to out the pieces of value as the json module renders it with
    indent=2 and sort_keys=True, nested at this indent.

    With an indent, json before Python 3.13 encodes in pure Python, one
    integer at a time; here a list of ints (type int exactly, so no bool)
    is joined in C, _CHUNK at a time.  A leaf other than str, int, bool and
    None goes to json.dumps, whose rendering of a leaf has no indent to
    differ in.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not isinstance(value, (list, tuple, dict)):
        out.append(json.dumps(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        # json.dumps sorts the keys before it turns them into strings
        for k, v in sorted(value.items()):
            out.append(encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k)))
            out.append(": ")
            _json(v, inner, out)
            out.append(sep)
        out.pop()  # the separator after the last item
        out.append("\n" + indent + "}")
    else:
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        if set(map(type, value)) == {int}:
            _join_ints(out, value, sep, int.__repr__)
        else:
            for v in value:
                _json(v, inner, out)
                out.append(sep)
            out.pop()  # the separator after the last item
        out.append("\n" + indent + "]")


def render_document(command: str, inputs: dict, result, diagnostics) -> str:
    """The --json document, byte for byte the json module's rendering of it
    with indent=2 and sort_keys=True, and a newline.

    The pieces are joined once, so the text is copied once, whatever its
    nesting."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics,
    }
    out: list[str] = []
    _json(doc, "", out)
    out.append("\n")
    return "".join(out)


def _inputs_of(args) -> dict:
    # a verify option not given shows the default its checkers apply
    defaults = {"nmax": verify.DEFAULT_N_MAX, "bound": verify.DEFAULT_VALUE_BOUND}
    skip = {"command", "json", "budget", "cap", "handler"}
    return {k: defaults[k] if v is None else v
            for k, v in vars(args).items() if k not in skip}


def _unknown_option(argv) -> str | None:
    """The first option the parser does not know, if it precedes the command.

    argparse takes the value of an option it does not know for the command
    (`--seed 1 ppd 7 5` is an invalid choice '1'), so main names the option
    instead.  It is sought on ever longer prefixes of argv, so that a bad
    value further on (`--seed 1 oracle gl2 2 2 --cap x`) cannot hide it.
    """
    for stop in range(1, len(argv) + 1):
        with contextlib.suppress(argparse.ArgumentError):
            rest = build_parser().parse_known_args(argv[:stop])[1]
            if rest:
                return rest[0]


def _write(text: str) -> None:
    """Write text to stdout _SLICE characters at a time, so that no encoded
    copy of all of it is made."""
    for i in range(0, len(text), _SLICE):
        sys.stdout.write(text[i:i + _SLICE])


def _main(argv) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except argparse.ArgumentError as exc:
            message = str(exc)
            if exc.argument_name == "command":
                unknown = _unknown_option(sys.argv[1:] if argv is None else argv)
                if unknown is not None:
                    message = f"unrecognized arguments: {unknown}"
            parser.error(message)
        if args.command is None:
            parser.error("the following arguments are required: command")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    diagnostics: list[str] = []
    previous = numtheory.configure()
    try:
        numtheory.configure(budget=args.budget)
        if args.cap is not None and args.cap < 1:
            raise ValueError(f"--cap must be >= 1, got {args.cap}")
        result, lines, code = args.handler(args, diagnostics)
    except (ToolkitError, ValueError) as exc:
        resource = isinstance(exc, (CapExceeded, FactorizationIncomplete))
        if args.json:
            kind = "resource limit" if resource else "domain error"
            _write(render_document(
                args.command, _inputs_of(args), None, [f"{kind}: {exc}"]))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE if resource else EXIT_USAGE
    finally:  # the library's budget is left as this call found it
        numtheory.configure(**previous)
    if args.json:
        _write(render_document(args.command, _inputs_of(args), result, diagnostics))
    else:
        for line in lines:
            _write(line)
            sys.stdout.write("\n")
        for note in diagnostics:
            print(f"note: {note}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command line; the exit code is returned, not raised.

    Python 3.10.7 and later limit the digits of an int parsed from or
    formatted as a str to 4300.  The program computes such ints, as labels,
    orders and residuals, and takes them as arguments, so main lifts the
    limit while it runs and puts it back after.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit to lift
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
