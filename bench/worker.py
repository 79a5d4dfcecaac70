"""Run one round of benchmark ops in a fresh interpreter.

Reads a JSON object {"ops": [...], "trace": bool} on stdin.  Each op is
either {"argv": [...]}, passed in-process to
pglspectra.cli.main(["--json", *argv]), or {"binoct": seed}, a call of
matrixgroups.find_binary_octahedral_subgroup(seed), which no CLI command
reaches.

Each op is timed alone; its output is serialized after the clock stops and
written as one JSON line {"ms", "code", "out"}.  The calibration loop of
hostspeed.py is timed before the first op and after every op, outside the
ops' timing.  A last line holds those samples, the peak resident memory of
this process and, when tracing, the per-layer counters.  Nothing but the
program, the standard library and the benchmark's own modules is imported
here, so the peak memory is the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
from pglspectra import cli, matrixgroups  # noqa: E402

CRASHED = -1  # exit code recorded for an op that raised


def _binoct_doc(w) -> str:
    return json.dumps({"generators": w.generators, "elements": w.elements,
                       "order_counts": w.order_counts})


def peak_rss_kb() -> int:
    """Peak resident memory of this worker process, in KiB.

    VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over exec, so
    a worker started from the benchmark's own process would report that
    process's peak (sympy and all the checked outputs) whenever it is larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()
    out = sys.stdout
    clock = time.perf_counter
    calibration = [hostspeed.sample_ms()]
    for op in spec["ops"]:
        if "argv" in op:
            buf = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(["--json", *op["argv"]])
            except Exception:  # a crash is one failed op, not a lost round
                code = CRASHED
                buf = io.StringIO(traceback.format_exc())
            ms = (clock() - t0) * 1000
            text = buf.getvalue()
        else:
            t0 = clock()
            try:
                witness = matrixgroups.find_binary_octahedral_subgroup(op["binoct"])
                code = 0
            except RuntimeError:
                witness, code = None, 1
            ms = (clock() - t0) * 1000
            text = _binoct_doc(witness) if witness is not None else ""
        calibration.append(hostspeed.sample_ms())
        out.write(json.dumps({"ms": ms, "code": code, "out": text}) + "\n")
    summary = {"calibration_ms": calibration,
               "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        summary["layers"] = tracer.report()
    out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
