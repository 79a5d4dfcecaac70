"""Benchmark of the pglspectra CLI: one named workload per invocation.

    python3 bench/run.py --workload ppd|graphs|oracle --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the workload's ops (see
workloads.py).  Each round runs all of them, in their fixed seeded order, in
a fresh worker process, so the program's caches start empty in every round
and nothing pre-warms them.  Rounds repeat until the next one would end
after S seconds; every round is whole, so failed ops are the same share of
attempted ops in every run.  Every op's exit code and output are checked
after its round, with sympy, in this process.

Every time is scaled to a reference host speed by the calibration loop of
hostspeed.py, timed between the ops of each round and around each cold
start, so that the host's drift in speed does not move the figures.

--trace 0 prints the end-to-end metrics; set-up time is measured on its
own, by cold starts between the rounds.  --trace 1 alternates plain and
traced rounds and prints the per-layer metrics of the traced rounds, per
round, with the ratio of traced to plain op time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sympy

import checks
import hostspeed
import workloads
from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
COLD_STARTS_PER_ROUND = 3
MIN_COLD_STARTS = 12
COLD_START_CALIBRATION = 5  # calibration passes just before and just after a cold start
COLD_START = ("import pglspectra.cli; "
              "pglspectra.cli.main(['--json', 'ppd', '2', '1'])")
ROUND_TIMEOUT_S = 150


def cold_start_s() -> float:
    """CPU time of a fresh interpreter through `import pglspectra` and `ppd 2 1`,
    scaled to reference host speed by calibration passes just around it.

    CPU time (user + system) rather than wall time: on a shared virtual
    machine wall time adds stalls of tens of milliseconds to some starts
    and not others, and these are the host's, not set-up work.
    """
    calibration = [hostspeed.sample_ms() for _ in range(COLD_START_CALIBRATION)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-c", COLD_START], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start exited {proc.returncode}")
    calibration += [hostspeed.sample_ms() for _ in range(COLD_START_CALIBRATION)]
    return (usage.ru_utime + usage.ru_stime) * hostspeed.scale(calibration)


def run_round(ops: list[dict], trace: bool) -> tuple[list[dict], dict]:
    """Run one round in a fresh worker; every time comes back in reference time.

    The summary gains "ops_s", the summed time of the ops, and "scale", the
    round's host-speed factor (from the median of its calibration times).
    """
    spec = {"ops": [{k: op[k] for k in ("argv", "binoct") if k in op} for op in ops],
            "trace": trace}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], cwd=ROOT,
                          input=json.dumps(spec), capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines[:-1]]
    if len(results) != len(ops):
        raise RuntimeError(f"worker ran {len(results)} of {len(ops)} ops")
    summary = json.loads(lines[-1])
    calibration = summary["calibration_ms"]
    # an op by the loop timed just before and just after it, self times by the round
    for res, before, after in zip(results, calibration, calibration[1:]):
        res["ms"] *= hostspeed.scale([before, after])
    scale = hostspeed.scale(calibration)
    for stat in summary.get("layers", {}).values():
        if isinstance(stat, list):  # [calls, self_ms]; the rest are counts
            stat[1] *= scale
    summary["ops_s"] = sum(res["ms"] for res in results) / 1000
    summary["scale"] = scale
    return results, summary


class Tally:
    def __init__(self, expected: dict):
        self.expected = expected
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def check(self, ops: list[dict], results: list[dict]) -> None:
        for op, res in zip(ops, results):
            self.attempted += 1
            if res["code"] != 0:
                self.failed += 1
                if not op["kept"]:
                    print(f"unexpected failure, exit {res['code']}: {op}", file=sys.stderr)
            msg = checks.check(op["check"][0], op["check"][1:], res["code"], res["out"],
                               self.expected)
            if msg:
                self.correct = False
                print(f"wrong output: {msg}", file=sys.stderr)


def rounds(seconds: float, step) -> None:
    """Call step() until the next call would end after `seconds`."""
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        step()
        now = time.monotonic()
        if now - t0 + (now - r0) > seconds:
            return


def work_counts(ops: list[dict]) -> dict[str, int]:
    """Work per round computed from the inputs, not measured."""
    counts = {"matrixgroups.matrices": 0, "spectra.partitions": 0,
              "spectra.metacyclic_elements": 0}
    for op in ops:
        name, *args = op["check"]
        if name == "oracle":
            counts["matrixgroups.matrices"] += (args[1] ** args[2]) ** 4
        elif name in ("mu_sym", "mu_alt"):
            counts["spectra.partitions"] += int(sympy.partition(args[0]))
        elif name == "omega_metacyclic":
            counts["spectra.metacyclic_elements"] += args[0] * args[1]
    return counts


def end_to_end(ops, tally, seconds) -> dict:
    """Medians over rounds, so that neither a burst of host speed in one
    round nor a stall that hits one op in one round moves a metric."""
    compile_src()
    cold_start_s()  # the first start after a build reads cold files; not counted
    setup, rates, op_ms, peaks, scales = [], [], [[] for _ in ops], [], []

    def step():
        results, summary = run_round(ops, trace=False)
        tally.check(ops, results)
        rates.append(len(results) / summary["ops_s"])
        scales.append(summary["scale"])
        for times, res in zip(op_ms, results):
            times.append(res["ms"])
        peaks.append(summary["peak_rss_kb"] / 1024)
        # cold starts between rounds sample the same host speed as the rounds
        setup.extend(cold_start_s() for _ in range(COLD_STARTS_PER_ROUND))

    rounds(seconds, step)
    while len(setup) < MIN_COLD_STARTS:
        setup.append(cold_start_s())
    typical = [statistics.median(times) for times in op_ms]
    print(f"host-speed scale: median {statistics.median(scales):.4f} over {len(scales)} rounds",
          file=sys.stderr)
    return {
        "ops_per_s": {"value": statistics.median(rates), "unit": "ops/s"},
        "p50_ms": {"value": statistics.median(typical), "unit": "ms"},
        "p90_ms": {"value": statistics.quantiles(typical, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": max(peaks), "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def per_layer(ops, tally, seconds) -> dict:
    compile_src()
    plain, traced, layers = [], [], []

    def step():
        for trace, times in ((False, plain), (True, traced)):
            results, summary = run_round(ops, trace=trace)
            tally.check(ops, results)
            times.append(summary["ops_s"])
            if trace:
                layers.append(summary["layers"])

    rounds(seconds, step)
    metrics = {}
    for layer, names in LAYERS.items():
        for name in names:
            label = f"{layer}.{name}"
            calls = [lay.get(label, [0, 0.0])[0] for lay in layers]
            self_ms = [lay.get(label, [0, 0.0])[1] for lay in layers]
            metrics[f"{label}.calls"] = {"value": statistics.mean(calls), "unit": "count"}
            metrics[f"{label}.self_ms"] = {"value": statistics.mean(self_ms), "unit": "ms"}
    for label in ("numtheory.factor.incomplete", "numtheory.factor.cache_hits"):
        metrics[label] = {"value": statistics.mean(lay[label] for lay in layers),
                          "unit": "count"}
    for label, value in work_counts(ops).items():
        metrics[label] = {"value": value, "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": sum(traced) / sum(plain), "unit": "ratio"}
    return metrics


def compile_src() -> None:
    """The build: byte-compile the package, as an install would."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "pglspectra")],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pglspectra" / "cli.py").is_file():
        print(f"error: no pglspectra sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    ops = workloads.WORKLOADS[args.workload](args.seed, expected)
    tally = Tally(expected)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(ops, tally, args.seconds)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
