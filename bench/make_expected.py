"""Regenerate expected.json: sympy factorizations the checks compare against.

    python3 bench/make_expected.py

It factors a^i - 1 and a^i + 1 for every base a of the workloads and
1 <= i <= N_MAX with sympy.factorint, which takes a few minutes.  The
workloads also read the file to build their pools of inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import sympy

from workloads import BASES, N_MAX

OUT = Path(__file__).resolve().parent / "expected.json"


def main() -> None:
    table = {}
    for a in BASES:
        for i in range(1, N_MAX + 1):
            for sign, value in (("-", a**i - 1), ("+", a**i + 1)):
                table[f"{a}^{i}{sign}1"] = sorted(sympy.factorint(value).items())
        print(f"base {a} done", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
