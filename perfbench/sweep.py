"""Run the benchmark over many seeds, for one checkout or alternating two.

    python3 perfbench/sweep.py --out RESULTS [--seeds 1-10] [--trace 0|1]
                               [--checkout LABEL=DIR ...]

Every workload of BENCHMARK.json runs for its run_seconds on every seed.
Each run's full output goes to RESULTS/LABEL/WORKLOAD/SEED.txt (its last line
is the result object).  With two checkouts, say ``parent=../a change=.``,
every seed runs both, the first of them on odd seeds and the second on even
seeds, so neither side always runs first.  Each checkout runs its own
perfbench/run.py; measure a change against its parent with identical
benchmark code.  Compare the results with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR")
    args = parser.parse_args(argv)
    checkouts = [c.split("=", 1) for c in args.checkout] or [["current", str(ROOT)]]

    failures = 0
    for seed in _seeds(args.seeds):
        order = checkouts if seed % 2 else checkouts[::-1]
        for workload in (w["name"] for w in spec["workloads"]):
            for label, directory in order:
                dest = args.out / label / workload / f"{seed}.txt"
                dest.parent.mkdir(parents=True, exist_ok=True)
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                       str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True, timeout=900)
                dest.write_text(proc.stdout, encoding="utf-8")
                if proc.stderr:
                    dest.with_suffix(".err").write_text(proc.stderr, encoding="utf-8")
                status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
                failures += proc.returncode != 0
                print(f"{label:10s} {workload:16s} seed {seed:4d}: {status}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
