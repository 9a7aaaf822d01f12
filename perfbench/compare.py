"""Compare two sets of benchmark runs, or show the spread of one.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RUNS_DIR

A directory holds WORKLOAD/SEED.txt files as perfbench/sweep.py writes them.
With two directories, runs pair up by workload and seed, and each row gives,
per workload and metric, both sides' median and quartiles, the share of
pairs the change won (ties count for neither side) and a verdict:

* unresolved - the parent's own quartile spread is wider than the bound and
  not every change run is better than every parent run;
* improved   - the change wins at least 9/10 of the pairs, its median is
  better by more than the parent's quartile spread, and no more requests
  failed than at the parent (or, under a wide spread, every change run is
  better than every parent run);
* regressed  - the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* no worse   - otherwise.

Per-layer metrics have no bound and get no verdict.  With one directory,
each row gives the median and the quartile spread as a share of the median,
marked when it is not below a third of the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], dict]:
    """{(workload, seed): result object} from the last line of each run."""
    runs = {}
    for path in sorted(directory.glob("*/*.txt")):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if lines:
            runs[(path.parent.name, int(path.stem))] = json.loads(lines[-1])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None,
            failed_parent: int, failed_change: int) -> tuple[float, str]:
    """(share of pairs won by the change, verdict) for paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    won = wins / len(parent)
    if bound is None:
        return won, "-"
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    spread = q3 - q1
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound * abs(med_p):
        return won, "improved" if all_better else "unresolved"
    if won >= 0.9 and sign * (med_c - med_p) > spread and failed_change <= failed_parent:
        return won, "improved"
    if -sign * (med_c - med_p) > bound * abs(med_p):
        return won, "regressed"
    return won, "no worse"


def _metrics(spec: dict) -> list[dict]:
    return spec["end_to_end"] + spec["per_layer"]


def spread_report(runs: dict, spec: dict) -> None:
    print(f"{'workload':16s} {'metric':52s} {'n':>3s} {'median':>12s} {'IQR/median':>10s}")
    for workload in sorted({w for w, _ in runs}):
        results = [r for (w, _), r in sorted(runs.items()) if w == workload]
        for m in _metrics(spec):
            values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / abs(med) if med else 0.0
            flag = ""
            if "bound" in m and m["name"] != "setup_s" and rel >= m["bound"] / 3:
                flag = f"  >= bound/3 ({m['bound']}/3)"
            print(f"{workload:16s} {m['name']:52s} {len(values):3d} {med:12.6g} {rel:10.4f}{flag}")


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def compare_report(parent: dict, change: dict, spec: dict) -> None:
    print(f"{'workload':16s} {'metric':52s} {'pairs':>5s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'won':>5s}  verdict")
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        pr = [parent[(workload, s)] for s in seeds]
        cr = [change[(workload, s)] for s in seeds]
        for m in _metrics(spec):
            name = m["name"]
            if not all(name in r["metrics"] for r in pr + cr):
                continue
            p = [r["metrics"][name]["value"] for r in pr]
            c = [r["metrics"][name]["value"] for r in cr]
            won, v = verdict(p, c, m["better"], m.get("bound"),
                             sum(r["failed"] for r in pr), sum(r["failed"] for r in cr))
            print(f"{workload:16s} {name:52s} {len(seeds):5d} {_fmt(quartiles(p)):>32s} "
                  f"{_fmt(quartiles(c)):>32s} {won:5.2f}  {v}")


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if len(argv) == 1:
        spread_report(load(Path(argv[0])), spec)
    elif len(argv) == 2:
        compare_report(load(Path(argv[0])), load(Path(argv[1])), spec)
    else:
        print(__doc__, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
