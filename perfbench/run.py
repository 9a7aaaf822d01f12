"""The complexorder benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is one process sending one request at a time (closed loop)
drawn from the seed (perfbench/workloads.py).  Every point the program
returns is checked against an independent mpmath reference
(perfbench/oracle.py) after the timed region.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` runs a fixed number of the seed's requests twice, each in a
fresh process, once plain and once with spans around every public function
(perfbench/spans.py), and reports the per-layer metrics; its counts repeat
exactly for a seed.  The spans are written to perfbench/out/.

Output: one line per metric (name, value, unit) and an environment record,
then, as the last line, the JSON result object.  Metric names, units and
bounds are defined in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import harness
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT = HERE / "out"

#: Fresh processes timed for setup_s (import plus warm-up); the median counts.
SETUP_PROBES = 5

#: Requests in each pass of a traced run, sized to take a few seconds plain.
TRACE_REQUESTS = {"grid-integral": 48, "grid-derivative": 16, "cli-cold": 16}

#: Repetitions of ``python -X importtime`` for cli.import_ms.
IMPORT_PROBES = 5


def _spec() -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child(*args: str) -> str:
    code, stdout, stderr, *_ = harness.run_process([sys.executable, str(CHILD), *args])
    if code != 0:
        raise RuntimeError(f"child {args[0]} exited {code}: {stderr.strip()[-500:]}")
    return stdout


def _setup_seconds(workload: str, probe: harness.SpeedProbe) -> tuple[float, float]:
    """Median of (raw, speed-scaled) wall times of fresh set-up processes."""
    raw, scaled = [], []
    probe.run()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _child("setup", workload)
        raw.append(time.perf_counter() - t0)
        probe.run()
        scaled.append(raw[-1] * probe.scale(len(probe.times) - 1))
    return statistics.median(raw), statistics.median(scaled)


def _measure(workload: str, seed: int, seconds: float, probe: harness.SpeedProbe):
    """Closed loop for ``seconds``, with a speed probe at least every 0.2 s.

    Returns [(request, outcome, speed scale)] and the peak RSS.
    """
    cli = workload == "cli-cold"
    if cli:
        harness.run_cli(workloads.warmup_requests(workload)[0])
    else:
        for req in workloads.warmup_requests(workload):
            harness.execute(req, harness.prepare(req))
    stream = workloads.requests(workload, seed)
    done = []
    last_probe = -math.inf
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if time.perf_counter() - last_probe >= 0.2:
            probe.run()
            last_probe = time.perf_counter()
        req = next(stream)
        out = harness.run_cli(req) if cli else harness.execute(req, harness.prepare(req))
        done.append((req, out, len(probe.times) - 1))
    probe.run()
    if cli:
        rss = max(out.rss_mb for _, out, _ in done)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return [(req, out, probe.scale(i)) for req, out, i in done], rss


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics.  Request costs cluster (by kind, number of terms and
    k), and the plain order statistic jumps across the gaps between
    clusters from run to run; this estimator averages over them."""
    import mpmath

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    # Weights beyond six standard deviations of the rank are below 1e-9.
    half = 6.0 * math.sqrt(p * (1.0 - p) / n)
    lo, hi = max(0, math.floor((p - half) * n)), min(n, math.ceil((p + half) * n))

    def cdf(i: int) -> float:
        if i <= lo:
            return 0.0
        if i >= hi:
            return 1.0
        return float(mpmath.betainc(a, b, 0, i / n, regularized=True))

    edges = [cdf(i) for i in range(lo, hi + 1)]
    return sum((e1 - e0) * x[i] for i, e0, e1 in zip(range(lo, hi), edges, edges[1:]))


def _timings(done, tally: harness.Tally, scaled: bool) -> dict:
    latencies_ms = [out.wall_s * 1e3 * (k if scaled else 1.0) for _, out, k in done]
    busy_s = sum(out.wall_s * (k if scaled else 1.0) for _, out, k in done)
    cpu_s = sum(out.cpu_s * (k if scaled else 1.0) for _, out, k in done)
    return {
        "request_ms_p50": quantile(latencies_ms, 0.5),
        "request_ms_p90": quantile(latencies_ms, 0.9),
        "points_per_s": tally.passed / busy_s,
        "cpu_ms_per_point": cpu_s * 1e3 / max(tally.points, 1),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, harness.Tally, dict]:
    harness.require_program()
    import complexorder  # noqa: F401  (imported before anything is timed)

    probe = harness.SpeedProbe()
    setup_raw, setup_s = _setup_seconds(workload, probe)
    done, rss = _measure(workload, seed, seconds, probe)
    tally = harness.Tally()
    for req, out, _ in done:
        tally.add(req, out)
    metrics = {
        "setup_s": setup_s,
        **_timings(done, tally, scaled=True),
        "ok_frac": tally.passed / max(tally.points, 1),
        "peak_rss_mb": rss,
    }
    notes = {
        "requests": len(done),
        "points_per_request": tally.points / max(tally.requests, 1),
        "fail_frac": 1.0 - metrics["ok_frac"],
        "probe_ms_median": statistics.median(probe.times) * 1e3,
        "unscaled": {"setup_s": setup_raw, **_timings(done, tally, scaled=False)},
    }
    return metrics, tally, notes


def _import_ms() -> float:
    """Median import time of complexorder and its CLI, from -X importtime."""
    totals = []
    for _ in range(IMPORT_PROBES):
        code, _, stderr, *_ = harness.run_process(
            [sys.executable, "-X", "importtime", "-c", "import complexorder.cli"]
        )
        if code != 0:
            raise RuntimeError(f"import failed: {stderr.strip()[-300:]}")
        us = 0
        for line in stderr.splitlines():
            parts = line.split("|")
            # Top-level rows have exactly one space before the module name.
            if len(parts) == 3 and parts[2].startswith(" complexorder"):
                us += int(parts[1])
        totals.append(us / 1e3)
    return statistics.median(totals)


def per_layer(workload: str, seed: int) -> tuple[dict, harness.Tally, dict]:
    import numpy as np

    import child
    import spans

    OUT.mkdir(exist_ok=True)
    count = TRACE_REQUESTS[workload]
    stream = workloads.requests(workload, seed)
    reqs = [next(stream) for _ in range(count)]
    path = OUT / f"spans-{workload}-{seed}.npz"
    tally = harness.Tally()
    integrand_calls = opaque_points = 0
    if workload == "cli-cold":
        plain_s = traced_s = 0.0
        parts = []
        part_path = str(OUT / f"spans-{workload}-{seed}-part.npz")
        for req in reqs:
            for traced in ("0", "1"):
                t0 = time.perf_counter()
                result = json.loads(_child("cli", traced, part_path, *req.cli_argv()))
                wall = time.perf_counter() - t0
                if traced == "1":
                    traced_s += wall
                    with np.load(part_path) as z:
                        parts.append({k: z[k] for k in z.files})
                else:
                    plain_s += wall
                    tally.add(req, harness.parse_cli(req, result["code"], result["stdout"]))
        os.remove(part_path)
        arrays = spans.concat(parts)
        np.savez(path, **arrays)
        import_ms = _import_ms()
    else:
        plain = json.loads(_child("pass", workload, str(seed), str(count), "0", str(path)))
        traced = json.loads(_child("pass", workload, str(seed), str(count), "1", str(path)))
        plain_s, traced_s = plain["wall_s"], traced["wall_s"]
        for req, out in zip(reqs, traced["outcomes"]):
            tally.add(req, child.decode(out))
        integrand_calls, opaque_points = traced["integrand_calls"], traced["opaque_points"]
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        import_ms = 0.0
    points = sum(len(r.xs) for r in reqs)
    metrics = spans.layer_metrics(arrays, points, len(reqs))
    n = max(tally.points, 1)
    metrics.update({f"evaluation.status.{s}_frac": tally.status[s] / n for s in harness.STATUSES})
    metrics["evaluation.silent_inaccurate_frac"] = tally.silent_inaccurate / n
    metrics["fail_frac"] = 1.0 - tally.passed / n
    metrics["integrand_calls_per_point"] = integrand_calls / opaque_points if opaque_points else 0.0
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    notes = {"requests": len(reqs), "points": points, "spans": len(arrays["name"]),
             "spans_file": str(path.relative_to(harness.ROOT))}
    return metrics, tally, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.require_program()

    env = harness.environment(args.seed)
    if args.trace:
        metrics, tally, notes = per_layer(args.workload, args.seed)
        section = "per_layer"
    else:
        metrics, tally, notes = end_to_end(args.workload, args.seed, args.seconds)
        section = "end_to_end"
    env["loadavg_after"] = os.getloadavg()

    units = {m["name"]: m["unit"] for m in _spec()[section]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: BENCHMARK.json names metrics this run lacks: {missing}", file=sys.stderr)
        return 1
    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} {json.dumps(notes)}")
    for err in tally.errors[:20]:
        print(f"# failed request: {err}")
    if tally.closed_mismatch:
        print(f"# closed-form values outside rel_tol of the reference: {tally.closed_mismatch}")
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:55s} {value:14.6g} {units.get(name, '')}")
    result = {
        "correct": tally.correct,
        "attempted": tally.requests,
        "failed": tally.failed_requests,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
