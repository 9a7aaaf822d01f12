"""Fresh-process helpers that perfbench/run.py starts; not run by hand.

    child.py setup WORKLOAD                   import the program, warm up, exit
    child.py pass WORKLOAD SEED COUNT TRACED SPANS
        warm up, then run the first COUNT requests of the seed's stream, with
        spans when TRACED is 1 (written to SPANS); prints one JSON object
    child.py cli TRACED SPANS ARG...          one CLI run through cli.run(),
        with spans when TRACED is 1; prints one JSON object

Every pass starts from a fresh process so both the plain and the traced
pass meet the program's caches in the same state.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import harness
import workloads


def _warm_up(workload: str) -> None:
    if workload == "cli-cold":
        from complexorder import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(workloads.warmup_requests(workload)[0].cli_argv())
        return
    for req in workloads.warmup_requests(workload):
        harness.execute(req, harness.prepare(req))


def _save(tracer, path: str) -> None:
    import numpy as np

    np.savez(path, **tracer.arrays())


def _pass(workload: str, seed: int, count: int, traced: bool, spans_path: str) -> dict:
    import spans

    _warm_up(workload)
    stream = workloads.requests(workload, seed)
    reqs = [next(stream) for _ in range(count)]
    prepared = [harness.prepare(r) for r in reqs]
    tracer = spans.Tracer()
    outcomes = []
    with tracer if traced else contextlib.nullcontext():
        for i, (req, prep) in enumerate(zip(reqs, prepared)):
            tracer.current_request = i
            outcomes.append(harness.execute(req, prep))
    if traced:
        _save(tracer, spans_path)
    opaque = [(r, p) for r, p in zip(reqs, prepared) if r.kind == "opaque"]
    return {
        "wall_s": sum(o.wall_s for o in outcomes),
        "outcomes": [_encode(o) for o in outcomes],
        "integrand_calls": sum(p[1].fn.calls for _, p in opaque),
        "opaque_points": sum(len(r.xs) for r, _ in opaque),
    }


def _cli(traced: bool, spans_path: str, argv: list[str]) -> dict:
    import spans
    from complexorder import cli

    tracer = spans.Tracer()
    buffer = io.StringIO()
    with tracer if traced else contextlib.nullcontext():
        tracer.current_request = 0
        with contextlib.redirect_stdout(buffer):
            code = cli.run(argv)
    if traced:
        _save(tracer, spans_path)
    return {"code": code, "stdout": buffer.getvalue()}


def _encode(out: harness.Outcome) -> dict:
    def c(z):
        return None if z is None else [z.real, z.imag]

    return {
        "points": [[s, c(v), c(r)] for s, v, r in out.points],
        "wall_s": out.wall_s,
        "error": out.error,
    }


def decode(d: dict) -> harness.Outcome:
    def c(z):
        return None if z is None else complex(*z)

    return harness.Outcome(
        points=[(s, c(v), c(r)) for s, v, r in d["points"]], wall_s=d["wall_s"], error=d["error"]
    )


def main(argv: list[str]) -> int:
    harness.require_program()
    mode = argv[0]
    if mode == "setup":
        _warm_up(argv[1])
        return 0
    if mode == "pass":
        workload, seed, count, traced, spans_path = argv[1:6]
        result = _pass(workload, int(seed), int(count), traced == "1", spans_path)
    elif mode == "cli":
        result = _cli(argv[1] == "1", argv[2], argv[3:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
