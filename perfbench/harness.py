"""Running requests against the program and checking what comes back.

In-process requests go through the public API (``parse_operator``,
``parse_function``/``OpaqueFunction``, ``apply``); CLI requests are cold
``python -m complexorder eval`` processes.  Either way a request yields one
``Outcome``: the program's status, value and closed reference per point,
plus its wall time and CPU time.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import REL_TOL, Request

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_program() -> None:
    """Exit with code 2 unless the program's sources are in this checkout."""
    if not (SRC / "complexorder" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/complexorder", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    """What one request returned; ``points`` rows are (status, value, reference)."""

    points: list[tuple[str, complex | None, complex | None]] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    error: str = ""  # non-empty when the request itself failed


class Integrand:
    """The opaque integrands y cos(w y) and sin(w y), vanishing for y <= 0.
    ``calls`` counts evaluations exactly."""

    def __init__(self, form: str, omega: float):
        self.form, self.omega, self.calls = form, omega, 0

    def __call__(self, y: float) -> float:
        self.calls += 1
        if y <= 0.0:
            return 0.0
        if self.form == "ycos":
            return y * math.cos(self.omega * y)
        return math.sin(self.omega * y)


def prepare(req: Request):
    """Parsed operator and function for an in-process request (untimed)."""
    import complexorder as co

    expr = co.parse_operator(req.op, lower_limit=req.x0)
    if req.kind == "opaque":
        return expr, co.OpaqueFunction(Integrand(*req.opaque), lower_limit=0.0)
    return expr, co.parse_function(req.fn, lower_limit=req.x0)


def execute(req: Request, prepared) -> Outcome:
    """One timed ``apply`` call."""
    import complexorder as co

    expr, f = prepared
    cfg = co.QuadConfig(rel_tol=REL_TOL)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        results = co.apply(expr, f, list(req.xs), co.Method(req.method), cfg)
    except Exception as exc:  # a request that raises is a failed request
        return Outcome(wall_s=time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    out = Outcome(wall_s=time.perf_counter() - t0, cpu_s=time.process_time() - c0)
    out.points = [(r.status.value, r.value, r.reference) for r in results]
    if [r.x for r in results] != list(req.xs):
        out.error = "apply returned points other than those requested"
    return out


def _value(row: dict, re: str, im: str) -> complex | None:
    if row.get(re) in (None, "") or row.get(im) in (None, ""):
        return None
    return complex(float(row[re]), float(row[im]))


def parse_cli(req: Request, code: int, stdout: str) -> Outcome:
    """Check a CLI process's rows and exit code against the request."""
    out = Outcome()
    try:
        if req.fmt == "json":
            rows = json.loads(stdout)
        else:
            rows = list(csv.DictReader(io.StringIO(stdout)))
    except ValueError as exc:
        out.error = f"unparsable output ({exc}); exit code {code}"
        return out
    if [float(r["x"]) for r in rows] != list(req.xs):
        out.error = f"rows are not the requested points; exit code {code}"
        return out
    for row in rows:
        value = _value(row, "re", "im")
        if req.method == "closed":
            status = "ok" if value is not None else "domain_error"
            out.points.append((status, value, value))
        else:
            out.points.append((row["status"], value, _value(row, "ref_re", "ref_im")))
    statuses = {p[0] for p in out.points}
    expected = 2 if statuses & {"domain_error", "unsupported"} else 3 if "convergence_error" in statuses else 0
    if code != expected:
        out.error = f"exit code {code}, expected {expected} for statuses {sorted(statuses)}"
    return out


#: A child still running after this many seconds is killed (and fails).
CHILD_TIMEOUT_S = 60.0


def run_process(argv: list[str]) -> tuple[int, str, str, float, float, float]:
    """Run a child to completion: (exit code, stdout, stderr, wall s, CPU s,
    peak RSS MB), CPU and RSS from the child's own resource usage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        # stderr stays far below a pipe buffer (a traceback at most), so
        # reading stdout to the end first cannot deadlock.
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, stdout, stderr, wall, cpu, usage.ru_maxrss / 1024.0


def run_cli(req: Request) -> Outcome:
    """One cold CLI process, timed from spawn to exit."""
    code, stdout, stderr, wall, cpu, rss = run_process(
        [sys.executable, "-m", "complexorder", *req.cli_argv()]
    )
    out = parse_cli(req, code, stdout)
    out.wall_s, out.cpu_s, out.rss_mb = wall, cpu, rss
    if out.error and stderr.strip():
        out.error += f"; stderr: {stderr.strip()[-300:]}"
    return out


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

#: Seconds the speed probe takes at the reference machine speed: its typical
#: time on the 2-CPU sandbox the baseline was measured on.
PROBE_REFERENCE_S = 1.8e-3


class SpeedProbe:
    """A fixed task shaped like the program's work, timed between requests.

    Half of it is scalar complex arithmetic in Python, half a 128-point
    complex matrix-vector product through numpy's BLAS (with the same
    threads the program's coefficient transform uses).  On a host whose
    speed drifts with other tenants' load, timings are scaled by
    PROBE_REFERENCE_S over the probe's time around each request.
    """

    def __init__(self):
        import numpy as np

        theta = (np.arange(128) + 0.5) * (math.pi / 128)
        self._matrix = np.cos(np.outer(np.arange(128), theta))
        self._vector = np.exp(1j * theta)
        self.times: list[float] = []
        for _ in range(3):  # first calls start the BLAS threads
            self.run()
        self.times.clear()

    def run(self) -> None:
        import cmath

        t0 = time.perf_counter()
        acc = 0j
        for i in range(700):
            z = complex(1.0 + 1e-3 * i, 0.5)
            acc += cmath.exp(z * 0.25j) * abs(z) + math.log(1.0 + i)
        for _ in range(25):
            acc += (self._matrix @ self._vector)[0]
        self.times.append(time.perf_counter() - t0)

    def scale(self, index: int) -> float:
        """Factor for a request measured after probe ``index``: the reference
        time over the median of the five probes around it."""
        window = self.times[max(0, index - 2) : index + 3]
        return PROBE_REFERENCE_S / statistics.median(window)


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

STATUSES = ("ok", "convergence_error", "domain_error", "unsupported")


@dataclass
class Tally:
    """Point and request counts from checking outcomes against the oracle."""

    requests: int = 0
    failed_requests: int = 0
    points: int = 0
    passed: int = 0  # status ok and within rel_tol of the reference
    silent_inaccurate: int = 0  # status ok but outside rel_tol
    closed_mismatch: int = 0  # program's closed form outside rel_tol
    status: dict[str, int] = field(default_factory=lambda: dict.fromkeys(STATUSES, 0))
    errors: list[str] = field(default_factory=list)

    def add(self, req: Request, out: Outcome) -> None:
        import oracle

        self.requests += 1
        if out.error or len(out.points) != len(req.xs):
            self.failed_requests += 1
            self.errors.append(f"{req.op} on {req.fn if req.kind != 'opaque' else req.opaque}: "
                               f"{out.error or 'wrong number of points'}")
            return
        for (status, value, closed), (ref, scale) in zip(out.points, oracle.references(req)):
            self.points += 1
            self.status[status] = self.status.get(status, 0) + 1
            if closed is not None and not oracle.passes(closed, ref, scale, REL_TOL):
                self.closed_mismatch += 1
            if status != "ok":
                continue
            if value is not None and oracle.passes(value, ref, scale, REL_TOL):
                self.passed += 1
            else:
                self.silent_inaccurate += 1

    @property
    def correct(self) -> bool:
        """Every request returned a well-formed answer for every point, and
        every closed-form value the program gave matches the reference.
        Numeric accuracy is reported by ok_frac, not here."""
        return self.failed_requests == 0 and self.closed_mismatch == 0 and self.points > 0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its own
    getter (threadpoolctl is not assumed); None if it cannot be read."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "loadavg_before": os.getloadavg(),
    }
