"""One measured run of one workload, in a fresh process.

``--mode setup`` imports kmslab and runs one warm-up op of each op kind, and
prints the set-up time. ``--mode run`` does the same set-up, then drives the
workload in a closed loop with one client — the next op starts when the
previous one has returned and been checked — and prints one JSON line of
raw results, with the host factor that a reference kernel timed before
every op gives. With ``--trace 1`` it runs a fixed number of rounds untraced,
then the same ops again with every layer wrapped, and reports the per-layer
metrics and the difference in wall time; one more round with ``tracemalloc``
inside the peak spans gives the ``peak_mb`` metrics.

Run it through ``run.py``, which adds the repeated set-up probes, the
metric names, the scaling by the host factor and the deadline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The host's speed drifts by a third and more within minutes (other guests
# share its cores, caches and memory), and every timing drifts with it. A
# fixed kernel that runs no kmslab code is timed before every op: a Python
# loop over a dict, numpy on arrays that fit in cache, and numpy streaming
# arrays that do not, about equal shares, because the workloads lean on each
# in different measure. The run's host factor is the kernel's median time
# over HOST_REF_S, its time on the reference machine.
HOST_REF_S = 0.0100
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
CONFIDENCE = 0.95               # of the upper bound reported as error_rate


def import_kmslab() -> float:
    """Import kmslab and its CLI from this checkout's ``src``; return the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import kmslab
    import kmslab.cli  # noqa: F401
    took = perf_counter() - t0
    where = Path(kmslab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"error: imported kmslab from {where}, not from {src}")
    return took


def load_workload(name: str, workdir: Path):
    import workloads

    if name == "cli_mix":
        from climix import cli_workload

        workdir.mkdir(parents=True, exist_ok=True)
        return cli_workload(str(workdir))
    return {"equilibrium": workloads.EQUILIBRIUM, "modular": workloads.MODULAR,
            "cocycle": workloads.COCYCLE}[name]


class Tally:
    """Latencies and failures of a sequence of ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[dict] = []

    def add(self, latency: float, error, index: int, kind: str):
        self.latencies.append(latency)
        if error is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"op": index, "kind": kind,
                                      "error": f"{type(error).__name__}: {error}"[:300]})


def run_op(wl, kind, inp, tally, index, rec=None) -> float:
    """Run one op (timed) and its oracle (untimed); return the op's latency."""
    run, check = wl.kinds[kind]
    if rec is not None:
        rec.op = index
    error = None
    t0 = perf_counter()
    try:
        out = run(inp)
    except Exception as e:              # a raising op is a failed op, not a crashed run
        error = e
    latency = perf_counter() - t0
    if error is None:
        try:
            check(inp, out)
        except Exception as e:
            error = e
    tally.add(latency, error, index, kind)
    return latency


class HostProbe:
    """Times the reference kernel; one sample before each op."""

    def __init__(self):
        import numpy as np

        self.v = np.linspace(-3.0, 3.0, 1 << 16)
        self.m = np.add.outer(np.arange(32.0), np.arange(32.0)) / 32.0
        self.big = np.linspace(0.0, 1.0, 1 << 20)
        self.samples: list[float] = []

    def sample(self):
        import numpy as np

        t0 = perf_counter()
        table = {}
        for i in range(5000):
            table[str(i)] = [i * 0.5, i % 7]
        sum(x[0] for x in table.values() if x[1])
        for _ in range(3):
            np.sin(self.v) * self.v + np.cumsum(self.v)
            self.m @ self.m
        np.cumsum(self.big)
        self.samples.append(perf_counter() - t0)

    def factor(self) -> float:
        """How much slower than the reference machine the host ran."""
        return percentile(self.samples, 50.0) / HOST_REF_S


def drive(wl, seed, tally, first, stop, rec=None, probe=None) -> int:
    """Closed loop over ops ``first, first+1, …`` until ``stop(next index)``;
    ``probe`` times the reference kernel between ops (untimed)."""
    i = first
    while True:
        kind, inp = wl.generate(seed, i)
        if probe is not None:
            probe.sample()
        run_op(wl, kind, inp, tally, i, rec)
        i += 1
        if stop(i):
            return i - first


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of the sorted values (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, preferred: float):
    """The preferred percentile if at least 10 samples lie beyond it, else the next
    lower one on the ladder that has; returns (pct, value, samples beyond)."""
    for pct in [preferred] + [p for p in TAIL_LADDER if p < preferred]:
        value = percentile(values, pct)
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10:
            return pct, value, beyond
    return 50.0, percentile(values, 50.0), sum(1 for v in values if v > percentile(values, 50.0))


def _binom_cdf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0 if k < n else 1.0
    total = 0.0
    for i in range(k + 1):
        total += math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                          + i * math.log(p) + (n - i) * math.log1p(-p))
    return total


def error_rate_bound(failed: int, attempted: int) -> float:
    """One-sided Clopper–Pearson upper bound on the per-op failure probability."""
    if failed >= attempted:
        return 1.0
    alpha = 1.0 - CONFIDENCE
    lo, hi = failed / attempted, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _binom_cdf(failed, attempted, mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def blas_threads():
    """OpenBLAS's own thread count, read through its C API; None if unavailable."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def context() -> dict:
    import platform

    import numpy as np

    import kmslab.cli

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        pool = kmslab.cli._thread_cap()
    except ValueError as e:
        pool = f"invalid: {e}"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "KMSLAB_THREADS": os.environ.get("KMSLAB_THREADS"),
        "simplex_pool_workers": pool,
        "load": "closed loop, one client, one process",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    import_s = import_kmslab()
    outdir = ROOT / ".perfbench_run"
    workdir = outdir / f"cli-{os.getpid()}"
    try:
        wl = load_workload(args.workload, workdir)
        warm = Tally()
        warm_s = 0.0
        for i, (kind, inp) in enumerate(wl.warmup(args.seed)):
            warm_s += run_op(wl, kind, inp, warm, -1 - i)
        result = {"setup_s": import_s + warm_s, "failures": list(warm.failures)}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        result.update(measure(wl, args, outdir))
        result["failures"] = warm.failures + result["failures"]
        result["failed"] += warm.failed
        result["attempted"] += len(warm.latencies)
        result["error_rate"] = error_rate_bound(result["failed"], result["attempted"])
        result["context"] = dict(context(), mix=wl.mix)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args, outdir: Path) -> dict:
    round_len = len(wl.slots)
    if not args.trace:
        tally, probe = Tally(), HostProbe()
        start = perf_counter()
        # --seconds fixes the work: whole rounds, as many as take that long on the
        # reference machine, so every run times the same ops and error_rate only
        # moves when ops fail; a run too slow to finish hits run.py's deadline
        ops_wanted = max(1, round(args.seconds / wl.round_s)) * round_len
        ops = drive(wl, args.seed, tally, 0, lambda i: i >= ops_wanted, probe=probe)
        pct, tail_s, beyond = tail(tally.latencies, wl.tail_pct)
        ok = ops - tally.failed
        return {"ops": ops, "attempted": ops, "failed": tally.failed,
                "failures": tally.failures, "rounds": ops / round_len,
                "wall_s": perf_counter() - start, "busy_s": sum(tally.latencies),
                "ops_per_s": ok / sum(tally.latencies),
                "op_p50_ms": 1e3 * percentile(tally.latencies, 50.0),
                "op_tail_ms": 1e3 * tail_s, "tail_pct": pct, "tail_beyond": beyond,
                "host_factor": probe.factor(), "host_probes": len(probe.samples)}

    import tracing

    ops = wl.trace_rounds * round_len
    plain, traced = Tally(), Tally()
    t0 = perf_counter()
    drive(wl, args.seed, plain, 0, lambda i: i >= ops)
    untraced_wall = perf_counter() - t0
    rec = tracing.Recorder()
    tracing.install(rec)
    t0 = perf_counter()
    drive(wl, args.seed, traced, 0, lambda i: i >= ops, rec)
    traced_wall = perf_counter() - t0
    layers = tracing.layer_metrics(rec, sum(traced.latencies), untraced_wall, traced_wall, ops)
    outdir.mkdir(exist_ok=True)
    rec.write(outdir / f"spans-{wl.name}-seed{args.seed}.jsonl")
    # tracemalloc slows every allocation, so peaks come from a pass of their own
    rec.track_peaks = True
    drive(wl, args.seed, traced, 0, lambda i: i >= round_len, rec)
    layers.update(tracing.peak_metrics(rec))
    failed = plain.failed + traced.failed
    return {"ops": ops, "attempted": 2 * ops + round_len, "failed": failed,
            "failures": plain.failures + traced.failures, "layers": layers}


if __name__ == "__main__":
    sys.exit(main())
