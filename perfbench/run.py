"""kmslab's benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it, ``context: {...}``, stamps the run with the source version,
the numeric stack, the thread settings, the seed and the op counts.

Set-up time is measured five times, in five fresh processes (four probes
and the measuring worker), and the median is reported. Every timing is
given at the reference machine's speed: the measuring worker times a fixed
reference kernel between its ops, and durations are divided by, and rates
multiplied by, the run's host factor (the kernel's median time over its
time on the reference machine). The context line keeps the raw values. See
README.md in this directory for the workloads and what each metric is
meant to catch.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("equilibrium", "modular", "cocycle", "cli_mix")
# Where a profile of git 83efe6e put the time, per workload: the layer share a
# traced run there must show for its spans to be attributing time right.
SANITY = {"cocycle": "cocycle.check_cocycle.op_share",
          "cli_mix": "cli.schema_validate.main_self_share"}
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB", "error_rate": "ratio"}
# how each timing scales with the host factor: durations divide, rates multiply
HOST_POWER = {"setup_s": -1, "ops_per_s": 1, "op_p50_ms": -1, "op_tail_ms": -1}
SETUP_PROBES = 4
DEADLINE_S = 175.0


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of ``src`` always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def worker(args, mode: str, started: float) -> dict:
    """Run one worker process; every worker of a run shares the run's deadline."""
    timeout = DEADLINE_S - (monotonic() - started)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {mode} worker did not finish within the {DEADLINE_S:.0f}-s "
                         "deadline") from None
    if proc.returncode != 0:
        raise SystemExit(f"error: {mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace: int):
    """Metric names from BENCHMARK.json, or None when the file is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = monotonic()

    if not (ROOT / "src" / "kmslab" / "__init__.py").is_file():
        print(f"error: no kmslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    setups = [worker(args, "setup", started)["setup_s"] for _ in range(SETUP_PROBES)]
    res = worker(args, "run", started)
    setups.append(res["setup_s"])

    if args.trace:
        sys.path.insert(0, str(HERE))
        import tracing

        units = tracing.layer_metric_units()
        values = res["layers"]
    else:
        units = END_TO_END
        raw = {name: res[name] for name in END_TO_END if name != "setup_s"}
        raw["setup_s"] = statistics.median(setups)
        values = {name: raw[name] * res["host_factor"] ** HOST_POWER.get(name, 0)
                  for name in raw}
    declared = declared_metrics(args.trace)
    if declared is not None and declared != units:
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared) ^ set(units))}", file=sys.stderr)
        return 3

    ctx = dict(source_identity(), **res["context"], workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, ops=res["ops"],
               attempted=res["attempted"], failed=res["failed"], setup_samples_s=setups)
    for key in ("rounds", "tail_pct", "tail_beyond", "wall_s", "busy_s", "host_factor",
                "host_probes"):
        if key in res:
            ctx[key] = res[key]
    if not args.trace:
        ctx["raw"] = raw
    if args.trace and args.workload in SANITY:
        share = values[SANITY[args.workload]]
        ctx["sanity"] = {SANITY[args.workload]: share, "majority": share > 0.5}
    if res["failures"]:
        ctx["failures"] = res["failures"]
    print("context: " + json.dumps(ctx, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
