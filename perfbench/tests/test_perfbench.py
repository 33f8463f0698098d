"""Self-tests of the benchmark: determinism, oracles that can fail, metric names.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from climix import cli_workload  # noqa: E402
from workloads import OracleError  # noqa: E402

NUMERIC = (workloads.EQUILIBRIUM, workloads.MODULAR, workloads.COCYCLE)


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# -- inputs ---------------------------------------------------------------------------

@pytest.mark.parametrize("wl", NUMERIC, ids=lambda w: w.name)
def test_same_seed_gives_identical_inputs(wl):
    first = [pickle.dumps(wl.generate(5, i)) for i in range(len(wl.slots))]
    again = [pickle.dumps(wl.generate(5, i)) for i in range(len(wl.slots))]
    other = [pickle.dumps(wl.generate(6, i)) for i in range(len(wl.slots))]
    assert first == again
    assert first != other


def test_same_seed_gives_identical_cli_files(tmp_path):
    runs = []
    for tag in ("a", "b"):
        work = tmp_path / tag
        work.mkdir()
        wl = cli_workload(str(work))
        ops = []
        for i in range(len(wl.slots)):
            kind, inp = wl.generate(5, i)
            argv = [a.replace(str(work), "<dir>") for a in inp["argv"]]
            ops.append((kind, argv, _snapshot(work)))
        runs.append(ops)
    assert runs[0] == runs[1]


# -- oracles can fail -------------------------------------------------------------------

def _two_level_input(beta=1.0):
    lam = np.array([0.0, 1.0])
    q = np.eye(2, dtype=complex)
    h = np.diag(lam).astype(complex)
    return {"dims": (2,), "blocks": [(lam, q, h)], "beta": beta,
            "element": [np.array([[0.3, 1.0], [0.5j, -0.2]])], "smooth_n": 2.0,
            "grid": beta + np.linspace(-0.5, 0.5, 7)}


def test_tracial_state_on_two_level_flow_is_rejected():
    inp = _two_level_input()
    out = workloads._eq_problem_run(inp)
    assert not out["wrong"].passed
    assert abs(out["wrong"].residual_exchange - (math.e - 1.0) / 2.0) < 1e-12
    workloads._eq_problem_check(inp, out)
    # the oracle that accepts the Gibbs state must reject the tracial one
    swapped = dict(out, good=out["wrong"])
    with pytest.raises(OracleError, match="rejects the Gibbs state"):
        workloads._eq_problem_check(inp, swapped)


def test_perturbed_cocycle_is_refused_and_oracle_notices():
    wl = workloads.COCYCLE
    i = next(i for i, (kind, _) in enumerate(wl.slots) if kind == "perturbed")
    kind, bad = wl.generate(3, i)
    out = workloads._coc_run(bad)
    assert "identity fails" in out["refused"]
    workloads._coc_check(bad, out)
    # the same grid presented as a coboundary must fail its oracle
    with pytest.raises(OracleError, match="refused"):
        workloads._coc_check(dict(bad, family="coboundary"), out)


def test_malformed_json_exits_2_and_oracle_notices(tmp_path):
    wl = cli_workload(str(tmp_path))
    mix = wl.make.__self__
    path = mix._write("broken.json", '{"block_dims": [2], ')
    inp = {"argv": ["gibbs", "--problem", path, "--beta", "1.0",
                    "--out", str(tmp_path / "o.json")], "code": 2, "out": None}
    out = mix.run(inp)
    assert out["code"] == 2
    mix.check("malformed", inp, out)
    with pytest.raises(OracleError, match="exit code 2, expected 0"):
        mix.check("malformed", dict(inp, code=0), out)


def test_every_round_passes_its_oracles(tmp_path):
    for wl in NUMERIC + (cli_workload(str(tmp_path)),):
        tally = worker.Tally()
        for i in range(len(wl.slots)):
            kind, inp = wl.generate(1, i)
            if wl.name == "cocycle" and inp["step"] < 2.0 ** -5:
                continue                 # K ≥ 64 grids: seconds each, same code path
            worker.run_op(wl, kind, inp, tally, i)
        assert tally.failed == 0, tally.failures


# -- tracing and statistics -------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    rec = tracing.Recorder()

    def child():
        time.sleep(0.03)

    def parent():
        time.sleep(0.02)
        wrapped_child()

    wrapped_child = rec.wrap(child, "kms.gibbs")
    rec.wrap(parent, "kms.verify_kms")()
    stats = rec.span_stats()
    calls, busy, self_s = stats["kms.verify_kms"]
    assert calls == 1 and busy >= 0.05
    assert abs(self_s - (busy - stats["kms.gibbs"][1])) < 1e-9
    # overlapping children (pool threads) are covered once, not twice
    rec.spans = [["cli.main", 0.0, 10.0, -1, 0, None],
                 ["kms.kms_simplex", 1.0, 4.0, 0, 0, None],
                 ["kms.kms_simplex", 3.0, 6.0, 0, 0, None]]
    assert rec.span_stats()["cli.main"][2] == pytest.approx(5.0)


def test_error_rate_bound():
    assert worker.error_rate_bound(0, 100) == pytest.approx(1 - 0.05 ** (1 / 100), rel=1e-9)
    assert worker.error_rate_bound(0, 200) < worker.error_rate_bound(0, 100)
    assert worker.error_rate_bound(5, 100) > 0.05
    assert worker.error_rate_bound(3, 3) == 1.0


def test_host_factor_scales_durations_down_and_rates_up():
    probe = worker.HostProbe()
    probe.samples = [worker.HOST_REF_S * f for f in (1.9, 2.0, 2.1)]
    assert probe.factor() == pytest.approx(2.0)
    timings = {m for m, unit in run.END_TO_END.items() if unit in ("s", "ms", "1/s")}
    assert set(run.HOST_POWER) == timings
    assert all(run.HOST_POWER[m] == (1 if run.END_TO_END[m] == "1/s" else -1) for m in timings)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100))
    assert worker.tail(values, 90.0)[0] == 90.0
    pct, _, beyond = worker.tail(values[:50], 90.0)
    assert pct == 80.0 and beyond >= 10


# -- metric names ---------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "modular",
                          "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["modular.commutant_gap.calls"] == layers["trace.ops"]
        assert layers["modular.commutant_gap.peak_mb"] > 0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cocycle",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_a_run_past_the_deadline_fails_without_a_result(monkeypatch, capsys):
    # the deadline stops the run instead of letting it report fewer ops
    monkeypatch.setattr(run, "DEADLINE_S", 0.0)
    with pytest.raises(SystemExit, match="deadline"):
        run.main(["--workload", "modular", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert capsys.readouterr().out == ""
