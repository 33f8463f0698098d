"""Command-line surface: exit codes, schemas, determinism, diagnostics."""

import csv
import dataclasses
import functools
import io
import json
import math
import subprocess
import sys
import threading
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmslab import bundle, cli, cocycle, kms
from kmslab.algebra import InternalFault
from kmslab.cli import main
from kmslab.flow import QuadratureError
from kmslab.kms import kms_simplex

TWO_LEVEL = {"block_dims": [2], "generator": [[[0.0, 0.0], [0.0, 1.0]]], "beta": 1.0}
Q6_DG = {
    "rho": [[1, 0, 0, 0, 0, 0],
            [0, "1/7", 0, 0, 0, 0],
            [0, 0, "1/7", 0, 0, 0],
            [0, 0, 0, "1/3", 0, 0],
            [0, 0, 0, 0, "1/3", 0],
            [0, 0, 0, 0, 0, "1/3"]],
    "unit": [1, 1, 1, 1, 1, 1],
}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def two_level(tmp_path):
    return _write(tmp_path / "problem.json", TWO_LEVEL)


def test_version_string():
    out = subprocess.run([sys.executable, "-m", "kmslab.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "0.1.0" in out.stdout and "schemas v1" in out.stdout


def test_gibbs_output(two_level, tmp_path):
    out = tmp_path / "gibbs.json"
    assert main(["gibbs", "--problem", two_level, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "gibbs"
    assert doc["schema_version"] == "1"
    d = np.array([[complex(re, im) for re, im in row] for row in doc["blocks"][0]])
    z = 1.0 + math.exp(-1.0)
    assert abs(d[0, 0] - 1.0 / z) < 1e-12
    assert abs(d[1, 1] - math.exp(-1.0) / z) < 1e-12


def test_verify_gibbs_passes(two_level, tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--problem", two_level, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["max_residual"] <= 1e-9
    assert "pass" in capsys.readouterr().out.lower()


def test_verify_trace_fails_with_exact_defect(two_level, tmp_path, capsys):
    state = _write(tmp_path / "trace.json", {"blocks": [[[0.5, 0.0], [0.0, 0.5]]]})
    out = tmp_path / "verify.json"
    code = main(["verify", "--problem", two_level, "--state", state, "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    assert abs(doc["max_residual"] - (math.e - 1.0) / 2.0) < 1e-9
    assert "fail" in capsys.readouterr().out.lower()


def test_verify_refuses_beta_beyond_exp_cap(tmp_path, capsys):
    prob = _write(tmp_path / "p.json",
                  {"block_dims": [2], "generator": [[[0.0, 0.0], [0.0, 10.0]]]})
    state = _write(tmp_path / "tau.json", {"blocks": [[[0.5, 0.0], [0.0, 0.5]]]})
    out = tmp_path / "verify.json"
    code = main(["verify", "--problem", prob, "--state", state, "--beta", "100",
                 "--out", str(out)])
    assert code == 2
    assert "exceeds 700" in capsys.readouterr().err
    assert not out.exists()


def test_verify_passes_a_gibbs_state_past_half_the_strip_cap(tmp_path, capsys):
    """|β|/2 = 75 is past flow.IM_CAP, which neither verify route reads any more."""
    prob = _write(tmp_path / "p.json", {"block_dims": [2], "beta": 150.0,
                                        "generator": [[[0.0, 0.0], [0.0, 1.0]]]})
    out = tmp_path / "verify.json"
    assert main(["verify", "--problem", prob, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True and doc["max_residual"] <= 1e-12
    assert "pass" in capsys.readouterr().out.lower()


def test_verify_refuses_a_non_finite_state(two_level, tmp_path, capsys):
    state = tmp_path / "nan.json"
    state.write_text('{"blocks": [[[NaN, 0.0], [0.0, 0.5]]]}')
    out = tmp_path / "verify.json"
    code = main(["verify", "--problem", two_level, "--state", str(state), "--out", str(out)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_verify_seeds_with_and_without_kept_normals(two_level, tmp_path, monkeypatch, capsys):
    """A cold and a warm kept prefix of route two's normals write the same bytes, and
    a negative seed is refused as bad input, as default_rng refuses it."""
    monkeypatch.setattr(kms, "_normal_prefix", None)
    outs = [tmp_path / f"v{i}.json" for i in range(2)]
    for out in outs:
        assert main(["verify", "--problem", two_level, "--seed", "3", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert kms._normal_prefix[0] == 3
    capsys.readouterr()
    out = tmp_path / "bad.json"
    assert main(["verify", "--problem", two_level, "--seed=-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "non-negative" in err[0]
    assert not out.exists()


def test_verify_refuses_a_non_finite_beta(tmp_path, capsys):
    """It used to run, fail with NaN residuals (exit 1) and write bare NaN tokens."""
    prob = _write(tmp_path / "p.json",
                  {"block_dims": [2], "generator": [[[0.0, 0.0], [0.0, 10.0]]]})
    state = _write(tmp_path / "tau.json", {"blocks": [[[0.5, 0.0], [0.0, 0.5]]]})
    out = tmp_path / "verify.json"
    code = main(["verify", "--problem", prob, "--state", state, "--beta", "nan",
                 "--out", str(out)])
    assert code == 2
    assert "--beta must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,diagnostic", [
    (["gibbs", "--beta", "nan"], "--beta must be finite, got nan"),
    (["gibbs", "--beta=-inf"], "--beta must be finite, got -inf"),
    (["simplex", "--beta-range=nan:1:5"], "--beta-range needs finite bounds"),
    (["simplex", "--beta-range=0:nan:5"], "--beta-range needs finite bounds"),
    (["simplex", "--beta-range=inf:1:5"], "--beta-range needs finite bounds"),
    (["simplex", "--beta-range=-1e308:1e308:5"], "--beta-range needs finite bounds"),
])
def test_non_finite_beta_flags_are_input_errors(two_level, tmp_path, capsys, argv, diagnostic):
    out = tmp_path / "out"
    code = main([*argv, "--problem", two_level, "--out", str(out)])
    assert code == 2
    assert diagnostic in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_beta_field_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text('{"block_dims": [2], "generator": [[[0, 0], [0, 1]]], "beta": NaN}')
    out = tmp_path / "gibbs.json"
    assert main(["gibbs", "--problem", str(path), "--out", str(out)]) == 2
    assert f"{path}: field beta must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["nan", "-inf"])
def test_matroid_refuses_a_non_finite_beta(tmp_path, capsys, beta):
    """It used to give the verdict "unbounded" (exit 0) and write a bare NaN."""
    fam = _write(tmp_path / "fam.json", {"kind": "seven_adic"})
    out = tmp_path / "m.json"
    code = main(["matroid", "--family", fam, f"--beta={beta}", "--out", str(out)])
    assert code == 2
    assert f"--beta must be finite, got {beta}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--rho", "nan"), ("--rho", "-inf"),
                                        ("--level", "nan"), ("--level", "inf")])
def test_cuntz_and_point_bundle_refuse_non_finite_flags(tmp_path, capsys, flag, value):
    """They used to exit 0 and write a bare NaN (`gauge_beta`, `level`)."""
    pts = _write(tmp_path / "pts.json", {"points": [{"label": "a", "level": 0.0}]})
    out = tmp_path / "o.json"
    argv = (["cuntz", "--m", "2", "--a", "1", "--b", "1"] if flag == "--rho"
            else ["point-bundle", "--points", pts])
    assert main(argv + [f"{flag}={value}", "--out", str(out)]) == 2
    assert f"{flag} must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["verify", "modular", "measure", "cocycle-check",
                                     "cocycle-trivialize"])
def test_non_finite_tol_is_an_input_error(two_level, tmp_path, capsys, command, value):
    """A NaN bound used to fail every check (exit 1) and ∞ pass every one, and
    `verify` wrote the bound as a bare NaN or Infinity."""
    out = tmp_path / "o.json"
    argv = {
        "verify": ["verify", "--problem", two_level, "--out", str(out)],
        "modular": ["modular", "--problem", two_level, "--out", str(out)],
        "measure": ["measure", "--out", str(out), "--measure",
                    _write(tmp_path / "mu.json", {"lam": 2.0, "beta": -1.0, "kind": "density"})],
        "cocycle-check": ["cocycle", "check", "--in", _grid_file(tmp_path), "--report", str(out)],
        "cocycle-trivialize": ["cocycle", "trivialize", "--in", _grid_file(tmp_path),
                               "--report", str(out)],
    }[command]
    assert main([*argv, f"--tol={value}"]) == 2
    assert capsys.readouterr().err == f"error: --tol must be finite, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("terms", ["0", "-3"])
def test_matroid_refuses_a_term_count_below_one(tmp_path, capsys, terms):
    """It used to exit 0 and write the count as given, with an empty product."""
    fam = _write(tmp_path / "fam.json", {"kind": "seven_adic"})
    out = tmp_path / "m.json"
    code = main(["matroid", "--family", fam, "--beta", "2", f"--terms={terms}",
                 "--out", str(out)])
    assert code == 2
    assert f"--terms must be at least 1, got {terms}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["matroid", "--family", fam, "--beta", "2", "--terms=1", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["factor-type", "gamma"])
def test_itpfi_commands_refuse_a_non_finite_beta_field(tmp_path, capsys, command):
    """They used to exit 0 and write a bare NaN (`lambda_value`, `generator`)."""
    path = tmp_path / "site.json"
    path.write_text('{"site_generator": [[0, 0], [0, 0.693]], "beta": NaN}')
    out = tmp_path / "o.json"
    assert main([command, "--itpfi", str(path), "--out", str(out)]) == 2
    assert f"{path}: field beta must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,generator,beta,message", [
    ("factor-type", [[0, 0], [0, 1]], 1000, "|β|κ = 1000 exceeds 709.783"),
    ("factor-type", [[0, 0], [0, 1]], 745, "|β|κ = 745 exceeds 709.783"),
    ("gamma", [[0.5, 0], [0, 1.7e308]], 1e9, "|β|κ = 1e+09·1.7e+308 is beyond the float range"),
    ("factor-type", [[-1.7e308, 0], [0, 1.7e308]], 1,
     "the eigenvalue gap 1.7e+308 − (-1.7e+308) is beyond the float range"),
    ("gamma", [[-1.7e308, 0], [0, 1.7e308]], 1,
     "the eigenvalue gap 1.7e+308 − (-1.7e+308) is beyond the float range"),
], ids=["lambda-zero", "lambda-subnormal", "generator-inf", "gap-overflow", "gamma-gap-overflow"])
def test_itpfi_commands_refuse_results_past_the_float_range(tmp_path, capsys, command,
                                                           generator, beta, message):
    """These used to exit 0 with λ = 0 or 4.9e-324, write a bare Infinity, or leak a
    numpy overflow warning before a NaN conversion error."""
    itpfi = _write(tmp_path / "site.json", {"site_generator": generator, "beta": beta})
    out = tmp_path / "o.json"
    assert main([command, "--itpfi", itpfi, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


PROBLEM_TEXT = '{"block_dims": [2], "generator": [[[0, 0], [0, %s]]], "beta": 1.0}'
ELEMENT_TEXT = '{"blocks": [[[0, 1], [%s, 0]]]}'
ITPFI_TEXT = '{"site_generator": [[0, 0], [0, %s]], "beta": 1.0}'


@pytest.mark.parametrize("command,entry,field", [
    ("gibbs", "NaN", "generator/0/1/1"),
    ("verify", "NaN", "generator/0/1/1"),
    ("simplex", "NaN", "generator/0/1/1"),
    ("modular", "NaN", "generator/0/1/1"),
    ("gibbs", "Infinity", "generator/0/1/1"),
    ("fejer", "NaN", "blocks/0/1/0"),
    ("decompose", "NaN", "blocks/0/1/0"),
    ("factor-type", "NaN", "site_generator/1/1"),
    ("gamma", "NaN", "site_generator/1/1"),
], ids=["gibbs", "verify", "simplex", "modular", "gibbs-inf", "fejer", "decompose",
        "factor-type", "gamma"])
def test_commands_refuse_non_finite_matrix_entries_by_name(two_level, tmp_path, capsys,
                                                           command, entry, field):
    """These used to exit 3 ("LinAlgError: SVD did not converge" on a NaN generator, and
    fejer on a NaN element), exit 2 as "generator must be self-adjoint" after a numpy
    RuntimeWarning (an ∞ generator), or exit 0: decompose wrote nan rows, and
    factor-type and gamma reported trivial_flow and zero."""
    out = tmp_path / "o.out"
    if field.startswith("site_generator"):
        path = tmp_path / "site.json"
        path.write_text(ITPFI_TEXT % entry)
        argv = [command, "--itpfi", str(path)]
    elif field.startswith("blocks"):
        path = tmp_path / "e.json"
        path.write_text(ELEMENT_TEXT % entry)
        argv = [command, "--problem", two_level, "--element", str(path)]
        argv += ["--order", "3"] if command == "fejer" else []
    else:
        path = tmp_path / "p.json"
        path.write_text(PROBLEM_TEXT % entry)
        argv = [command, "--problem", str(path)]
    assert main(argv + ["--out", str(out)]) == 2
    value = "nan" if entry == "NaN" else "inf"
    assert capsys.readouterr().err == f"error: {path}: field {field}: non-finite entry {value}\n"
    assert not out.exists()


BIG = 10 ** 400        # an integer that no float holds
NAN = math.nan
SITE = [[0, 0], [0, 0.693]]


@pytest.mark.parametrize("command,doc,field,refusal", [
    ("gibbs", {"block_dims": [1], "generator": [[[0]]], "beta": BIG}, "beta", "beyond"),
    ("gibbs", {"block_dims": [2], "generator": [[[0, 0], [0, BIG]]], "beta": 1},
     "generator/0/1/1", "beyond"),
    ("factor-type", {"site_generator": SITE, "beta": BIG}, "beta", "beyond"),
    ("factor-type", {"site_generator": [[0, 0], [0, BIG]], "beta": 1}, "site_generator/1/1",
     "beyond"),
    ("gamma", {"site_generator": SITE, "beta": BIG}, "beta", "beyond"),
    ("gamma", {"site_generator": [[0, 0], [0, [BIG, 0]]], "beta": 1},
     "site_generator/1/1/0", "beyond"),
    ("measure", {"lam": BIG, "beta": -1, "kind": "density"}, "lam", "beyond"),
    ("measure", {"lam": 2, "beta": -1, "kind": "atomic", "window": BIG}, "window", "beyond"),
    ("point-bundle", {"points": [{"label": "a", "level": BIG}]}, "points/0/level", "beyond"),
    ("window", {"kind": "power", "r": BIG}, "r", "beyond"),
    ("cocycle", {"step": 1, "half_range": 1, "values": [[0, 0, 0], [0, BIG, 0], [0, 0, 0]]},
     "values/1/1", "beyond"),
    ("bundle", {"rho": [[BIG]], "unit": [1]}, "rho/0/0", "beyond"),
    ("bundle", {"rho": [[2]], "unit": [math.inf]}, "unit/0", "inf"),
    ("measure", {"lam": 2, "beta": -1, "kind": "atomic", "x": NAN}, "x", "nan"),
    ("measure", {"lam": 2, "beta": NAN, "kind": "atomic"}, "beta", "nan"),
    ("measure", {"lam": NAN, "beta": -1, "kind": "density"}, "lam", "nan"),
    ("window", {"kind": "power", "r": NAN}, "r", "nan"),
    ("window", {"kind": "negated", "inner": {"kind": "explicit_prefix", "values": [1, NAN]}},
     "inner/values/1", "nan"),
    ("point-bundle", {"points": [{"label": "a", "level": 0}, {"label": "b", "level": NAN}]},
     "points/1/level", "nan"),
    ("bundle", {"rho": [[NAN]], "unit": [1]}, "rho/0/0", "nan"),
], ids=["gibbs-beta", "gibbs-generator", "factor-type-beta", "factor-type-site",
        "gamma-beta", "gamma-site-pair", "measure-lam", "measure-window", "point-level",
        "window-r", "cocycle-values", "bundle-rho", "bundle-unit-inf", "measure-x-nan",
        "measure-beta-nan", "measure-lam-nan", "window-r-nan", "window-values-nan",
        "point-level-nan", "bundle-rho-nan"])
def test_document_numbers_no_float_holds_are_refused_by_field(tmp_path, capsys, command, doc,
                                                              field, refusal):
    """A number past the float range used to exit 3 ("internal fault: OverflowError"), as
    did `"unit": [Infinity]`. NaN ran on: `measure` passed (exit 0) at an atomic x or β of
    NaN and refused λ = NaN without naming it, `window` wrote `"lower": NaN`, a point at
    level NaN joined no level set, and `"rho": [[NaN]]` was refused naming no file."""
    path = _write(tmp_path / "in.json", doc)
    out = tmp_path / "o.out"
    flag = {"gibbs": "--problem", "factor-type": "--itpfi", "gamma": "--itpfi",
            "measure": "--measure", "point-bundle": "--points", "window": "--family",
            "bundle": "--dg"}
    argv = (["cocycle", "check", "--in", path, "--report", str(out)] if command == "cocycle"
            else [command, flag[command], path, "--out", str(out)])
    argv += ["--level", "0"] if command == "point-bundle" else []
    assert main(argv) == 2
    tail = "is beyond the float range" if refusal == "beyond" else f"must be finite, got {refusal}"
    assert capsys.readouterr().err == f"error: {path}: field {field} {tail}\n"
    assert not out.exists()


def test_cuntz_refuses_a_gauge_beta_past_the_float_range(tmp_path, capsys):
    """β = log m / ρ overflows at ρ = 1e-320; it used to exit 0 writing `"gauge_beta":
    Infinity`."""
    out = tmp_path / "c.json"
    assert main(["cuntz", "--m", "2", "--a", "1", "--b", "1", "--rho", "1e-320",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: --rho: β = log 2 / ρ at ρ = 1e-320 is beyond the float range\n"
    assert not out.exists()


@pytest.mark.parametrize("generator,message", [
    ([[[0, 0], [0]]], "field generator/0/1: row has 1 entries, row 0 has 2"),
    ([[[0, 0, 0], [0, 0, 0]]], "field generator/0: matrix must be square, got 2×3"),
], ids=["ragged", "non-square"])
def test_gibbs_refuses_a_malformed_generator_by_name(tmp_path, capsys, generator, message):
    """These used to exit 2 with numpy's "inhomogeneous shape" message, or with "matrix
    must be square, got 2×3", neither naming the file or the field."""
    path = _write(tmp_path / "p.json", {"block_dims": [2], "generator": generator, "beta": 1.0})
    out = tmp_path / "g.json"
    assert main(["gibbs", "--problem", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_simplex_single_beta(tmp_path):
    prob = _write(tmp_path / "p.json",
                  {"block_dims": [2, 3],
                   "generator": [[[0.0, 0.0], [0.0, 1.0]],
                                 [[0.5, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 2.5]]]})
    out = tmp_path / "simplex.json"
    assert main(["simplex", "--problem", prob, "--beta", "1.0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dimension"] == 1
    assert len(doc["vertices"]) == 2


def test_simplex_sweep_is_half_open(two_level, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["simplex", "--problem", two_level,
                 "--beta-range=0:1:4", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].split(",")[0] == "beta"
    betas = [float(r.split(",")[0]) for r in rows[1:]]
    assert betas == [0.0, 0.25, 0.5, 0.75]     # 1.0 excluded


def test_empty_sweep_is_an_input_error(two_level, tmp_path, capsys):
    code = main(["simplex", "--problem", two_level,
                 "--beta-range=0:1:0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "step" in capsys.readouterr().err


def test_sweep_step_cap(two_level, tmp_path, capsys, monkeypatch):
    """--beta-range takes MAX_SWEEP_STEPS steps and refuses one more before any fiber runs."""
    cap = cli.MAX_SWEEP_STEPS
    betas = cli._beta_range(f"0:1:{cap}")
    assert len(betas) == cap and betas[0] == 0.0 and betas[-1] < 1.0
    swept = []
    monkeypatch.setattr(cli, "kms_simplex", lambda flow, beta: swept.append(beta))
    out = tmp_path / "x.csv"
    code = main(["simplex", "--problem", two_level, f"--beta-range=0:1:{cap + 1}",
                 "--out", str(out)])
    assert code == 2
    assert f"cap {cap}" in capsys.readouterr().err
    assert swept == [] and not out.exists()


def _reference_cmd_simplex_sweep(args) -> int:
    """`simplex --beta-range` as it was before the sweep was batched, verbatim: one
    kms_simplex per β on a thread pool, the rows sorted afterwards."""
    alg, flow, beta_file = cli._problem(args.problem)
    betas = cli._beta_range(args.beta_range)

    def fiber(b):
        s = kms_simplex(flow, float(b))
        return float(b), s.dimension, len(s.vertices)

    with ThreadPoolExecutor(max_workers=cli._thread_cap()) as pool:
        rows = sorted(pool.map(fiber, betas))
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["beta", "dimension", "vertex_count"])
        w.writerows(rows)
    if args.plot:
        cli.emit_plot(args.plot, [r[0] for r in rows],
                      {"dimension": [r[1] for r in rows],
                       "vertex_count": [r[2] for r in rows]})
    return 0


def _hermitian_problem(path, dims, seed, degenerate=False):
    rng = np.random.default_rng(seed)
    blocks = []
    for n in dims:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = 0.7 * np.eye(n) if degenerate else (a + a.conj().T) / 2
        blocks.append([[[float(z.real), float(z.imag)] for z in row] for row in h])
    return _write(path, {"block_dims": list(dims), "generator": blocks})


def _sweep_both_routes(monkeypatch, capsys, tmp_path, prob, beta_range):
    """Exit code, stderr and output bytes of the sweep by the batched and the
    reference route."""
    outcomes = []
    for tag, cmd in (("new", cli._cmd_simplex), ("ref", _reference_cmd_simplex_sweep)):
        monkeypatch.setattr(cli, "_cmd_simplex", cmd)
        out, plot = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.svg"
        code = main(["simplex", "--problem", prob, f"--beta-range={beta_range}",
                     "--plot", str(plot), "--out", str(out)])
        files = [p.read_bytes() if p.exists() else None for p in (out, plot)]
        outcomes.append((code, capsys.readouterr(), files))
    return outcomes


@pytest.mark.parametrize("beta_range", ["-1:2:13", "2:-1:7", "0.5:3:1", "-0:-1:4"])
@pytest.mark.parametrize("dims,degenerate", [((2,), False), ((2, 3), False), ((1, 2, 1), False),
                                             ((2, 1, 3, 1), False), ((2, 2), True)])
def test_sweep_matches_the_thread_pool_route(monkeypatch, capsys, tmp_path, dims, degenerate,
                                             beta_range):
    prob = _hermitian_problem(tmp_path / "p.json", dims, len(dims), degenerate)
    new, ref = _sweep_both_routes(monkeypatch, capsys, tmp_path, prob, beta_range)
    assert new == ref
    code, _, (table, _) = new
    betas = [float(row.split(b",")[0]) for row in table.splitlines()[1:]]
    assert code == 0 and betas == sorted(betas)


@pytest.mark.parametrize("beta_range", ["60:80:10", "80:60:10", "-60:-80:10"])
def test_sweep_refuses_past_the_cap_like_the_thread_pool_route(monkeypatch, capsys, tmp_path,
                                                               beta_range):
    """Spread 10: the sweeps reach |β| = 70 partway; the first β past it is refused."""
    prob = _write(tmp_path / "p.json", {"block_dims": [2, 1],
                                        "generator": [[[0.0, 0.0], [0.0, 10.0]], [[4.0]]]})
    new, ref = _sweep_both_routes(monkeypatch, capsys, tmp_path, prob, beta_range)
    assert new == ref
    code, streams, files = new
    assert code == 2 and "exceeds 700" in streams.err and files == [None, None]


def test_sweep_mass_test_fires_like_the_thread_pool_route(monkeypatch, capsys, tmp_path):
    """Block 1's eigenvector columns scaled by √1.25, which both routes read: the batched
    sweep in its column norms, the reference in the blocks it builds."""
    prob = _hermitian_problem(tmp_path / "p.json", (2, 3), 7)
    real = cli._problem

    def leaky(path):
        alg, flow, beta = real(path)
        flow.eigenvectors[1] = flow.eigenvectors[1] * math.sqrt(1.25)
        return alg, flow, beta

    monkeypatch.setattr(cli, "_problem", leaky)
    new, ref = _sweep_both_routes(monkeypatch, capsys, tmp_path, prob, "0:1:4")
    assert new == ref
    code, streams, _ = new
    assert code == 2 and "not normalized (mass 1.25)" in streams.err


@pytest.mark.parametrize("beta_range", ["-3:2:7", "2:-3:7", "-0:-1:4", "1e-300:-1e-300:6",
                                        "-5e-324:5e-324:3", "1e300:-1e300:5", "-1e300:1e300:4"])
def test_sweep_table_bytes_equal_the_csv_writers(tmp_path, beta_range):
    """The rows joined by hand are the bytes csv.writer wrote for them, at negative,
    tiny (subnormal) and large β, in both directions; spread 0 admits every finite β."""
    prob = _hermitian_problem(tmp_path / "p.json", (2, 1), 3, degenerate=True)
    out = tmp_path / "s.csv"
    assert main(["simplex", "--problem", prob, f"--beta-range={beta_range}",
                 "--out", str(out)]) == 0
    betas = cli._beta_range(beta_range)
    rows = sorted(zip(betas.tolist(), *kms.simplex_sweep(cli._problem(prob)[1], betas).T.tolist()))
    want = io.StringIO()
    w = csv.writer(want, lineterminator="\n")
    w.writerow(["beta", "dimension", "vertex_count"])
    w.writerows(rows)
    assert out.read_bytes() == want.getvalue().encode()


def test_sweep_starts_no_thread(two_level, tmp_path, monkeypatch):
    def refuse(thread):
        raise AssertionError(f"the sweep started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["simplex", "--problem", two_level, "--beta-range=-1:2:200",
                 "--plot", str(tmp_path / "s.svg"), "--out", str(tmp_path / "s.csv")]) == 0


def test_longest_sweep_memory(tmp_path):
    """MAX_SWEEP_STEPS steps at block dims (16, 16): the stacks go chunk by chunk, so
    the peak is the rows, not one simplex per β."""
    prob = _hermitian_problem(tmp_path / "p.json", (16, 16), 16)
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        assert main(["simplex", "--problem", prob,
                     f"--beta-range=-1:1:{cli.MAX_SWEEP_STEPS}", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20
    assert out.read_text().count("\n") == cli.MAX_SWEEP_STEPS + 1


def test_modular_routes_and_theorems(two_level, tmp_path):
    out = tmp_path / "modular.json"
    assert main(["modular", "--problem", two_level, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["route_gap"] <= 1e-9
    assert doc["commutant_gap"] <= 1e-8
    assert doc["center_dimension"] == 1


def test_modular_tol_bounds_the_commutant_gap(two_level, tmp_path, monkeypatch):
    """--tol governs the commutant gap as it governs the flow residual and the route gap."""
    monkeypatch.setattr(cli, "commutant_gap", lambda g, md: (g.dim, g.dim, 1e-9))
    out = tmp_path / "modular.json"
    assert main(["modular", "--problem", two_level, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["flow_residual"] < 1e-12 and doc["route_gap"] < 1e-12
    assert doc["commutant_gap"] == 1e-9
    assert main(["modular", "--problem", two_level, "--tol", "1e-10", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False


def test_modular_fails_when_j_pi_j_and_pi_differ_in_dimension(two_level, tmp_path,
                                                              monkeypatch, capsys):
    """As in verify_commutant_theorem, dim Jπ(A)J = dim π(A) is part of the verdict: a
    gap within --tol does not pass a commutant of the wrong dimension."""
    monkeypatch.setattr(cli, "commutant_gap", lambda g, md: (g.dim, g.dim - 1, 1.0))
    out = tmp_path / "modular.json"
    assert main(["modular", "--problem", two_level, "--tol", "1", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False
    assert capsys.readouterr().out.startswith("[FAIL] modular:")


def test_fejer_weights(two_level, tmp_path):
    elem = _write(tmp_path / "e.json", {"blocks": [[[0.0, 1.0], [0.0, 0.0]]]})
    out = tmp_path / "fejer.json"
    assert main(["fejer", "--problem", two_level, "--element", elem,
                 "--order", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    m = np.array([[complex(re, im) for re, im in row] for row in doc["blocks"][0]])
    assert abs(m[0, 1] - 0.75) < 1e-12
    assert doc["norm_mean"] <= doc["norm_input"] + 1e-12


def test_decompose_csv(two_level, tmp_path):
    elem = _write(tmp_path / "e.json",
                  {"blocks": [[[1.0, 2.0], [0.5, -1.0]]]})
    out = tmp_path / "deg.csv"
    assert main(["decompose", "--problem", two_level, "--element", elem,
                 "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    degs = [int(r[0]) for r in rows]
    assert degs == [-1, 0, 1]
    # e01 lowers the energy by 1, e10 raises it
    assert abs(float(rows[0][1]) - 2.0) < 1e-12
    assert abs(float(rows[2][1]) - 0.5) < 1e-12


def test_decompose_and_fejer_read_a_near_copy_as_one_level(tmp_path):
    """On diag(−2, −1, −1 + 1e−9) the two upper eigenvalues are one level, so the flow
    has period 2π; both commands used to exit 2 with "flow is aperiodic"."""
    prob = _write(tmp_path / "p.json", {"block_dims": [3], "generator": [
        [[-2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0 + 1e-9]]]})
    a = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    elem = _write(tmp_path / "e.json", {"blocks": [a]})
    out = tmp_path / "deg.csv"
    assert main(["decompose", "--problem", prob, "--element", elem, "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    want = {-1: 2 ** 2 + 3 ** 2, 0: 1 + 5 ** 2 + 6 ** 2 + 8 ** 2 + 9 ** 2, 1: 4 ** 2 + 7 ** 2}
    assert [int(r[0]) for r in rows] == sorted(want)
    for k, norm in rows:
        assert abs(float(norm) - math.sqrt(want[int(k)])) < 1e-12
    out = tmp_path / "fejer.json"
    assert main(["fejer", "--problem", prob, "--element", elem, "--order", "1",
                 "--out", str(out)]) == 0
    m = np.array([[complex(re, im) for re, im in row]
                  for row in json.loads(out.read_text())["blocks"][0]])
    weights = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]])
    assert np.max(np.abs(m - weights * np.array(a))) < 1e-12


def test_factor_type_and_gamma(tmp_path):
    itpfi = _write(tmp_path / "site.json",
                   {"site_generator": [[0.0, 0.0], [0.0, math.log(2.0)]], "beta": 1.0})
    out = tmp_path / "ft.json"
    assert main(["factor-type", "--itpfi", itpfi, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tag"] == "III_lambda"
    assert abs(doc["lambda_value"] - 0.5) < 1e-12
    gout = tmp_path / "gamma.json"
    assert main(["gamma", "--itpfi", itpfi, "--out", str(gout)]) == 0
    gdoc = json.loads(gout.read_text())
    assert gdoc["kind"] == "cyclic"
    assert abs(gdoc["generator"] - math.log(2.0)) < 1e-12


def test_matroid_verdicts(tmp_path):
    fam = _write(tmp_path / "fam.json", {"kind": "seven_adic"})
    for beta, verdict in [(math.log(7.0) - 0.05, "unbounded"),
                          (math.log(7.0) + 0.05, "bounded")]:
        out = tmp_path / f"m{verdict}.json"
        assert main(["matroid", "--family", fam, "--beta", str(beta),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == verdict


@pytest.mark.parametrize("generator,projection,message", [
    ([[0, 5], [0, 1]], [[1, 0], [0, 0]], "generator must be self-adjoint"),
    ([[0, 0], [0, 1]], [[3, 0], [0, -1]], "p² ≠ p"),
    ([[0, 0], [0, 10]], [[1, 0], [0, 0]], "|β|·spread = 710 exceeds 700"),
])
def test_matroid_explicit_site_is_checked_like_a_flow(tmp_path, capsys, generator, projection,
                                                      message):
    """An explicit site's generator, projection and Boltzmann weights get the checks of
    any flow, corner and Gibbs state. Each used to give a verdict (exit 0): eigh read
    only the lower triangle and p was never checked."""
    fam = _write(tmp_path / "fam.json", {"kind": "explicit", "sites": [
        {"generator": generator, "projection": projection}]})
    out = tmp_path / "m.json"
    assert main(["matroid", "--family", fam, "--beta", "71", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("site,message", [
    ({"generator": [[0, 5], [0, 1]], "projection": [[1, 0], [0, 0]]},
     "sites[1]: generator must be self-adjoint"),
    ({"generator": [[0, 0], [0, 1]], "projection": [[3, 0], [0, -1]]}, "sites[1]: p² ≠ p"),
], ids=["generator", "projection"])
def test_matroid_names_the_file_and_the_site(tmp_path, capsys, site, message):
    """A refused explicit site is named with the file and its index, as the module
    docstring promises; the bare check's message used to be all of it."""
    good = {"generator": [[0, 0], [0, 1]], "projection": [[1, 0], [0, 0]]}
    fam = _write(tmp_path / "fam.json", {"kind": "explicit", "sites": [good, site]})
    out = tmp_path / "m.json"
    assert main(["matroid", "--family", fam, "--beta", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {fam}: {message}")
    assert not out.exists()


def _mp_level_sum(kind, beta, terms):
    """log Π(1 + a_j) of a named family, summed in 40-digit arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        if kind == "seven_adic":
            return float(mpmath.fsum(6 * mpmath.mpf(7) ** k * mpmath.log1p(1 / (1 + mpmath.exp(b * k)))
                                     for k in range(terms)))
        return float(mpmath.fsum(mpmath.log1p(mpmath.factorial(j) ** (b - 1) / (1 - 1 / mpmath.factorial(j)))
                                 for j in range(2, terms + 2)))


@pytest.mark.parametrize("kind,beta,terms", [("seven_adic", "3", 400), ("seven_adic", "0.5", 400),
                                             ("seven_adic", "1e300", 24), ("factorial", "-1e307", 24),
                                             ("factorial", "0.5", 24)])
def test_matroid_level_sums_past_the_float_range_of_a_term(tmp_path, kind, beta, terms):
    """7^(l-1) and e^{β(l-1)} leave the float range here; the sums did not (the first
    three used to exit 1 with an OverflowError)."""
    fam = _write(tmp_path / "fam.json", {"kind": kind})
    out = tmp_path / "m.json"
    assert main(["matroid", "--family", fam, f"--beta={beta}", f"--terms={terms}",
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text())["log_partial_product"]
    want = _mp_level_sum(kind, beta, terms)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("kind,beta,terms", [("seven_adic", "0.5", 600), ("seven_adic", "-1e300", 400),
                                             ("factorial", "1e307", 24)])
def test_matroid_refuses_a_sum_past_the_float_range(tmp_path, capsys, kind, beta, terms):
    """They used to exit 1 with an OverflowError or write "Infinity" with exit 0."""
    fam = _write(tmp_path / "fam.json", {"kind": kind})
    out = tmp_path / "m.json"
    assert main(["matroid", "--family", fam, f"--beta={beta}", f"--terms={terms}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "beyond the float range; lower --terms or --beta" in err and f"{terms} terms" in err
    assert not out.exists()


def test_window_command(tmp_path):
    fam = _write(tmp_path / "w.json", {"kind": "power_log", "r": 2.0})
    out = tmp_path / "win.json"
    assert main(["window", "--family", fam, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["lower"] == 2.0 and doc["lower_closed"] is True and doc["upper"] is None
    assert doc["text"] == "[2, +∞)"


def test_bundle_csv_and_summary(tmp_path):
    dg = _write(tmp_path / "dg.json", Q6_DG)
    csv_out, js_out = tmp_path / "b.csv", tmp_path / "b.json"
    assert main(["bundle", "--dg", dg, "--out", str(csv_out),
                 "--json", str(js_out)]) == 0
    rows = csv_out.read_text().strip().splitlines()
    assert rows[0].startswith("beta,fiber_dimension,vertex_count")
    body = [r.split(",") for r in rows[1:]]
    assert [int(r[2]) for r in body] == [1, 3, 2]
    doc = json.loads(js_out.read_text())
    assert all(doc["exact"])
    assert [round(b, 10) for b in doc["betas"]] == \
           [0.0, round(math.log(3.0), 10), round(math.log(7.0), 10)]
    assert doc["dimensions"] == [0, 2, 1]


def test_bundle_outputs_are_deterministic(tmp_path):
    dg = _write(tmp_path / "dg.json", Q6_DG)
    outs = []
    for tag in ("one", "two"):
        csv_out = tmp_path / f"{tag}.csv"
        svg_out = tmp_path / f"{tag}.svg"
        assert main(["bundle", "--dg", dg, "--out", str(csv_out),
                     "--plot", str(svg_out)]) == 0
        outs.append((csv_out.read_bytes(), svg_out.read_bytes()))
    assert outs[0] == outs[1]
    assert b"<svg" in outs[0][1]


def test_point_bundle_members(tmp_path):
    pts = _write(tmp_path / "pts.json",
                 {"points": [{"label": "a", "level": 0.0},
                             {"label": "b", "level": 1.0},
                             {"label": "c", "level": 1.0}]})
    out = tmp_path / "pb.json"
    assert main(["point-bundle", "--points", pts, "--level", "1.0",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["vertex_count"] == 2
    assert sorted(doc["members"]) == ["b", "c"]


def test_zero_denominator_rational_is_an_input_error(tmp_path, capsys):
    dg = _write(tmp_path / "dg.json", {"rho": [["1/0"]], "unit": [1]})
    assert main(["bundle", "--dg", dg, "--out", str(tmp_path / "b.csv")]) == 2
    assert "'1/0' has a zero denominator" in capsys.readouterr().err
    meas = _write(tmp_path / "mu.json", {"lam": 2.0, "beta": -1.0, "kind": "atomic",
                                         "lam_exact": "2/0"})
    assert main(["measure", "--measure", meas, "--out", str(tmp_path / "m.json")]) == 2
    assert "'2/0' has a zero denominator" in capsys.readouterr().err


def test_measure_check(tmp_path):
    meas = _write(tmp_path / "mu.json",
                  {"lam": 2.0, "beta": -1.0, "kind": "density"})
    out = tmp_path / "mu_out.json"
    assert main(["measure", "--measure", meas, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["max_residual"] <= 1e-12


@pytest.mark.parametrize("doc,message", [
    ({"lam": 2, "beta": -1, "kind": "atomic", "window": 8, "lam_exact": "2",
      "base_exact": "1" + "0" * 330, "x_exact": "1"}, "base_exact disagrees with e^β"),
    ({"lam": 2, "beta": -1, "kind": "atomic", "window": 8, "lam_exact": "1" + "0" * 400},
     "lam_exact disagrees with lam"),
    ({"lam": 2, "beta": math.log(2.0), "kind": "atomic", "window": 8, "x": 1.0,
      "lam_exact": "2", "base_exact": "2", "x_exact": "3"}, "x_exact disagrees with x"),
], ids=["base_exact", "lam_exact", "x_exact"])
def test_measure_refuses_an_exact_field_that_disagrees(tmp_path, capsys, doc, message):
    """Each exact field is compared with its float in logs, so a huge one is refused
    rather than overflowing (the first two exited 3), and x_exact is compared at all
    (the third was accepted, with the exact atom at 3 and the float one at 1)."""
    meas = _write(tmp_path / "mu.json", doc)
    out = tmp_path / "m.json"
    assert main(["measure", "--measure", meas, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("doc,field", [
    ({"lam": 1e10, "beta": 1, "kind": "atomic", "window": 40}, "window 40"),
    ({"lam": 2, "beta": 800, "kind": "atomic", "window": 8}, "beta = 800"),
    ({"lam": 2, "beta": -800, "kind": "density"}, "beta = -800"),
    ({"lam": 2, "beta": -5, "kind": "density", "sets": [[1e-300, 1e300]]}, "sets: "),
])
def test_measure_refuses_values_past_the_float_range(tmp_path, capsys, doc, field):
    """λ^window, e^{kβ}, e^{-β} and c^{α+1} past the float range: each used to exit 1
    with an OverflowError."""
    meas = _write(tmp_path / "mu.json", doc)
    out = tmp_path / "m.json"
    assert main(["measure", "--measure", meas, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "beyond the float range" in err
    assert not out.exists()


def _grid_doc(step, half, values):
    k = int(round(half / step))
    n = 2 * k + 1
    assert values.shape == (n, n)
    return {"step": step, "half_range": half,
            "values": [[float(p) for p in row] for row in np.angle(values)]}


def test_cocycle_check_and_trivialize(tmp_path):
    # a file grid carries no window mask, so fill the complete table from a
    # phase function (the sums s+t then never fall off the cochain's domain)
    step, half = 2.0 ** -4, 2.0
    phi = lambda x: 0.9 * np.sin(1.1 * x)          # noqa: E731  (phi(0) = 0)
    xs = step * np.arange(-int(half / step), int(half / step) + 1)
    vals = np.exp(1j * (phi(xs)[:, None] + phi(xs)[None, :]
                        - phi(xs[:, None] + xs[None, :])))
    infile = _write(tmp_path / "grid.json", _grid_doc(step, half, vals))

    rep = tmp_path / "check.json"
    assert main(["cocycle", "check", "--in", infile, "--report", str(rep),
                 "--tol", "1e-8"]) == 0
    cdoc = json.loads(rep.read_text())
    assert cdoc["max_identity_residual"] < 1e-10

    chain_out, triv_rep = tmp_path / "chain.json", tmp_path / "triv.json"
    assert main(["cocycle", "trivialize", "--in", infile, "--out", str(chain_out),
                 "--report", str(triv_rep), "--tol", "1e-6"]) == 0
    tdoc = json.loads(triv_rep.read_text())
    assert tdoc["passed"] is True
    assert tdoc["achieved_residual"] < 1e-8
    mu = json.loads(chain_out.read_text())
    assert mu["step"] == step
    assert len(mu["values"]) == 2 * int(round(mu["half_range"] / step)) + 1


def test_cocycle_check_flags_corruption(tmp_path, capsys):
    step, half = 2.0 ** -3, 1.0
    k = int(round(half / step))
    n = 2 * k + 1
    vals = np.ones((n, n), dtype=complex)
    vals[k + 2, k + 3] = -1.0
    infile = _write(tmp_path / "bad.json", _grid_doc(step, half, vals))
    code = main(["cocycle", "check", "--in", infile,
                 "--report", str(tmp_path / "r.json"), "--tol", "1e-6"])
    assert code == 1


def test_cuntz_exact_trace(tmp_path):
    out = tmp_path / "cuntz.json"
    assert main(["cuntz", "--m", "2", "--a", "1,2", "--b", "1,2",
                 "--rho", str(2.0 * math.pi), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == "1/4"
    assert abs(doc["gauge_beta"] - math.log(2.0) / (2.0 * math.pi)) < 1e-15


def test_malformed_json_diagnostic(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"block_dims": [2], ')
    code = main(["gibbs", "--problem", str(bad), "--beta", "1.0",
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert f"{bad}:1:" in err          # line:column diagnostic


def test_schema_violation_names_the_field(tmp_path, capsys):
    doc = {"block_dims": [2], "generator": "not-a-matrix"}
    path = _write(tmp_path / "bad.json", doc)
    code = main(["gibbs", "--problem", path, "--beta", "1.0",
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "generator" in capsys.readouterr().err


def test_dimension_mismatch_is_input_error(tmp_path, capsys):
    doc = {"block_dims": [3], "generator": [[[0.0, 0.0], [0.0, 1.0]]], "beta": 1.0}
    path = _write(tmp_path / "mismatch.json", doc)
    code = main(["gibbs", "--problem", path, "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_beta_is_input_error(tmp_path, capsys):
    doc = {"block_dims": [2], "generator": [[[0.0, 0.0], [0.0, 1.0]]]}
    path = _write(tmp_path / "nobeta.json", doc)
    code = main(["gibbs", "--problem", path, "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "beta" in capsys.readouterr().err.lower()


def test_outputs_validate_against_published_schema(two_level, tmp_path):
    import jsonschema
    from importlib import resources

    out = tmp_path / "v.json"
    main(["verify", "--problem", two_level, "--out", str(out)])
    schema = json.loads(resources.files("kmslab")
                        .joinpath("schemas/outputs.v1.json").read_text())
    sub = dict(schema["$defs"]["verify"])
    sub["$defs"] = schema["$defs"]
    jsonschema.validate(json.loads(out.read_text()), sub)


def test_thread_cap_does_not_change_results(two_level, tmp_path):
    import os
    env1 = dict(os.environ, KMSLAB_THREADS="1")
    env3 = dict(os.environ, KMSLAB_THREADS="3")
    outs = []
    for tag, env in (("a", env1), ("b", env3)):
        out = tmp_path / f"{tag}.csv"
        r = subprocess.run([sys.executable, "-m", "kmslab.cli", "simplex",
                            "--problem", two_level, "--beta-range=-1:2:13",
                            "--out", str(out)], env=env, capture_output=True)
        assert r.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# -- schema validation: each file checked once, every document validated ------------

def _reference_schema_defs(which: str) -> dict:
    from importlib import resources

    text = resources.files("kmslab").joinpath(f"schemas/{which}.v1.json").read_text()
    return json.loads(text)["$defs"]


def _reference_validate(doc, kind: str, which: str, path: str) -> None:
    """The oracle of ``cli._validate``: what ``jsonschema.validate`` does after its
    metaschema check, on the :func:`_oracle` validator, with the diagnostic worded as
    the CLI words it. The metaschema check is tested once per file by
    ``test_broken_schema_file_fails_its_metaschema_check``."""
    from jsonschema.exceptions import best_match

    e = best_match(_oracle(which, kind).iter_errors(doc))
    if e is not None:
        where = "/".join(str(p) for p in e.absolute_path) or "(root)"
        raise cli.CliInputError(f"{path}: field {where}: {e.message}") from e


PAIR_PROBLEM = {"block_dims": [2, 1],
                "generator": [[[0.0, [1.0, 0.5]], [[1.0, -0.5], 2.0]], [[0.25]]]}
VALID_DOCS = {
    ("inputs", "problem"): PAIR_PROBLEM,
    ("inputs", "element"): {"block_dims": [2], "blocks": [[[1.0, [2.0, -1.0]], [0.5, -1.0]]]},
    ("inputs", "dimension_group"): dict(Q6_DG, rank=6),
    ("inputs", "points"): {"points": [{"label": "a", "level": 0.0},
                                      {"label": "b", "level": 1.0}]},
    ("inputs", "measure"): {"lam": 2.0, "beta": -1.0, "kind": "atomic", "x": 1.0, "window": 4,
                            "lam_exact": "2", "base_exact": 1, "sets": [[1.0, 2.0]]},
    ("inputs", "cocycle_grid"): {"step": 0.5, "half_range": 0.5,
                                 "values": [[0.0, 0.1, 0.0], [0.1, 0.0, 0.2], [0.0, 0.2, 0.0]]},
    ("inputs", "cochain"): {"step": 0.5, "half_range": 0.5, "values": [0.0, 0.1, 0.0]},
    ("inputs", "itpfi"): {"site_generator": [[0.0, 0.0], [0.0, [0.7, 0.0]]], "beta": 1.0},
    ("inputs", "matroid"): {"kind": "explicit", "declared_tail": None,
                            "sites": [{"generator": [[0.0, 0.0], [0.0, 1.0]],
                                       "projection": [[1.0, 0.0], [0.0, 0.0]]}]},
    ("inputs", "window_family"): {"kind": "negated", "inner": {"kind": "power", "r": 2.0}},
    ("outputs", "gibbs"): {"schema_version": "1", "command": "gibbs", "beta": 1.0,
                           "block_dims": [2],
                           "blocks": [[[[0.7, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.3, 0.0]]]]},
    ("outputs", "verify"): {"schema_version": "1", "command": "verify", "passed": True,
                            "max_residual": 1e-16, "residual_exchange": 1e-16,
                            "residual_half_shift": 0.0, "beta": 1.0, "tol": 1e-8,
                            "worst_pair": [0, 1]},
    ("outputs", "bundle"): {"schema_version": "1", "command": "bundle", "betas": [0.0, 1.25],
                            "dimensions": [0, 2], "vertex_counts": [1, 3],
                            "exact": [True, False]},
    ("outputs", "cocycle_check"): {"schema_version": "1", "command": "cocycle",
                                   "max_identity_residual": 0.0,
                                   "max_normalization_residual": 0.0,
                                   "checked": 27, "skipped": 0, "passed": True},
    ("outputs", "cuntz"): {"schema_version": "1", "command": "cuntz", "m": 2,
                           "word_a": [1, 2], "word_b": [1, 2], "value": "1/4",
                           "gauge_beta": None},
}


def _malformed(doc):
    """Malformed variants of a document, by kind of defect: a value of the wrong
    type at any node, a field dropped, an unknown field or one item too many, and
    a bad [re, im] pair (too short, too long, or a string part)."""
    out = {"type": [], "missing": [], "extra": [], "pair": []}

    def walk(node, rebuild):
        out["type"].append(rebuild(5 if isinstance(node, str) else "x"))
        if isinstance(node, dict):
            for k in node:
                out["missing"].append(rebuild({kk: v for kk, v in node.items() if kk != k}))
                walk(node[k], lambda v, k=k: rebuild({**node, k: v}))
            out["extra"].append(rebuild({**node, "bogus": 1}))
        elif isinstance(node, list) and node:
            out["extra"].append(rebuild(node + [node[-1]]))
            if len(node) == 2 and all(isinstance(x, float) for x in node):
                out["pair"] += [rebuild(node[:1]), rebuild(node + [0.0]),
                                rebuild(["1", node[1]])]
            for i, item in enumerate(node):
                walk(item, lambda v, i=i: rebuild(node[:i] + [v] + node[i + 1:]))

    walk(doc, lambda v: v)
    return out


def _outcome(fn, doc, kind, which):
    try:
        fn(doc, kind, which, "doc.json")
    except Exception as e:                      # noqa: BLE001  (compared, not handled)
        return type(e), str(e)
    return None


@pytest.mark.parametrize("which,kind", sorted(VALID_DOCS))
def test_validation_diagnostics_match_the_reference_route(which, kind):
    doc = VALID_DOCS[(which, kind)]
    assert _outcome(cli._validate, doc, kind, which) is None
    assert _outcome(_reference_validate, doc, kind, which) is None
    rng = np.random.default_rng(sum(map(ord, which + kind)))
    refused = 0
    for defect, variants in _malformed(doc).items():
        if not variants:
            continue
        for i in sorted(set(rng.integers(0, len(variants), size=2).tolist())):
            got = _outcome(cli._validate, variants[i], kind, which)
            assert got == _outcome(_reference_validate, variants[i], kind, which), \
                (defect, variants[i])
            if got is not None:
                assert got[0] is cli.CliInputError and got[1].startswith("doc.json: field ")
                refused += 1
    assert refused >= 3


@pytest.fixture
def fresh_schema_caches():
    caches = (cli._schema, cli._compiled)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _check_schema(schema):
    import jsonschema

    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_broken_schema_file_fails_its_metaschema_check(fresh_schema_caches):
    """Each published schema file passes the metaschema it declares, and the same check
    refuses a copy with one broken definition."""
    import copy

    import jsonschema

    for which, kind in [("inputs", "points"), ("outputs", "blocks")]:
        schema = cli._schema(which)
        _check_schema(schema)
        broken = copy.deepcopy(schema)
        broken["$defs"][kind]["type"] = 5
        with pytest.raises(jsonschema.SchemaError):
            _check_schema(broken)


def test_the_cli_never_runs_the_metaschema_check(fresh_schema_caches, tmp_path, capsys):
    """Each schema file is read, and each kind compiled, once per process: over ten calls
    neither cache misses twice on one key."""
    prob = _write(tmp_path / "p.json", TWO_LEVEL)
    dg = _write(tmp_path / "dg.json", Q6_DG)
    fam = _write(tmp_path / "w.json", {"kind": "power", "r": 2.0})
    bad = _write(tmp_path / "bad.json", {"block_dims": [2], "generator": "not-a-matrix"})
    out = str(tmp_path / "o.json")
    calls = [["gibbs", "--problem", prob, "--out", out],
             ["verify", "--problem", prob, "--out", out],
             ["bundle", "--dg", dg, "--out", str(tmp_path / "b.csv"), "--json", out],
             ["window", "--family", fam, "--out", out],
             ["cuntz", "--m", "2", "--a", "1", "--b", "1", "--out", out]] * 2
    for argv in calls:
        assert main(argv) == 0
    # two files; problem, dimension_group and window_family in, five commands' kinds out
    infos = [cache.cache_info() for cache in (cli._schema, cli._compiled)]
    assert [(info.misses, info.currsize) for info in infos] == [(2, 2), (8, 8)]
    # documents are still validated on every read, and a refusal still has its diagnostic
    assert main(["gibbs", "--problem", bad, "--beta", "1", "--out", out]) == 2
    assert "field generator" in capsys.readouterr().err


def test_no_kmslab_process_imports_jsonschema(tmp_path):
    """Neither an accepted document, nor a refused one, nor one that only jsonschema's
    type rules accept (an integer given as 2.0) loads jsonschema."""
    import os
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    prob = _write(tmp_path / "p.json", TWO_LEVEL)
    bad = _write(tmp_path / "bad.json", {"block_dims": [2], "generator": "not-a-matrix"})
    float_dims = _write(tmp_path / "float_dims.json", dict(TWO_LEVEL, block_dims=[2.0]))
    script = ("import sys; from kmslab.cli import main; "
              "code = main(sys.argv[1:]); print(code, 'jsonschema' in sys.modules)")
    out = str(tmp_path / "o.json")
    seen = []
    for problem in (prob, bad, float_dims):
        r = subprocess.run([sys.executable, "-c", script, "gibbs", "--problem", problem,
                            "--beta", "1", "--out", out], env=env, capture_output=True,
                           text=True)
        seen.append(r.stdout.split())
    assert seen == [["0", "False"], ["2", "False"], ["0", "False"]]


def test_no_module_in_the_package_imports_jsonschema():
    """jsonschema is the tests' oracle, never a dependency of the package."""
    import ast
    from pathlib import Path

    package = Path(cli.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "jsonschema"]
    assert found == []


# -- compiled schema predicates: sound, defined for every kind, and taken ------------

def _all_kinds():
    return [(which, kind) for which in ("inputs", "outputs")
            for kind in _reference_schema_defs(which)]


@functools.lru_cache(maxsize=None)
def _oracle(which: str, kind: str):
    """jsonschema alone, on the definition as the file gives it."""
    import jsonschema

    defs = _reference_schema_defs(which)
    schema = dict(defs[kind])
    schema["$defs"] = defs
    return jsonschema.validators.validator_for(schema)(schema)


def _accepts(which: str, kind: str):
    return cli._compiled(which, kind)[0]


# valid documents of the kinds that neither VALID_DOCS nor a CLI run covers
PART_DOCS = {
    ("inputs", "entry"): [0.5, [1.0, -2]],
    ("inputs", "matrix"): [[[1.0, [0.0, 1.0]], [[0.0, -1.0], 2]]],
    ("inputs", "blocks"): [[[[1.0]], [[0.0, 1.0], [1.0, 0.0]]]],
    ("inputs", "rational"): ["-3/7", 2, 0.25],
    ("outputs", "pair"): [[0.5, -1.0]],
    ("outputs", "matrix"): [[[[0.5, 0.0]]], []],
    ("outputs", "blocks"): [[[[[1.0, 0.0]]]]],
    ("outputs", "base"): [{"schema_version": "1", "command": "x", "more": [1, "a"]}],
}


@pytest.fixture(scope="module")
def cli_documents(tmp_path_factory):
    """Every JSON document that one run of each JSON-writing command reads or writes,
    as (which, kind, doc) from its file, and every document the runs validated, as
    (which, kind, doc) as ``cli._validate`` was given it."""
    import contextlib
    import io

    d = tmp_path_factory.mktemp("cli_documents")
    step, half = 0.25, 1.0
    phi = lambda x: 0.9 * np.sin(1.1 * x)          # noqa: E731
    xs = step * np.arange(-4, 5)
    grid = _grid_doc(step, half, np.exp(1j * (phi(xs)[:, None] + phi(xs)[None, :]
                                              - phi(xs[:, None] + xs[None, :]))))
    inputs = {"p.json": ("problem", dict(PAIR_PROBLEM, beta=0.7)),
              "two.json": ("problem", TWO_LEVEL),
              "e.json": ("element", {"blocks": [[[0.0, 1.0], [0.0, 0.0]]]}),
              "site.json": ("itpfi", {"site_generator": [[0.0, 0.0], [0.0, math.log(2.0)]],
                                      "beta": 1.0}),
              "fam.json": ("matroid", {"kind": "seven_adic"}),
              "w.json": ("window_family", {"kind": "negated",
                                           "inner": {"kind": "power", "r": 2.0}}),
              "dg.json": ("dimension_group", Q6_DG),
              "pts.json": ("points", {"points": [{"label": "a", "level": 0.0},
                                                 {"label": "b", "level": 1.0}]}),
              "mu.json": ("measure", {"lam": 2.0, "beta": -1.0, "kind": "density"}),
              "grid.json": ("cocycle_grid", grid)}
    for name, (_, doc) in inputs.items():
        _write(d / name, doc)
    p = lambda name: str(d / name)                 # noqa: E731
    runs = [(["gibbs", "--problem", p("p.json"), "--out", p("gibbs.out")], "gibbs"),
            (["verify", "--problem", p("two.json"), "--out", p("verify.out")], "verify"),
            (["simplex", "--problem", p("p.json"), "--out", p("simplex.out")], "simplex"),
            (["modular", "--problem", p("two.json"), "--out", p("modular.out")], "modular"),
            (["fejer", "--problem", p("two.json"), "--element", p("e.json"), "--order", "3",
              "--out", p("fejer.out")], "fejer"),
            (["factor-type", "--itpfi", p("site.json"), "--out", p("factor_type.out")],
             "factor_type"),
            (["gamma", "--itpfi", p("site.json"), "--out", p("gamma.out")], "gamma"),
            (["matroid", "--family", p("fam.json"), "--beta", "2", "--out", p("matroid.out")],
             "matroid"),
            (["window", "--family", p("w.json"), "--out", p("window.out")], "window"),
            (["bundle", "--dg", p("dg.json"), "--out", p("b.csv"), "--json", p("bundle.out")],
             "bundle"),
            (["point-bundle", "--points", p("pts.json"), "--level", "1",
              "--out", p("point_bundle.out")], "point_bundle"),
            (["measure", "--measure", p("mu.json"), "--out", p("measure.out")], "measure"),
            (["cocycle", "check", "--in", p("grid.json"), "--report", p("cocycle_check.out")],
             "cocycle_check"),
            (["cocycle", "trivialize", "--in", p("grid.json"), "--out", p("cochain.out"),
              "--report", p("cocycle_report.out")], "cocycle_report"),
            (["cuntz", "--m", "2", "--a", "1,2", "--b", "1,2", "--rho", "1.5",
              "--out", p("cuntz.out")], "cuntz")]
    validated = []
    real = cli._validate

    def spy(doc, kind, which, *args):
        validated.append((which, kind, doc))
        return real(doc, kind, which, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_validate", spy)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv, _ in runs]
    assert codes == [0] * len(runs)
    docs = [("inputs", kind, doc) for kind, doc in inputs.values()]
    docs += [("outputs", kind, json.loads((d / f"{kind}.out").read_text()))
             for kind in [kind for _, kind in runs] + ["cochain"]]
    return docs, validated


def _base_docs(cli_docs):
    docs = {key: [doc] for key, doc in VALID_DOCS.items()}
    for key, extra in PART_DOCS.items():
        docs.setdefault(key, []).extend(extra)
    for which, kind, doc in cli_docs:
        if doc not in docs.setdefault((which, kind), []):
            docs[(which, kind)].append(doc)
    return docs


def test_every_schema_definition_compiles(cli_documents):
    for which, kind in _all_kinds():
        assert callable(_accepts(which, kind))
    # every kind has documents for the soundness properties below to vary
    assert sorted(_base_docs(cli_documents[0])) == sorted(_all_kinds())


def test_compiled_predicates_accept_every_valid_document(cli_documents):
    for (which, kind), docs in _base_docs(cli_documents[0]).items():
        for doc in docs:
            assert _accepts(which, kind)(doc), (which, kind, doc)
            assert _oracle(which, kind).is_valid(doc), (which, kind, doc)


def test_the_cli_never_asks_jsonschema_about_a_valid_document(cli_documents):
    """Every file the commands read or write, and every document they validated as it
    was built, passes the compiled check alone: none takes the refusal walk, which
    would let a numpy scalar through by jsonschema's type rules."""
    docs, validated = cli_documents
    assert len(docs) == 26 and len(validated) >= 26
    assert [(which, kind) for which, kind, doc in docs + validated
            if not cli._compiled(which, kind)[0](doc)] == []


def _paths(node, path=(), ends_only=False):
    """Every node's path; with ``ends_only``, only the first and last item of a list."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,), ends_only)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            if not ends_only or i in (0, len(node) - 1):
                yield from _paths(v, path + (i,), ends_only)


_DROP = object()


def _put(node, path, value):
    """A copy of ``node`` with ``value`` at ``path`` (a new key or index appends;
    ``_DROP`` deletes)."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        out = dict(node)
        child = out.get(head)
    else:
        out = list(node)
        if head == len(out):
            out.append(None)
        child = out[head]
    new = _put(child, rest, value)
    if new is _DROP:
        del out[head]
    else:
        out[head] = new
    return out


# values that sit on the edges of the type rules: bools against numbers, 1 against
# 1.0, NaN and infinities against bounds, numpy scalars, wrong pair lengths
TRICKY = [True, False, None, 0, 1, 1.0, 2.0, -1, -0.0, 0.5, math.nan, math.inf, -math.inf,
          "1", "", "x", "2/3", "seven_adic", "density", "power", [], [1.0], [1.0, 2.0],
          [1.0, 2.0, 3.0], [True, 1.0], {}, {"bogus": 1}, np.float64(1.0), np.int64(1),
          np.bool_(True)]


def _sound(which, kind, doc) -> bool:
    """Whether the predicate accepted ``doc``; asserts jsonschema accepts it then."""
    if not _accepts(which, kind)(doc):
        return False
    assert _oracle(which, kind).is_valid(doc), (which, kind, doc)
    return True


def _node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("which,kind", _all_kinds())
def test_compiled_predicate_is_sound_at_every_node(cli_documents, which, kind):
    """Each malformed variant, each object of each valid document given several extra
    fields at once, and each node (the end items of each list) replaced by each tricky
    value: whatever the predicate accepts, jsonschema accepts, and ``_validate`` gives
    the reference route's verdict, exception type and message."""
    accepted = refused = 0
    for doc in _base_docs(cli_documents[0])[(which, kind)]:
        variants = [v for vs in _malformed(doc).values() for v in vs]
        variants += [_put(doc, path, value) for path in _paths(doc, ends_only=True)
                     for value in TRICKY]
        variants += [_put(doc, path, {**node, "zz": 1, "bogus": [], "aa": None})
                     for path in _paths(doc, ends_only=True)
                     if isinstance(node := _node_at(doc, path), dict)]
        for variant in variants:
            if _sound(which, kind, variant):
                accepted += 1
            else:
                refused += 1
            assert (_outcome(cli._validate, variant, kind, which)
                    == _outcome(_reference_validate, variant, kind, which)), variant
    assert accepted >= 1 and refused >= 1


# values for the enum and const rules: True ≠ 1 and False ≠ 0, also inside arrays and
# objects, while 1 == 1.0
EQUALITY_DEFS = {"enum": {"enum": [1, False, None, "1", [1, 0.0], {"a": True}]},
                 "const_one": {"const": 1}, "const_true": {"const": True},
                 "const_array": {"const": [True, 0]},
                 "nested": {"type": "array", "items": {"enum": [0, "x"]}}}


@pytest.mark.parametrize("kind", sorted(EQUALITY_DEFS))
def test_enum_and_const_refusals_match_jsonschema(kind):
    from jsonschema import Draft202012Validator

    check, refusals = cli._compile(EQUALITY_DEFS, kind)
    oracle = Draft202012Validator(EQUALITY_DEFS[kind])
    values = TRICKY + [[1, 0], [1, False], [True, 0], [1.0, -0.0], {"a": 1}, {"a": True},
                       [0, "x", 0.0, False]]

    def outcome(fn):
        try:
            return fn()
        except Exception as e:                  # noqa: BLE001  (compared, not handled)
            return type(e), str(e)

    for value in values:
        want = outcome(lambda: [(tuple(e.path), e.message) for e in oracle.iter_errors(value)])
        assert outcome(lambda: [(r.path, r.message) for r in refusals(value)]) == want, value
        assert not check(value) or want == [], value


def _property_names():
    names = {"bogus"}
    for which in ("inputs", "outputs"):
        for schema in _reference_schema_defs(which).values():
            names.update(schema.get("properties", {}))
    return sorted(names)


_JSON_TREES = st.recursive(
    st.sampled_from(TRICKY) | st.floats() | st.integers(-2, 2),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_property_names()), kids, max_size=4),
    max_leaves=10)


@st.composite
def _mutant(draw, docs):
    """A valid document with one to three nodes replaced, dropped or added."""
    doc = draw(st.sampled_from(docs))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["replace", "add", "drop"]))
        node = doc
        for key in path:
            node = node[key]
        if op == "add" and isinstance(node, (dict, list)):
            key = draw(st.sampled_from(_property_names())) if isinstance(node, dict) \
                else len(node)
            doc = _put(doc, path + (key,), draw(_JSON_TREES))
        elif op == "drop" and path:
            doc = _put(doc, path, _DROP)
        else:
            doc = _put(doc, path, draw(_JSON_TREES))
    return doc


@pytest.mark.parametrize("which,kind", _all_kinds())
@given(data=st.data())
def test_property_compiled_predicate_is_sound(cli_documents, which, kind, data):
    docs = _base_docs(cli_documents[0])[(which, kind)]
    variants = [v for doc in docs for vs in _malformed(doc).values() for v in vs]
    doc = data.draw(st.sampled_from(variants) | _mutant(docs) | _JSON_TREES)
    _sound(which, kind, doc)
    assert _outcome(cli._validate, doc, kind, which) == _outcome(_reference_validate, doc,
                                                                 kind, which)


def _patched_schema_files(monkeypatch, which, edit):
    from importlib import resources

    real = resources.files("kmslab")
    schema = json.loads(real.joinpath(f"schemas/{which}.v1.json").read_text())
    edit(schema["$defs"])
    text = json.dumps(schema)

    class Files:
        def joinpath(self, name):
            return (types.SimpleNamespace(read_text=lambda: text)
                    if name == f"schemas/{which}.v1.json" else real.joinpath(name))

    monkeypatch.setattr(cli, "resources", types.SimpleNamespace(files=lambda pkg: Files()))


@pytest.mark.parametrize("keyword,edit", [
    pytest.param("maximum", lambda defs: defs["problem"]["properties"]["beta"].update(
        maximum=10), id="maximum"),
    pytest.param("prefixItems", lambda defs: defs["matrix"].update(
        prefixItems=[{"type": "array"}]), id="prefixItems"),
    pytest.param("additionalProperties", lambda defs: defs["blocks"].update(
        additionalProperties={"type": "number"}), id="additionalProperties-schema"),
])
def test_unsupported_schema_keyword_raises_on_first_use(fresh_schema_caches, monkeypatch,
                                                        keyword, edit):
    """The patched file passes its metaschema check, and jsonschema would validate the
    document; the predicate refuses to be built without the keyword's check."""
    _patched_schema_files(monkeypatch, "inputs", edit)
    with pytest.raises(NotImplementedError, match=keyword):
        cli._validate(TWO_LEVEL, "problem", "inputs", "p.json")
    from jsonschema import Draft202012Validator

    defs = cli._schema("inputs")["$defs"]
    assert Draft202012Validator(dict(defs["problem"], **{"$defs": defs})).is_valid(TWO_LEVEL)


# -- the parser is built once: in-process calls behave as fresh processes ------------

def test_cached_parser_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    import os
    from pathlib import Path

    step, half = 2.0 ** -3, 1.0
    k = int(half / step)
    vals = np.ones((2 * k + 1, 2 * k + 1), dtype=complex)
    vals[k + 2, k + 3] = -1.0
    inputs = {"p.json": TWO_LEVEL, "fam.json": {"kind": "seven_adic"},
              "grid.json": _grid_doc(step, half, np.ones_like(vals)),
              "bad_grid.json": _grid_doc(step, half, vals)}
    calls = [["verify", "--problem", "p.json", "--tol", "1e-3", "--seed", "5",
              "--out", "v1.json"],
             ["verify", "--problem", "p.json", "--out", "v2.json"],
             ["gibbs", "--problem", "p.json"],                  # argparse: no --out
             ["--version"],
             ["cocycle", "check", "--in", "bad_grid.json", "--report", "c.json",
              "--tol", "1e-6"],
             ["cocycle", "trivialize", "--in", "grid.json", "--out", "mu.json",
              "--report", "t.json", "--tol", "1e-6"],
             ["matroid", "--family", "fam.json", "--beta", "nan", "--out", "m.json"]]
    runs = {}
    for route in ("in_process", "fresh"):
        d = tmp_path / route
        d.mkdir()
        for name, doc in inputs.items():
            _write(d / name, doc)
    monkeypatch.chdir(tmp_path / "in_process")
    cli._build_parser()
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        streams = capsys.readouterr()
        in_process.append((code, streams.out, streams.err))
    assert cli._build_parser.cache_info().misses <= 1
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    fresh = []
    for argv in calls:
        r = subprocess.run([sys.executable, "-m", "kmslab.cli", *argv], cwd=tmp_path / "fresh",
                           env=env, capture_output=True, text=True)
        fresh.append((r.returncode, r.stdout, r.stderr))
    assert in_process == fresh
    assert [c for c, _, _ in fresh] == [0, 0, 2, 0, 1, 0, 2]
    files = {route: {p.name: p.read_bytes() for p in sorted((tmp_path / route).iterdir())}
             for route in ("in_process", "fresh")}
    assert files["in_process"] == files["fresh"]
    assert json.loads(files["fresh"]["v1.json"])["tol"] == 1e-3
    assert json.loads(files["fresh"]["v2.json"])["tol"] == 1e-8


# -- exit code 3: internal faults ------------------------------------------------------

def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


def _grid_file(tmp_path, half=1.0):
    step = 2.0 ** -4
    k = int(round(half / step))
    x = step * np.arange(-k, k + 1)
    return _write(tmp_path / "grid.json", _grid_doc(step, half, np.exp(-0.4j * np.outer(x, x))))


def _svd_with_a_zero_singular_value(monkeypatch):
    """np.linalg.svd, except that the least singular value, that of the polar
    route's kernel M_s of S, comes back as zero."""
    svd = np.linalg.svd

    def patched(a, *args, **kwargs):
        u, s, vt = svd(a, *args, **kwargs)
        s = s.copy()
        s[-1] = 0.0
        return u, s, vt
    monkeypatch.setattr(np.linalg, "svd", patched)


FAULTS = {
    # fault: (how it is planted, the subcommand's argv)
    "InternalFault": (_svd_with_a_zero_singular_value,
                      lambda p, tmp: ["modular", "--problem", p, "--out", str(tmp / "o.json")]),
    "LinAlgError": (lambda mp: mp.setattr(cli, "gibbs", _raise(np.linalg.LinAlgError("singular"))),
                    lambda p, tmp: ["gibbs", "--problem", p, "--out", str(tmp / "o.json")]),
    "QuadratureError": (lambda mp: mp.setattr(cli.PeriodicFlow, "fejer_mean",
                                              _raise(QuadratureError("no convergence"))),
                        lambda p, tmp: ["fejer", "--problem", p, "--element",
                                        _write(tmp / "e.json", {"blocks": [[[0.0, 1.0], [0.0, 0.0]]]}),
                                        "--order", "3", "--out", str(tmp / "o.json")]),
    "AssertionError": (lambda mp: mp.setattr(cli, "check_cocycle", _raise(AssertionError("scan"))),
                       lambda p, tmp: ["cocycle", "check", "--in", _grid_file(tmp)]),
    "MemoryError": (lambda mp: mp.setattr(cli, "trivialize", _raise(MemoryError())),
                    lambda p, tmp: ["cocycle", "trivialize", "--in", _grid_file(tmp)]),
}


@pytest.mark.parametrize("exc", [OverflowError("math range error"), ZeroDivisionError("x"),
                                 TypeError("x"), KeyError("x")])
def test_any_other_exception_is_an_internal_fault(two_level, tmp_path, monkeypatch, capsys, exc):
    """Neither a ValueError nor an OSError: exit 3 and one line, not a traceback
    (exit 1, posing as a check that ran and failed)."""
    monkeypatch.setattr(cli, "gibbs", _raise(exc))
    assert main(["gibbs", "--problem", two_level, "--out", str(tmp_path / "o.json")]) == 3
    assert capsys.readouterr().err == f"error: internal fault: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_internal_faults_exit_3(fault, two_level, tmp_path, monkeypatch, capsys):
    plant, argv = FAULTS[fault]
    plant(monkeypatch)
    assert main(argv(two_level, tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: internal fault: {fault}")
    if fault == "InternalFault":                   # raised by the polar route itself
        assert "non-positive or non-finite singular value" in err


def test_a_precondition_still_exits_2(two_level, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "gibbs", _raise(ValueError("bad beta")))
    assert main(["gibbs", "--problem", two_level, "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == "error: bad beta\n"


def test_an_output_the_schema_refuses_is_an_internal_fault(two_level, tmp_path, monkeypatch,
                                                           capsys):
    """A payload the program built wrong is its own fault (exit 3), with the schema's
    diagnostic, not bad input (exit 2); no file is written."""
    real = cli.verify_kms
    monkeypatch.setattr(cli, "verify_kms", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), passed=np.bool_(True)))
    out = tmp_path / "o.json"
    assert main(["verify", "--problem", two_level, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: internal fault: InternalFault: {out}: field "
                                       "passed: np.True_ is not of type 'boolean'\n")
    assert not out.exists()


def test_trivialize_window_guard_is_an_internal_fault(tmp_path, monkeypatch, capsys):
    """A μ⁰ that leaves the rescaled unit square undefined breaks the stages' own
    invariant, so it is a fault (exit 3), not a refusal of the grid (exit 2)."""
    monkeypatch.setattr(cocycle, "_develop",
                        lambda table, k, unit: np.full(2 * k + 1, np.nan + 0j))
    grid = cocycle.bilinear_cocycle(0.4, 2.0 ** -4, 1.0)
    with pytest.raises(InternalFault, match="rescaled unit square leaves the window"):
        cocycle.trivialize(grid)
    assert main(["cocycle", "trivialize", "--in", _grid_file(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: internal fault: InternalFault: "
                                              "rescaled unit square")


@pytest.mark.parametrize("spoil,message", [
    (lambda v: -v, "leaves the positive cone"),
    (lambda v: v + 1, "is not a left eigenvector"),
    (lambda v: v / 2, "is not normalized against the unit"),
], ids=["cone", "eigenvector", "unit"])
def test_a_bad_fiber_vertex_is_an_internal_fault(spoil, message, tmp_path, monkeypatch, capsys):
    """fiber_simplex's post-checks hold for every valid spec: a vertex failing one
    is a fault of the library (exit 3), not of the input. Each case spoils the
    per-class vertices so that only its own check fails first."""
    class_vertex = bundle._class_vertex
    monkeypatch.setattr(bundle, "_class_vertex",
                        lambda *args: None if (v := class_vertex(*args)) is None else spoil(v))
    dg = _write(tmp_path / "dg.json", Q6_DG)
    assert main(["bundle", "--dg", dg, "--out", str(tmp_path / "b.csv")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: internal fault: InternalFault: fiber vertex {message}\n"


# -- the route of trivialize's precheck ---------------------------------------------------

@pytest.mark.parametrize("half,route", [(1.0, "certificate"), (1.25, "scan")])
def test_cocycle_report_names_the_precheck_route(half, route, tmp_path):
    # K = 20 at half-range 1.25 is no multiple of the rescaled unit 8, so the
    # trivializer's window shrinks and the precheck falls back to the scan
    rep = tmp_path / "triv.json"
    assert main(["cocycle", "trivialize", "--in", _grid_file(tmp_path, half),
                 "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["precheck_route"] == route
    check = tmp_path / "check.json"
    assert main(["cocycle", "check", "--in", str(tmp_path / "grid.json"),
                 "--report", str(check)]) == 0
    scan = json.loads(check.read_text())["max_identity_residual"]
    if route == "scan":
        assert doc["precheck_bound"] == scan
    else:
        assert scan <= doc["precheck_bound"] <= 1e-13


def _perturbed_grid_file(tmp_path, step, seed):
    """A seeded smooth coboundary on [-1, 1] with one off-axis pair kicked by 1.5-3 rad.
    The kicked pair has a negative second index, which no trivializer stage reads."""
    rng = np.random.default_rng(seed)
    k = int(round(1.0 / step))
    x = step * np.arange(-k, k + 1)
    amp, freq, shift = rng.uniform(0.05, 0.15, 3), rng.uniform(0.3, 1.0, 3), rng.uniform(0, 6, 3)

    def phi(t):
        return sum(a * (np.sin(f * t + s) - np.sin(s)) for a, f, s in zip(amp, freq, shift))

    phases = phi(x)[:, None] + phi(x)[None, :] - phi(x[:, None] + x[None, :])
    i = int(rng.integers(1, k // 2 + 1)) * int(rng.choice([-1, 1]))
    j = -int(rng.integers(1, k // 2 + 1))
    phases[k + i, k + j] += rng.uniform(1.5, 3.0)
    return _write(tmp_path / "grid.json", {"step": step, "half_range": 1.0,
                                           "values": phases.tolist()})


def test_refused_grid_exits_2_with_the_scans_residual(tmp_path, capsys):
    path = _perturbed_grid_file(tmp_path, 2.0 ** -6, seed=7)
    assert main(["cocycle", "trivialize", "--in", path]) == 2
    out, err = capsys.readouterr()
    grid = cli._grid_from_doc(json.loads((tmp_path / "grid.json").read_text()))
    residual = cocycle.check_cocycle(grid).max_identity_residual
    allowed = cocycle.DEFECT_FACTOR * grid.step
    assert (out, err) == ("", f"error: cocycle identity fails: residual {residual:.3e} "
                              f"exceeds the allowed defect {allowed:.3e}\n")


@pytest.mark.parametrize("action", ["check", "trivialize"])
@pytest.mark.parametrize("sizes,message", [
    ({"step": 0.25, "half_range": math.inf}, "half_range must be a finite normal number, got inf"),
    ({"step": 1e-320, "half_range": 1.0}, "step must be a finite normal number, got 1e-320"),
    ({"step": math.nan, "half_range": 1.0}, "step must be a finite normal number, got nan"),
    ({"step": 1e-300, "half_range": 1e300}, "half_range/step overflows: 1e+300/1e-300"),
    ({"step": 0.25, "half_range": 10 ** 400},
     f"half_range must be a finite normal number, got {10 ** 400}"),
], ids=["infinite-half-range", "subnormal-step", "nan-step", "overflowing-ratio",
        "integer-past-the-float-range"])
def test_cocycle_bad_sizes_exit_2_naming_the_value(sizes, message, action, tmp_path, capsys):
    """Sizes the schema lets through but that give no finite K are bad input (exit 2),
    refused by value, not an OverflowError posing as a fault (exit 3)."""
    path = _write(tmp_path / "grid.json", {**sizes, "values": np.zeros((9, 9)).tolist()})
    assert main(["cocycle", action, "--in", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_refused_grid_at_k256_skips_the_scan(tmp_path, monkeypatch, capsys):
    path = _perturbed_grid_file(tmp_path, 2.0 ** -8, seed=8)
    monkeypatch.setattr(cocycle, "check_cocycle", _raise(AssertionError("scan ran")))
    assert main(["cocycle", "trivialize", "--in", path]) == 2
    assert capsys.readouterr().err.startswith("error: cocycle identity fails: residual ")
