"""Command-line surface: exit codes, schemas, determinism, diagnostics."""

import json
import math
import subprocess
import sys
import types

import numpy as np
import pytest

from kmslab import cli
from kmslab.cli import main

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


def test_verify_refuses_a_non_finite_state(two_level, tmp_path, capsys):
    state = tmp_path / "nan.json"
    state.write_text('{"blocks": [[[NaN, 0.0], [0.0, 0.5]]]}')
    out = tmp_path / "verify.json"
    code = main(["verify", "--problem", two_level, "--state", str(state), "--out", str(out)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
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


def test_modular_routes_and_theorems(two_level, tmp_path):
    out = tmp_path / "modular.json"
    assert main(["modular", "--problem", two_level, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["route_gap"] <= 1e-9
    assert doc["commutant_gap"] <= 1e-8
    assert doc["center_dimension"] == 1


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
    """The validation route the CLI used before it cached validators, verbatim:
    the sub-schema re-checked against the metaschema on every call."""
    import jsonschema

    defs = _reference_schema_defs(which)
    schema = dict(defs[kind])
    schema["$defs"] = defs
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as e:
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
    cli._schema.cache_clear()
    cli._validator.cache_clear()
    yield
    cli._schema.cache_clear()
    cli._validator.cache_clear()


def test_broken_schema_file_fails_its_metaschema_check(fresh_schema_caches, monkeypatch):
    import jsonschema
    from importlib import resources

    real = resources.files("kmslab")
    text = real.joinpath("schemas/inputs.v1.json").read_text()
    schema = json.loads(text)
    schema["$defs"]["points"]["type"] = 5
    broken = json.dumps(schema)

    class Files:
        def joinpath(self, name):
            return (types.SimpleNamespace(read_text=lambda: broken)
                    if name == "schemas/inputs.v1.json" else real.joinpath(name))

    monkeypatch.setattr(cli, "resources", types.SimpleNamespace(files=lambda pkg: Files()))
    # the broken def is not the one validated: the whole file is checked
    with pytest.raises(jsonschema.SchemaError):
        cli._validate(TWO_LEVEL, "problem", "inputs", "p.json")


def test_each_schema_file_is_checked_once_per_process(fresh_schema_caches, monkeypatch,
                                                      tmp_path, capsys):
    from jsonschema import Draft202012Validator

    checked = []
    orig = Draft202012Validator.check_schema

    def counting(cls, schema, *args, **kwargs):
        checked.append(schema.get("$id", "sub-schema"))
        return orig(schema, *args, **kwargs)

    monkeypatch.setattr(Draft202012Validator, "check_schema", classmethod(counting))
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
    # documents are still validated on every read, after the schema is cached
    assert main(["gibbs", "--problem", bad, "--beta", "1", "--out", out]) == 2
    assert "field generator" in capsys.readouterr().err
    assert sorted(checked) == ["kmslab/inputs.v1.json", "kmslab/outputs.v1.json"]
