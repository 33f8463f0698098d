"""The ``cli_mix`` workload: in-process ``kmslab.cli.main(argv)`` calls.

Each op writes its generated input files into the run's working directory
(untimed), calls ``main`` once (timed, with its printing captured), then
reads the outputs back and compares them with the exit code and the fields
the generator knows in closed form (untimed). A round holds one op of each
slot below, so every round carries the same mix of subcommands.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from fractions import Fraction

import numpy as np

from workloads import (Workload, coboundary_phases, expect, gibbs_closed_form,
                       in_range_triples, known_hermitian, perturbed, rel_gap, with_spectrum)

# (kind, size): the size is block dims, sweep steps, rank, K, ... The
# exact-lane bundle at rank 8, six times a round, is the dearest call that
# runs on one thread; the tail falls in the middle of that class, above it
# only the pooled 2000-step sweep. Its calls vary by a fifth among
# themselves, so the class needs many samples for its middle to hold still.
CLI_SLOTS = [
    ("gibbs", (2, 3)), ("verify_gibbs", (3,)), ("verify_trace", (2, 2)),
    ("simplex", (2, 3, 4)), ("sweep", 500), ("modular", (2, 1)),
    ("fejer", (3, 2)), ("decompose", (4,)), ("bundle_exact", 4),
    ("bundle_float", 3), ("point_bundle", 6), ("matroid", None), ("window", None),
    ("factor_type", None), ("gamma", None), ("measure", None),
    ("cocycle_check", (2.0 ** -4, 1.0)), ("cocycle_bad", (2.0 ** -5, 1.0)),
    ("cuntz", None), ("malformed", "truncated"), ("sweep", 2000), ("bundle_exact", 8),
    ("bundle_float", 6), ("cocycle_check", (2.0 ** -5, 1.0)), ("modular", (1, 1)),
    ("malformed", "schema"), ("bundle_exact", 8), ("malformed", "mismatch"),
    ("bundle_exact", 8), ("malformed", "empty_sweep"), ("gibbs", (4, 2)),
    ("bundle_exact", 8), ("bundle_exact", 8), ("bundle_exact", 8),
]
# multiplicities of the diagonal values per rank: the number of fibers, and so
# the double-description work, depends on the slot and not on the seed
BUNDLE_PATTERNS = {3: (2, 1), 4: (2, 1, 1), 6: (3, 2, 1), 8: (3, 2, 2, 1)}


def _cplx(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _read_blocks(blocks) -> list:
    return [np.array([[complex(re, im) for re, im in row] for row in b]) for b in blocks]


class CliMix:
    """Generator and oracles of cli_mix; files live under ``workdir``."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write(self, name: str, doc) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def _outputs(self, *names):
        out = [self.path(n) for n in names]
        for p in out:
            if os.path.exists(p):
                os.remove(p)
        return out

    def _problem(self, rng, dims, beta=None, integer=False):
        # integer levels 0, 1, 2, … give period 2π and degrees fixed by the block size
        blocks = [with_spectrum(rng, np.arange(n, dtype=float)) if integer
                  else known_hermitian(rng, n, float(rng.uniform(0.5, 2.5))) for n in dims]
        doc = {"block_dims": list(dims), "generator": [_cplx(h) for _, _, h in blocks]}
        if beta is not None:
            doc["beta"] = beta
        return blocks, self._write("problem.json", doc)

    # -- generation -------------------------------------------------------------

    def make(self, slot, rng) -> dict:
        kind, size = slot
        return getattr(self, f"_make_{kind}")(size, rng)

    def _make_gibbs(self, dims, rng):
        beta = float(rng.uniform(-3.0, 3.0))
        blocks, prob = self._problem(rng, dims, beta)
        (out,) = self._outputs("gibbs.json")
        return {"argv": ["gibbs", "--problem", prob, "--out", out], "code": 0,
                "out": out, "blocks": blocks, "beta": beta}

    def _make_verify_gibbs(self, dims, rng):
        beta = float(rng.uniform(-3.0, 3.0))
        _, prob = self._problem(rng, dims, beta)
        (out,) = self._outputs("verify.json")
        return {"argv": ["verify", "--problem", prob, "--out", out], "code": 0, "out": out}

    def _make_verify_trace(self, dims, rng):
        beta = float(rng.uniform(0.5, 3.0)) * float(rng.choice([-1.0, 1.0]))
        blocks, prob = self._problem(rng, dims)
        d = sum(dims)
        state = self._write("state.json", {"blocks": [_cplx(np.eye(n) / d) for n in dims]})
        (out,) = self._outputs("verify.json")
        spread = max(lam.max() - lam.min() for lam, _, _ in blocks)
        return {"argv": ["verify", "--problem", prob, "--state", state, "--beta", repr(beta),
                         "--out", out],
                "code": 1, "out": out, "defect": math.expm1(abs(beta) * spread) / d}

    def _make_simplex(self, dims, rng):
        beta = float(rng.uniform(-3.0, 3.0))
        blocks, prob = self._problem(rng, dims, beta)
        (out,) = self._outputs("simplex.json")
        return {"argv": ["simplex", "--problem", prob, "--out", out], "code": 0, "out": out,
                "blocks": blocks, "beta": beta}

    def _make_sweep(self, steps, rng):
        dims = (2, 3)
        _, prob = self._problem(rng, dims)
        lo = float(rng.uniform(-3.0, 0.0))
        hi = lo + float(rng.uniform(1.0, 3.0))
        (out,) = self._outputs("sweep.csv")
        return {"argv": ["simplex", "--problem", prob, f"--beta-range={lo!r}:{hi!r}:{steps}",
                         "--out", out],
                "code": 0, "out": out, "lo": lo, "hi": hi, "steps": steps, "dims": dims}

    def _make_modular(self, dims, rng):
        beta = float(rng.uniform(-2.0, 2.0))
        blocks, prob = self._problem(rng, dims, beta)
        (out,) = self._outputs("modular.json")
        return {"argv": ["modular", "--problem", prob, "--out", out], "code": 0, "out": out,
                "blocks": blocks, "beta": beta}

    def _element(self, rng, dims):
        a = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) for n in dims]
        return a, self._write("element.json", {"blocks": [_cplx(m) for m in a]})

    def _make_fejer(self, dims, rng):
        blocks, prob = self._problem(rng, dims, integer=True)
        a, elem = self._element(rng, dims)
        order = int(rng.integers(0, 5))
        (out,) = self._outputs("fejer.json")
        return {"argv": ["fejer", "--problem", prob, "--element", elem, "--order", str(order),
                         "--out", out],
                "code": 0, "out": out, "blocks": blocks, "a": a, "order": order}

    def _make_decompose(self, dims, rng):
        blocks, prob = self._problem(rng, dims, integer=True)
        a, elem = self._element(rng, dims)
        (out,) = self._outputs("decompose.csv")
        return {"argv": ["decompose", "--problem", prob, "--element", elem, "--out", out],
                "code": 0, "out": out, "blocks": blocks, "a": a}

    def _diagonal_spec(self, rng, rank, exact: bool):
        if exact:
            pool = [Fraction(p, q) for p, q in ((1, 1), (1, 2), (1, 3), (2, 3), (1, 5), (3, 7),
                                                (5, 4), (3, 2))]
        else:
            # denominators beyond 10^6 keep e^{-β} from being promoted to a rational
            pool = [Fraction(int(q * f), q) for f, q in ((0.61803, 10 ** 7 + 19),
                                                         (0.41421, 10 ** 7 + 79),
                                                         (0.27183, 10 ** 7 + 103),
                                                         (1.31416, 10 ** 7 + 121))]
        # the exact lane at rank 8 is the tail class: a fixed set of values
        # without 1 (specs with a 1 ran at two costs, about 200 and 340 ms),
        # so only the order and the units depend on the seed
        picks = ((1, 2, 3, 5) if exact and rank == 8
                 else rng.choice(len(pool), size=len(BUNDLE_PATTERNS[rank]), replace=False))
        values = [pool[int(p)] for p, m in zip(picks, BUNDLE_PATTERNS[rank]) for _ in range(m)]
        values = [values[int(i)] for i in rng.permutation(rank)]
        unit = [Fraction(int(u)) for u in rng.integers(1, 5, rank)]
        doc = {"rank": rank,
               "rho": [[str(values[i]) if i == j else 0 for j in range(rank)]
                       for i in range(rank)],
               "unit": [str(u) for u in unit]}
        return values, unit, self._write("dg.json", doc)

    def _make_bundle(self, rank, rng, exact):
        values, unit, dg = self._diagonal_spec(rng, rank, exact)
        table, js = self._outputs("bundle.csv", "bundle.json")
        return {"argv": ["bundle", "--dg", dg, "--out", table, "--json", js], "code": 0,
                "out": js, "csv": table, "values": values, "unit": unit, "exact": exact}

    def _make_bundle_exact(self, rank, rng):
        return self._make_bundle(rank, rng, True)

    def _make_bundle_float(self, rank, rng):
        return self._make_bundle(rank, rng, False)

    def _make_point_bundle(self, count, rng):
        levels = [float(x) for x in rng.integers(0, 3, count)]
        labels = [f"p{i}" for i in range(count)]
        level = levels[int(rng.integers(0, count))]
        pts = self._write("points.json", {"points": [{"label": lb, "level": lv}
                                                     for lb, lv in zip(labels, levels)]})
        (out,) = self._outputs("points_out.json")
        members = sorted(lb for lb, lv in zip(labels, levels) if lv == level)
        return {"argv": ["point-bundle", "--points", pts, "--level", repr(level), "--out", out],
                "code": 0, "out": out, "members": members}

    def _make_matroid(self, _, rng):
        kind = ("seven_adic", "factorial")[int(rng.integers(0, 2))]
        edge = math.log(7.0) if kind == "seven_adic" else 1.0
        beta = edge + float(rng.uniform(0.05, 1.0)) * float(rng.choice([-1.0, 1.0]))
        bounded = beta > edge if kind == "seven_adic" else beta < edge
        fam = self._write("family.json", {"kind": kind})
        (out,) = self._outputs("matroid.json")
        return {"argv": ["matroid", "--family", fam, "--beta", repr(beta), "--out", out],
                "code": 0, "out": out, "verdict": "bounded" if bounded else "unbounded"}

    def _make_window(self, _, rng):
        r = float(rng.uniform(0.5, 3.0))
        kind = ("zero", "power", "power_log", "negated")[int(rng.integers(0, 4))]
        doc = {"kind": kind}
        if kind in ("power", "power_log"):
            doc["r"] = r
            want = {"empty": False, "lower": r, "upper": None,
                    "lower_closed": kind == "power_log", "upper_closed": False}
        elif kind == "negated":
            doc["inner"] = {"kind": "power", "r": r}
            want = {"empty": False, "lower": None, "upper": -r,
                    "lower_closed": False, "upper_closed": False}
        else:
            want = {"empty": True}
        fam = self._write("window_family.json", doc)
        (out,) = self._outputs("window.json")
        return {"argv": ["window", "--family", fam, "--out", out], "code": 0, "out": out,
                "want": want}

    def _itpfi(self, rng):
        kappa = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0]))
        cyclic = bool(rng.integers(0, 2))
        lam = np.array([0.0, kappa, 2.0 * kappa] if cyclic else [0.0, kappa, math.sqrt(2) * kappa])
        _, _, h = with_spectrum(rng, lam)
        path = self._write("itpfi.json", {"site_generator": _cplx(h), "beta": beta})
        return path, kappa, beta, cyclic

    def _make_factor_type(self, _, rng):
        path, kappa, beta, cyclic = self._itpfi(rng)
        (out,) = self._outputs("factor_type.json")
        return {"argv": ["factor-type", "--itpfi", path, "--out", out], "code": 0, "out": out,
                "tag": "III_lambda" if cyclic else "III_1",
                "lambda": math.exp(-abs(beta) * kappa) if cyclic else 1.0}

    def _make_gamma(self, _, rng):
        path, kappa, beta, cyclic = self._itpfi(rng)
        (out,) = self._outputs("gamma.json")
        return {"argv": ["gamma", "--itpfi", path, "--out", out], "code": 0, "out": out,
                "kind": "cyclic" if cyclic else "full_line",
                "generator": abs(beta) * kappa if cyclic else None}

    def _make_measure(self, _, rng):
        doc = {"lam": float(rng.uniform(1.5, 4.0)), "beta": float(rng.uniform(-2.0, -0.1)),
               "kind": "density"}
        meas = self._write("measure.json", doc)
        (out,) = self._outputs("measure_out.json")
        return {"argv": ["measure", "--measure", meas, "--out", out], "code": 0, "out": out}

    def _grid(self, rng, step, half, perturb):
        k = int(round(half / step))
        _, phases = coboundary_phases(rng, step * np.arange(-k, k + 1))
        if perturb:
            phases = perturbed(rng, phases, k)
        path = self._write("grid.json", {"step": step, "half_range": half,
                                         "values": phases.tolist()})
        return k, path

    def _make_cocycle_check(self, grid, rng):
        k, path = self._grid(rng, *grid, perturb=False)
        (rep,) = self._outputs("cocycle.json")
        return {"argv": ["cocycle", "check", "--in", path, "--report", rep, "--tol", "1e-8"],
                "code": 0, "out": rep, "triples": in_range_triples(k)}

    def _make_cocycle_bad(self, grid, rng):
        k, path = self._grid(rng, *grid, perturb=True)
        (rep,) = self._outputs("cocycle.json")
        return {"argv": ["cocycle", "check", "--in", path, "--report", rep, "--tol", "1e-6"],
                "code": 1, "out": rep, "triples": in_range_triples(k)}

    def _make_cuntz(self, _, rng):
        m = int(rng.integers(2, 6))
        a = [int(x) for x in rng.integers(1, m + 1, int(rng.integers(0, 5)))]
        b = list(a) if rng.integers(0, 2) else [int(x) for x in rng.integers(1, m + 1, len(a))]
        rho = float(rng.uniform(0.5, 7.0))
        (out,) = self._outputs("cuntz.json")
        value = Fraction(1, m ** len(a)) if a == b else Fraction(0)
        return {"argv": ["cuntz", "--m", str(m), "--a", ",".join(map(str, a)),
                         "--b", ",".join(map(str, b)), "--rho", repr(rho), "--out", out],
                "code": 0, "out": out, "value": str(value), "beta": math.log(m) / rho}

    def _make_malformed(self, variant, rng):
        (out,) = self._outputs("bad_out.json")
        if variant == "empty_sweep":
            _, prob = self._problem(rng, (2,))
            return {"argv": ["simplex", "--problem", prob, "--beta-range=0:1:0", "--out", out],
                    "code": 2, "out": None}
        if variant == "truncated":
            text = json.dumps({"block_dims": [2], "generator": [[[0, 0], [0, 1]]]})
            prob = self._write("bad.json", text[:int(rng.integers(5, len(text) - 1))])
        elif variant == "schema":
            prob = self._write("bad.json", {"block_dims": [2], "generator": "not-a-matrix"})
        else:
            prob = self._write("bad.json", {"block_dims": [3], "generator": [[[0, 0], [0, 1]]]})
        return {"argv": ["gibbs", "--problem", prob, "--beta", "1.0", "--out", out],
                "code": 2, "out": None}

    # -- the op and its oracles -----------------------------------------------------

    @staticmethod
    def run(inp):
        import kmslab.cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = kmslab.cli.main(inp["argv"])
            except SystemExit as e:          # argparse refusals
                code = e.code
        return {"code": code, "text": sink.getvalue()}

    def check(self, kind, inp, out):
        expect(out["code"] == inp["code"],
               f"{kind}: exit code {out['code']}, expected {inp['code']}: {out['text'][-200:]}")
        if inp["out"] is None:
            expect("error:" in out["text"], f"{kind}: no diagnostic for malformed input")
            return
        with open(inp["out"], newline="") as fh:
            doc = list(csv.reader(fh)) if inp["out"].endswith(".csv") else json.load(fh)
        getattr(self, f"_check_{kind}")(inp, doc)

    def _check_gibbs(self, inp, doc):
        ref, _ = gibbs_closed_form(inp["blocks"], inp["beta"])
        for got, want in zip(_read_blocks(doc["blocks"]), ref):
            expect(np.max(np.abs(got - want)) <= 1e-10, "gibbs: density differs from e^{-βh}/Z")

    def _check_verify_gibbs(self, inp, doc):
        expect(doc["passed"] is True and doc["max_residual"] <= 1e-8,
               "verify: Gibbs state rejected")

    def _check_verify_trace(self, inp, doc):
        expect(doc["passed"] is False, "verify: tracial state accepted")
        expect(abs(doc["residual_exchange"] - inp["defect"]) <= 1e-9 * max(1.0, inp["defect"]),
               f"verify: defect {doc['residual_exchange']!r} != {inp['defect']!r}")

    def _check_simplex(self, inp, doc):
        blocks, beta = inp["blocks"], inp["beta"]
        expect(doc["dimension"] == len(blocks) - 1 and len(doc["vertices"]) == len(blocks),
               "simplex: wrong dimension")
        for i, vertex in enumerate(doc["vertices"]):
            ref, _ = gibbs_closed_form([blocks[i]], beta)
            got = _read_blocks(vertex)
            expect(np.max(np.abs(got[i] - ref[0])) <= 1e-10, "simplex: vertex is not a block Gibbs state")
            expect(all(np.max(np.abs(g)) == 0 for j, g in enumerate(got) if j != i),
                   "simplex: vertex charges another block")

    def _check_sweep(self, inp, rows):
        n = inp["steps"]
        betas = inp["lo"] + (inp["hi"] - inp["lo"]) * np.arange(n) / n
        expect(rows[0] == ["beta", "dimension", "vertex_count"] and len(rows) == n + 1,
               "sweep: wrong CSV shape")
        nb = len(inp["dims"])
        for row, b in zip(rows[1:], betas):
            expect(float(row[0]) == float(b) and row[1:] == [str(nb - 1), str(nb)],
                   f"sweep: row {row} at β = {b!r}")

    def _check_modular(self, inp, doc):
        expect(doc["passed"] is True and doc["route_gap"] <= 1e-9, "modular: routes disagree")
        expect(doc["center_dimension"] == len(inp["blocks"]), "modular: wrong center")
        dens, _ = gibbs_closed_form(inp["blocks"], inp["beta"])
        ratios = []
        for d in dens:
            p = np.linalg.eigvalsh(d)
            ratios.extend((p[:, None] / p[None, :]).reshape(-1))
        ref = np.sort(ratios)
        got = np.array(doc["delta_eigenvalues"])
        expect(got.shape == ref.shape and np.max(np.abs(got - ref) / ref) <= 1e-9,
               "modular: Δ spectrum differs from {p_a/p_b}")

    @staticmethod
    def _eigen_parts(inp):
        for (lam, q, _), a in zip(inp["blocks"], inp["a"]):
            yield lam[:, None] - lam[None, :], q, q.conj().T @ a @ q

    def _check_fejer(self, inp, doc):
        order = inp["order"]
        got = _read_blocks(doc["blocks"])
        for (deg, q, a_eig), g in zip(self._eigen_parts(inp), got):
            wgt = np.maximum(0.0, 1.0 - np.abs(deg) / (order + 1.0))
            expect(rel_gap(g, q @ (wgt * a_eig) @ q.conj().T) <= 1e-10,
                   "fejer: mean differs from the closed-form weights")
        expect(doc["norm_mean"] <= doc["norm_input"] + 1e-12, "fejer: mean is not contractive")

    def _check_decompose(self, inp, rows):
        want = {}
        for deg, _, a_eig in self._eigen_parts(inp):
            for k in np.unique(np.rint(deg)).astype(int):
                want[int(k)] = want.get(int(k), 0.0) + float(
                    np.sum(np.abs(a_eig[np.rint(deg) == k]) ** 2))
        expect(rows[0] == ["degree", "frobenius_norm"], "decompose: wrong header")
        got = {int(r[0]): float(r[1]) for r in rows[1:]}
        expect(sorted(got) == sorted(want), f"decompose: degrees {sorted(got)} != {sorted(want)}")
        for k, v in got.items():
            expect(abs(v - math.sqrt(want[k])) <= 1e-10 * max(1.0, v),
                   f"decompose: degree {k} norm {v!r} != {math.sqrt(want[k])!r}")

    def _check_bundle(self, inp, doc):
        values, unit = inp["values"], inp["unit"]
        levels = sorted(set(values), key=lambda s: -math.log(s))
        expect(len(doc["betas"]) == len(levels), "bundle: wrong β-spectrum size")
        for b, s, dim, count, exact in zip(doc["betas"], levels, doc["dimensions"],
                                            doc["vertex_counts"], doc["exact"]):
            mult = values.count(s)
            expect(abs(b + math.log(s)) <= 1e-9, f"bundle: β {b!r} != -log {s}")
            expect(count == mult and dim == mult - 1, "bundle: fiber differs from the support rule")
            expect(exact is inp["exact"], "bundle: took the wrong arithmetic lane")
        with open(inp["csv"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for row, s in zip(rows, levels):
            got = sorted(tuple(float(x) for x in v.split()) for v in row[3].split(" | "))
            want = sorted(tuple(float(1 / unit[i]) if j == i else 0.0 for j in range(len(values)))
                          for i in range(len(values)) if values[i] == s)
            expect(np.allclose(got, want, rtol=1e-10, atol=1e-12),
                   "bundle: vertices differ from e_i/u_i")

    _check_bundle_exact = _check_bundle_float = _check_bundle

    def _check_point_bundle(self, inp, doc):
        expect(sorted(doc["members"]) == inp["members"]
               and doc["vertex_count"] == len(inp["members"]), "point-bundle: wrong level set")

    def _check_matroid(self, inp, doc):
        expect(doc["verdict"] == inp["verdict"], f"matroid: verdict {doc['verdict']}")

    def _check_window(self, inp, doc):
        for key, value in inp["want"].items():
            expect(doc[key] == value, f"window: {key} = {doc[key]!r}, expected {value!r}")

    def _check_factor_type(self, inp, doc):
        expect(doc["tag"] == inp["tag"], f"factor-type: tag {doc['tag']}")
        expect(abs(doc["lambda_value"] - inp["lambda"]) <= 1e-9, "factor-type: wrong λ")

    def _check_gamma(self, inp, doc):
        expect(doc["kind"] == inp["kind"], f"gamma: kind {doc['kind']}")
        if inp["generator"] is not None:
            expect(abs(doc["generator"] - inp["generator"]) <= 1e-9, "gamma: wrong generator")

    def _check_measure(self, inp, doc):
        expect(doc["passed"] is True and doc["max_residual"] <= 1e-8 and doc["checked"] == 2,
               "measure: scaling check fails")

    def _check_cocycle_check(self, inp, doc):
        expect(doc["passed"] is True and doc["max_identity_residual"] <= 1e-8,
               "cocycle check: coboundary rejected")
        expect(doc["checked"] == inp["triples"] and doc["skipped"] == 0,
               f"cocycle check: {doc['checked']} triples, expected {inp['triples']}")

    def _check_cocycle_bad(self, inp, doc):
        expect(doc["passed"] is False and doc["max_identity_residual"] > 1.0,
               "cocycle check: perturbed grid accepted")
        expect(doc["checked"] == inp["triples"], "cocycle check: wrong triple count")

    def _check_cuntz(self, inp, doc):
        expect(doc["value"] == inp["value"], f"cuntz: value {doc['value']}")
        expect(abs(doc["gauge_beta"] - inp["beta"]) <= 1e-15 * abs(inp["beta"]),
               "cuntz: wrong gauge β")


def cli_workload(workdir: str) -> Workload:
    mix = CliMix(workdir)
    kinds = {kind: (CliMix.run, (lambda k: lambda inp, out: mix.check(k, inp, out))(kind))
             for kind, _ in CLI_SLOTS}
    warm, seen = [], set()
    for kind, size in CLI_SLOTS:
        if kind not in seen:
            seen.add(kind)
            warm.append((kind, size))
    return Workload(
        name="cli_mix", slots=CLI_SLOTS, make=mix.make, kinds=kinds, warmup_slots=warm,
        tail_pct=88.0, trace_rounds=2, round_s=4.0,
        mix=(f"rounds of {len(CLI_SLOTS)} in-process calls: "
             + ", ".join(f"{k}{'' if s is None else ' ' + str(s)}" for k, s in CLI_SLOTS)
             + "; each malformed input expects exit 2"))
