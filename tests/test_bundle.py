"""Dimension-group fibers, point bundles, and self-similar measures."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmslab import (
    AlgElement,
    BlockAlgebra,
    BundleCertificate,
    DimensionGroupSpec,
    InnerFlow,
    PointBundleSpec,
    beta_spectrum,
    bundle_from_points,
    diagonal_fiber,
    fiber_simplex,
    kms_bundle_fd,
    kms_simplex,
    random_hermitian,
    scaling_measure,
    verify_scaling,
)
from kmslab.bundle import (FLOAT_ZERO_TOL, _EXACT, _FLOAT, Atom, Interval, _dd_cone, _fiber_rows,
                           _rank_exact, _rational_eigenvalue, _tight_rank_exact)

F = Fraction


def _diag_spec(entries, unit=None):
    r = len(entries)
    m = tuple(tuple(F(entries[i]) if i == j else F(0) for j in range(r)) for i in range(r))
    u = tuple(F(1) for _ in range(r)) if unit is None else tuple(F(x) for x in unit)
    return DimensionGroupSpec(matrix=m, order_unit=u)


def _rational_q6():
    return _diag_spec([1, F(1, 7), F(1, 7), F(1, 3), F(1, 3), F(1, 3)])


def test_rational_rank6_spectrum():
    spec = _rational_q6()
    betas = beta_spectrum(spec)
    expect = [0.0, math.log(3.0), math.log(7.0)]
    assert len(betas) == 3
    for b, e in zip(sorted(betas), expect):
        assert abs(b - e) < 1e-12


def test_rational_rank6_fiber_shapes():
    spec = _rational_q6()
    shapes = []
    for b in sorted(beta_spectrum(spec)):
        f = fiber_simplex(spec, b)
        assert f.exact
        shapes.append((f.dimension, f.vertex_count))
    assert shapes == [(0, 1), (2, 3), (1, 2)]


def test_fiber_vertices_are_exact_eigenvectors():
    spec = _rational_q6()
    rho_t = list(zip(*spec.matrix))
    for b, s in [(math.log(3.0), F(1, 3)), (math.log(7.0), F(1, 7))]:
        f = fiber_simplex(spec, b)
        for v in f.vertices_exact:
            image = tuple(sum(rho_t[i][j] * v[j] for j in range(6)) for i in range(6))
            assert image == tuple(s * x for x in v)
            assert sum(v) == 1            # normalized against the all-ones unit
            assert all(x >= 0 for x in v)


def test_double_description_matches_support_rule():
    """Sweep vs. the independent diagonal-support oracle on random diagonal specs."""
    rng = np.random.default_rng(404)
    for _ in range(10):
        r = int(rng.integers(2, 6))
        pool = [F(1), F(1, 2), F(1, 3), F(2), F(1, 7)]
        entries = [pool[i] for i in rng.integers(0, len(pool), size=r)]
        spec = _diag_spec(entries)
        for s in set(entries):
            oracle = diagonal_fiber(spec, s)
            swept = fiber_simplex(spec, -math.log(float(s)))
            assert swept.exact
            assert sorted(swept.vertices_exact) == oracle


def test_support_rule_rejects_off_diagonal():
    spec = DimensionGroupSpec(matrix=((F(1), F(1)), (F(0), F(2))),
                              order_unit=(F(1), F(1)))
    with pytest.raises(ValueError, match="diagonal"):
        diagonal_fiber(spec, F(1))


def test_positivity_prunes_spectrum():
    # rho^T has eigenvalue 1, but its eigenvector mixes signs: no fiber there
    spec = DimensionGroupSpec(matrix=((F(1), F(1)), (F(0), F(2))),
                              order_unit=(F(1), F(1)))
    betas = beta_spectrum(spec)
    assert len(betas) == 1
    assert abs(betas[0] + math.log(2.0)) < 1e-12    # s = 2 → β = -log 2
    f = fiber_simplex(spec, betas[0])
    assert f.vertex_count == 1


def test_unit_rescaling_halves_vertices():
    base = _diag_spec([1, F(1, 3), F(1, 3)])
    doubled = _diag_spec([1, F(1, 3), F(1, 3)], unit=[2, 2, 2])
    assert [round(b, 12) for b in beta_spectrum(base)] == \
           [round(b, 12) for b in beta_spectrum(doubled)]
    fb = fiber_simplex(base, math.log(3.0))
    fd = fiber_simplex(doubled, math.log(3.0))
    assert sorted(fd.vertices_exact) == sorted(
        tuple(x / 2 for x in v) for v in fb.vertices_exact)


def test_empty_fiber_off_spectrum():
    spec = _rational_q6()
    f = fiber_simplex(spec, 0.5)   # e^{-1/2} is not an eigenvalue
    assert f.is_empty
    assert f.vertex_count == 0


def test_float_lane_fiber_matches_support_rule():
    """Denominators above 10⁶ keep e^{-β} off the exact lane; the float sweep
    must still find every vertex e_i/u_i of the support rule."""
    a, b, c = (F(int(f * q), q) for f, q in ((0.61803, 10 ** 7 + 19), (0.41421, 10 ** 7 + 79),
                                             (1.31416, 10 ** 7 + 121)))
    spec = _diag_spec([a, b, a, c, b, a], unit=[2, 1, 3, 1, 4, F(5, 2)])
    assert [round(x, 12) for x in beta_spectrum(spec)] == \
           sorted(round(-math.log(float(s)), 12) for s in (a, b, c))
    for s, mult in ((a, 3), (b, 2), (c, 1)):
        f = fiber_simplex(spec, -math.log(float(s)))
        assert f.exact is False and f.vertices_exact is None
        oracle = diagonal_fiber(spec, s)
        assert f.vertex_count == len(oracle) == mult
        assert f.dimension == mult - 1
        for v, w in zip(f.vertices, oracle):
            assert np.max(np.abs(v - np.array([float(x) for x in w]))) <= 1e-9


# -- the one sweep against the two it replaced, kept verbatim as oracles ---------------

def _reference_rank_exact(rows: list[tuple[F, ...]], dim: int) -> int:
    mat = [list(r) for r in rows]
    rank, col = 0, 0
    while rank < len(mat) and col < dim:
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / pv
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def _reference_normalize_ray_exact(v: tuple[F, ...]) -> tuple[F, ...]:
    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in v]
    g = 0
    for i in ints:
        g = math.gcd(g, abs(i))
    if g == 0:
        return tuple(F(0) for _ in v)
    return tuple(F(i, g) for i in ints)


def _reference_dd_cone_exact(rows: list[tuple[F, ...]], dim: int) -> list[tuple[F, ...]]:
    rays = [tuple(F(1 if i == j else 0) for j in range(dim)) for i in range(dim)]
    seen_rows: list[tuple[F, ...]] = []
    for row in rows:
        vals = [sum(r * g for r, g in zip(row, ray)) for ray in rays]
        zero = [ray for ray, v in zip(rays, vals) if v == 0]
        plus = [(ray, v) for ray, v in zip(rays, vals) if v > 0]
        minus = [(ray, v) for ray, v in zip(rays, vals) if v < 0]
        fresh = [_reference_normalize_ray_exact(tuple(vp * a - vm * b for a, b in zip(gm, gp)))
                 for gp, vp in plus for gm, vm in minus]
        seen_rows.append(row)
        kept: dict[tuple, tuple] = {}
        for ray in zero + fresh:
            if all(x == 0 for x in ray) or ray in kept:
                continue
            tight = list(seen_rows)
            for i, x in enumerate(ray):
                if x == 0:
                    tight.append(tuple(F(1 if j == i else 0) for j in range(dim)))
            if _reference_rank_exact(tight, dim) == dim - 1:
                kept[ray] = ray
        rays = list(kept.values())
        if not rays:
            return []
    return rays


def _reference_dd_cone_float(rows: list[np.ndarray], dim: int) -> list[np.ndarray]:
    rays = [e for e in np.eye(dim)]
    seen_rows: list[np.ndarray] = []
    for row in rows:
        scale = max(1.0, float(np.max(np.abs(row))))
        vals = [float(row @ g) for g in rays]
        zero = [g for g, v in zip(rays, vals) if abs(v) <= FLOAT_ZERO_TOL * scale]
        plus = [(g, v) for g, v in zip(rays, vals) if v > FLOAT_ZERO_TOL * scale]
        minus = [(g, v) for g, v in zip(rays, vals) if v < -FLOAT_ZERO_TOL * scale]
        fresh = []
        for gp, vp in plus:
            for gm, vm in minus:
                cand = vp * gm - vm * gp
                fresh.append(cand / np.linalg.norm(cand))
        seen_rows.append(row)
        kept: dict[tuple, np.ndarray] = {}
        for ray in zero + fresh:
            if np.linalg.norm(ray) < FLOAT_ZERO_TOL:
                continue
            ray = ray / np.linalg.norm(ray)
            key = tuple(np.round(ray / np.max(np.abs(ray)), 8))
            if key in kept:
                continue
            tight = list(seen_rows)
            for i in range(dim):
                if abs(ray[i]) <= FLOAT_ZERO_TOL:
                    tight.append(np.eye(dim)[i])
            if np.linalg.matrix_rank(np.array(tight), tol=1e-9) == dim - 1:
                kept[key] = ray
        rays = list(kept.values())
        if not rays:
            return []
    return rays


def _assert_same_rays(rows, dim):
    """Both lanes of the sweep give the reference sweeps' rays, in order, bit for bit."""
    got = _dd_cone([_EXACT.vector(r) for r in rows], dim, _EXACT)
    ref = _reference_dd_cone_exact([tuple(F(x) for x in r) for r in rows], dim)
    assert [tuple(g) for g in got] == ref
    frows = [np.array([float(x) for x in r]) for r in rows]
    got = _dd_cone(frows, dim, _FLOAT)
    ref = _reference_dd_cone_float(frows, dim)
    assert len(got) == len(ref)
    assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))
    return len(ref)


def _cone_rows(matrix, unit, s):
    r = len(unit)
    rows = [[matrix[i][j] - (s if i == j else 0) for i in range(r)] + [0] for j in range(r)]
    return rows + [list(unit) + [-1]]


def test_sweep_matches_reference_sweeps_on_fiber_rows():
    rng = np.random.default_rng(2718)
    pool = [F(1), F(1, 2), F(1, 3), F(2, 3), F(5, 4), F(3, 7)]
    nonempty = 0
    for trial in range(16):
        r = int(rng.integers(2, 9))
        diag = [pool[int(i)] for i in rng.integers(0, len(pool), size=r)]
        m = [[diag[i] if i == j else F(0) for j in range(r)] for i in range(r)]
        if trial % 2:                    # upper triangular: the diagonal stays the spectrum
            for i in range(r):
                for j in range(i + 1, r):
                    if rng.random() < 0.3:
                        m[i][j] = F(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        unit = [F(int(u), int(rng.integers(1, 3))) for u in rng.integers(1, 5, r)]
        for s in sorted(set(diag))[:2] + [F(4, 5)]:      # F(4, 5) is never an eigenvalue
            nonempty += _assert_same_rays(_cone_rows(m, unit, s), r + 1) > 0
    assert nonempty >= 16


def test_sweep_matches_reference_sweeps_on_degenerate_rows():
    rng = np.random.default_rng(3141)
    for _ in range(24):
        dim = int(rng.integers(2, 10))
        rows = [list(rng.integers(-2, 3, size=dim)) for _ in range(int(rng.integers(1, 4)))]
        rows.insert(int(rng.integers(0, len(rows) + 1)), [0] * dim)        # zero row
        rows.append(list(rows[int(rng.integers(0, len(rows)))]))           # repeated row
        rows.append([2 * x for x in rows[int(rng.integers(0, len(rows)))]])  # multiple of one
        _assert_same_rays(rows, dim)


def test_fiber_simplex_vertices_match_reference_sweeps():
    """fiber_simplex end to end: vertices equal those of the old sweeps and
    post-processing, in both lanes."""
    q = 10 ** 7 + 19
    specs = [_rational_q6(),
             _diag_spec([F(1, 2), F(1, 3), F(1, 2), F(2, 3), F(1, 3), F(1, 2), F(1, 5), F(1, 3)],
                        unit=[1, 3, 2, 4, 1, 2, 3, 1]),
             _diag_spec([F(6180, q), F(1, 3), F(6180, q), F(2, 7)], unit=[3, 1, 2, 2])]
    for spec in specs:
        r = spec.rank
        for b in beta_spectrum(spec):
            f = fiber_simplex(spec, b)
            s = math.exp(-b)
            if f.exact:
                s_exact = F(s).limit_denominator(10 ** 6)
                rays = _reference_dd_cone_exact(
                    [tuple(row) for row in _cone_rows(spec.matrix, spec.order_unit, s_exact)],
                    r + 1)
                ref = sorted(tuple(x / ray[-1] for x in ray[:-1]) for ray in rays if ray[-1] > 0)
                assert f.vertices_exact == ref
            else:
                rows = [np.array([float(x) for x in row])
                        for row in _cone_rows(spec.matrix, spec.order_unit, s)]
                rays = _reference_dd_cone_float(rows, r + 1)
                ref = [ray[:-1] / ray[-1] for ray in rays if ray[-1] > FLOAT_ZERO_TOL]
                ref.sort(key=lambda v: tuple(np.round(v, 9)))
                assert [v.tobytes() for v in f.vertices] == [v.tobytes() for v in ref]


def test_integer_rank_matches_reference_rank():
    """Ranks by integer elimination equal those of the Fraction elimination they
    replaced, also with the unit rows counted apart as the sweep does."""
    rng = np.random.default_rng(1618)
    big = 10 ** 6 + 3

    def entry():
        kind = int(rng.integers(0, 5))
        if kind == 0:
            return int(rng.integers(-3, 4))
        if kind == 1:
            return F(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
        if kind == 2:                    # denominators above 10⁶
            return F(int(rng.integers(-big, big)), int(rng.integers(big, 10 * big)))
        return 0

    full = deficient = 0
    for trial in range(150):
        dim = int(rng.integers(1, 11))
        rows = [[entry() for _ in range(dim)] for _ in range(int(rng.integers(1, dim + 2)))]
        if trial % 3 == 0:
            rows.insert(int(rng.integers(0, len(rows) + 1)), [0] * dim)         # zero row
        if trial % 3 == 1:
            rows.append(list(rows[int(rng.integers(0, len(rows)))]))            # repeated row
        if trial % 4 == 2:
            k = F(int(rng.integers(1, 9)), big)                                 # scaled row
            rows.append([k * x for x in rows[int(rng.integers(0, len(rows)))]])
        ref = _reference_rank_exact([tuple(F(x) for x in r) for r in rows], dim)
        assert _rank_exact(rows, dim) == ref
        full += ref == dim
        deficient += ref < dim and len(rows) >= dim
        zeros = sorted(set(rng.integers(0, dim, size=int(rng.integers(0, dim + 1))).tolist()))
        units = [tuple(F(int(i == j)) for j in range(dim)) for i in zeros]
        arrays = [_EXACT.vector(r) for r in rows]
        assert _tight_rank_exact(arrays, zeros, dim) == \
            _reference_rank_exact([tuple(F(x) for x in r) for r in rows] + units, dim)
    assert full >= 20 and deficient >= 20


# -- properties: the sweep against its oracles, and the exact lane's number format ------

BIG = 10 ** 6
_ENTRY = st.one_of(st.just(0), st.integers(-3, 3),
                   st.builds(F, st.integers(-5, 5), st.integers(1, 6)),
                   st.builds(F, st.integers(-10 * BIG, 10 * BIG), st.integers(BIG + 1, 10 * BIG)))


@st.composite
def _degenerate_rows(draw):
    """Rational rows in dim ≤ 9, denominators up to 10⁷, with zero, repeated and
    scaled rows slipped in."""
    dim = draw(st.integers(2, 9))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=dim, max_size=dim), min_size=1, max_size=3))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "scale"]), max_size=3)):
        src = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 10 * BIG)))
        new = {"zero": [0] * dim, "repeat": list(src), "scale": [k * x for x in src]}[kind]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, dim


@given(_degenerate_rows())
def test_property_exact_sweep_matches_reference_sweep(case):
    rows, dim = case
    got = _dd_cone([_EXACT.vector(r) for r in rows], dim, _EXACT)
    assert [tuple(g) for g in got] == _reference_dd_cone_exact(
        [tuple(F(x) for x in r) for r in rows], dim)


_POOL = [F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(3, 7), F(5, 4), F(3, 2)]


@st.composite
def _diagonal_specs(draw, upper=False):
    """Rank ≤ 8 specs with diagonal values from a small pool and units 1–4; with
    ``upper``, some entries above the diagonal too, which keeps the diagonal the spectrum."""
    r = draw(st.integers(1, 8))
    diag = draw(st.lists(st.sampled_from(_POOL), min_size=r, max_size=r))
    m = [[diag[i] if i == j else F(0) for j in range(r)] for i in range(r)]
    if upper:
        for i in range(r):
            for j in range(i + 1, r):
                m[i][j] = draw(st.sampled_from([F(0), F(0), F(1, 2), F(1), F(2, 3)]))
    unit = draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))
    return DimensionGroupSpec(matrix=m, order_unit=unit), sorted(set(diag))


@given(_diagonal_specs())
def test_property_sweep_matches_support_rule(case):
    spec, values = case
    for s in values:
        f = fiber_simplex(spec, -math.log(float(s)))
        assert f.exact
        assert f.vertices_exact == diagonal_fiber(spec, s)


@given(_diagonal_specs(upper=True))
def test_property_exact_lane_matches_float_lane(case):
    spec, values = case
    key = lambda v: tuple(np.round(v, 9))              # noqa: E731
    for s in values:
        f = fiber_simplex(spec, -math.log(float(s)))
        assert f.exact
        rays = _dd_cone(_fiber_rows(spec, float(s), _FLOAT), spec.rank + 1, _FLOAT)
        floats = sorted((ray[:-1] / ray[-1] for ray in rays if ray[-1] > FLOAT_ZERO_TOL), key=key)
        assert len(floats) == f.vertex_count
        for v, w in zip(floats, sorted(f.vertices, key=key)):
            assert np.max(np.abs(v - w)) <= 1e-9


def _reference_rational_eigenvalue(spec, s_float):
    """The eigenvalue promotion before ρ was scaled to integers: ρᵀ − s in Fractions."""
    if s_float <= 0:
        return None
    for cand in {F(s_float).limit_denominator(cap) for cap in (10 ** 3, 10 ** 6)}:
        if abs(float(cand) - s_float) > 1e-9 * max(1.0, s_float):
            continue
        mt = [[spec.matrix[j][i] - (cand if i == j else 0) for j in range(spec.rank)]
              for i in range(spec.rank)]
        if _reference_rank_exact(mt, spec.rank) < spec.rank:
            return cand
    return None


@given(_diagonal_specs(upper=True), st.sampled_from(_POOL + [F(4, 5), F(7, 3)]))
def test_property_fiber_rows_match_the_fraction_rows(case, s):
    """Rows made from the spec's integer scaling equal the Fraction-built rows they
    replaced: the same primitive Python-int rows on the exact lane, the same floats
    on the float lane; and the eigenvalue promotion agrees."""
    spec, _ = case
    got = _fiber_rows(spec, s, _EXACT)
    assert all(type(x) is int for row in got for x in row)
    assert [list(g) for g in got] == [list(_EXACT.vector(r))
                                      for r in _cone_rows(spec.matrix, spec.order_unit, s)]
    got = _fiber_rows(spec, float(s), _FLOAT)
    want = [np.array(r, dtype=float) for r in _cone_rows(spec.matrix, spec.order_unit, float(s))]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    for s_float in (float(s), float(s) * (1 + 1e-7), math.sqrt(float(s))):
        assert _rational_eigenvalue(spec, s_float) == _reference_rational_eigenvalue(spec, s_float)


def test_exact_lane_holds_ints_and_gives_fraction_vertices():
    """Exact rays are Python ints and exact vertices Fractions; an int leaking into
    vertices_exact would compare equal to its Fraction, so the types are pinned here."""
    spec = _diag_spec([F(1, 2), F(1, 3), F(1, 2), F(2, 3), F(1, 3), F(1, 2), F(1, 5), F(1, 3)],
                      unit=[1, 3, 2, 4, 1, 2, 3, 1])
    for s in (F(1, 2), F(1, 3), F(1, 5)):
        rays = _dd_cone(_fiber_rows(spec, s, _EXACT), spec.rank + 1, _EXACT)
        assert rays and all(type(x) is int for ray in rays for x in ray)
        f = fiber_simplex(spec, -math.log(float(s)))
        assert f.vertices_exact and all(type(x) is F for v in f.vertices_exact for x in v)
    assert all(type(x) is int for ray in _dd_cone([], 3, _EXACT) for x in ray)


def test_singular_matrix_refused_and_rational_eigenvalue_found():
    big = 10 ** 6 + 3
    row = [F(1, big), F(2), F(3, 7)]
    with pytest.raises(ValueError, match="matrix is singular"):
        DimensionGroupSpec(matrix=[row, [F(5, 3) * x for x in row], [1, 0, F(1, big)]],
                           order_unit=[1, 1, 1])
    with pytest.raises(ValueError, match="matrix is singular"):
        DimensionGroupSpec(matrix=[[1, 0], [0, 0]], order_unit=[1, 1])
    # x² − (5/6)x + 1/9 = (x − 2/3)(x − 1/6): rational roots of a full positive matrix
    spec = DimensionGroupSpec(matrix=[[F(1, 2), F(1, 9)], [F(1, 2), F(1, 3)]],
                              order_unit=[1, 1])
    assert _rational_eigenvalue(spec, 2 / 3) == F(2, 3)
    assert _rational_eigenvalue(spec, 1 / 6) == F(1, 6)
    assert _rational_eigenvalue(spec, math.sqrt(0.5)) is None
    tri = DimensionGroupSpec(matrix=[[F(5, 999983), F(1, 2)], [0, F(1, 3)]], order_unit=[1, 2])
    assert _rational_eigenvalue(tri, 5 / 999983) == F(5, 999983)
    assert _rational_eigenvalue(tri, 1 / 3) == F(1, 3)
    assert _rational_eigenvalue(tri, 1 / 3 + 1e-6) is None


def test_point_bundle_level_sets():
    spec = PointBundleSpec.from_pairs([("a", 0.0), ("b", 1.0), ("c", 1.0), ("d", 2.5)])
    f0 = bundle_from_points(spec, 0.0)
    assert f0.vertex_count == 1 and f0.dimension == 0
    f1 = bundle_from_points(spec, 1.0)
    assert f1.vertex_count == 2 and f1.dimension == 1
    assert bundle_from_points(spec, 7.0).is_empty
    # vertices are exact dirac masses
    assert sorted(f1.vertices_exact) == [
        (F(0), F(0), F(1), F(0)), (F(0), F(1), F(0), F(0))]


def test_finite_dimensional_bundle_certificate():
    rng = np.random.default_rng(17)
    alg = BlockAlgebra((2, 2))
    flow = InnerFlow(alg, random_hermitian(alg, rng))
    grid = np.linspace(-2.0, 2.0, 21)
    fibers, cert = kms_bundle_fd(flow, grid)
    assert cert.ok
    assert cert.all_nonempty
    assert cert.vertex_counts == [2] * 21
    assert cert.lipschitz_bound >= cert.max_step_deviation
    assert len(fibers) == 21


def _reference_kms_bundle_fd(flow, beta_grid):
    """kms_bundle_fd before it ran on one Boltzmann stack, verbatim: one
    kms_simplex per grid point and one AlgElement.norm() SVD per vertex pair."""
    betas = [float(b) for b in beta_grid]
    if len(betas) < 2:
        raise ValueError("need at least two grid points")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("grid must be strictly increasing")
    simplices = [kms_simplex(flow, b) for b in betas]
    bound = 2.0 * flow.generator.norm()
    worst = 0.0
    for s1, s2, b1, b2 in zip(simplices, simplices[1:], betas, betas[1:]):
        step = b2 - b1
        for v1, v2 in zip(s1.vertices, s2.vertices):
            dist = (v1.density - v2.density).norm()
            worst = max(worst, dist / (bound * step)) if bound > 0 else worst
    counts = [len(s.vertices) for s in simplices]
    expected = flow.algebra.num_blocks
    ok = all(c == expected for c in counts) and worst <= 1.0 + 1e-9
    return simplices, BundleCertificate(all_nonempty=all(c > 0 for c in counts),
                                        vertex_counts=counts, lipschitz_bound=bound,
                                        max_step_deviation=worst, ok=ok)


@pytest.mark.parametrize("dims,scale,grid", [
    ((2, 2), 1.0, np.linspace(-2.0, 2.0, 21)),
    ((1, 3, 2), 3.0, [-4.0, -1.0, 0.0, 0.5, 3.0]),
    ((1, 1, 1, 1), 0.5, np.linspace(0.0, 1.0, 4)),
    ((32, 8, 2), 2.0, np.linspace(-1.5, 2.0, 9)),
    ((3,), 0.0, [0.0, 1.0, 2.0]),                          # h = 0: the bound is 0
])
def test_bundle_certificate_equals_the_loop_route(dims, scale, grid):
    alg = BlockAlgebra(dims)
    flow = InnerFlow(alg, random_hermitian(alg, np.random.default_rng(len(dims)), scale=scale))
    got_fibers, got = kms_bundle_fd(flow, grid)
    want_fibers, want = _reference_kms_bundle_fd(flow, grid)
    assert got == want
    assert [s.beta for s in got_fibers] == [s.beta for s in want_fibers]
    for s, w in zip(got_fibers, want_fibers):
        for v, u in zip(s.vertices, w.vertices):
            assert all(np.array_equal(a, b) for a, b in zip(v.density.blocks, u.density.blocks))


def _reference_norm(self):
    """AlgElement.norm as it was: an SVD of every nonempty block, zero or not."""
    return max(float(np.linalg.norm(a, 2)) if a.size else 0.0 for a in self.blocks)


def test_bundle_certificate_matches_the_svd_of_every_block(monkeypatch):
    rng = np.random.default_rng(2323)
    alg = BlockAlgebra((32, 8, 2))
    flow = InnerFlow(alg, random_hermitian(alg, rng, scale=2.0))
    grid = np.linspace(-1.5, 2.0, 9)
    _, got = kms_bundle_fd(flow, grid)
    monkeypatch.setattr(AlgElement, "norm", _reference_norm)
    _, want = kms_bundle_fd(flow, grid)
    assert got == want
    assert got.ok and got.max_step_deviation > 0.0


# -- self-similar measures ---------------------------------------------------------

def test_density_measure_scaling():
    mu = scaling_measure(lam=2.0, beta=-1.0, kind="density")
    sets = [(0.5, 1.5), (1.0, 3.0), (2.0, 2.5), Atom(1.0)]
    rep = verify_scaling(mu, sets)
    assert rep.max_residual <= 1e-12
    assert rep.checked == 4
    assert rep.out_of_window == 0


def test_density_alpha_zero_is_lebesgue():
    # β = -log λ makes α = 0: plain length, and scaling by λ = 2 doubles exactly
    mu = scaling_measure(lam=2.0, beta=-math.log(2.0), kind="density")
    assert mu.alpha == pytest.approx(0.0, abs=1e-15)
    assert mu.measure_of((1.0, 3.0)) == 2.0
    assert mu.measure_of((2.0, 6.0)) == 2.0 * mu.measure_of((1.0, 3.0))


def test_density_rejects_positive_beta():
    with pytest.raises(ValueError, match="pure point|density"):
        scaling_measure(lam=2.0, beta=0.5, kind="density")


def test_density_beta_zero_is_log_scale():
    mu = scaling_measure(lam=3.0, beta=0.0, kind="density")
    assert mu.measure_of((1.0, math.e)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="integrable"):
        mu.measure_of((0.0, 1.0))


def test_atomic_measure_exact_scaling():
    mu = scaling_measure(lam=2.0, beta=-math.log(2.0), kind="atomic", window=6,
                         lam_exact=F(2), base_exact=F(1, 2), x_exact=F(1))
    rep = verify_scaling(mu, [(1.0, 2.0), (0.25, 4.0), Atom(2.0)])
    assert rep.exact
    assert rep.max_residual == 0
    # atom weights double with each scale step: μ({2^k x}) = 2^k exactly
    assert mu.measure_of(Atom(4.0)) == F(4)
    assert mu.measure_of(Atom(0.25)) == F(1, 4)


def test_atomic_out_of_window_is_none_not_zero():
    mu = scaling_measure(lam=2.0, beta=-0.3, kind="atomic", window=3)
    assert mu.measure_of(Atom(2.0 ** 10)) is None
    assert mu.measure_of((0.0, 1.0)) is None          # reaches below coverage
    rep = verify_scaling(mu, [(1.0, 2.0), (2.0 ** 9, 2.0 ** 11)])
    assert rep.out_of_window == 1
    assert rep.checked == 1


def test_atomic_beta_zero_collapses_to_origin():
    mu = scaling_measure(lam=2.0, beta=0.0, kind="atomic", window=4)
    assert mu.kind == "dirac0"
    assert mu.measure_of(Atom(0.0)) == 1.0
    assert mu.measure_of((0.0, 5.0)) == 1.0
    assert mu.measure_of((1.0, 5.0)) == 0.0


def test_lambda_must_exceed_one():
    with pytest.raises(ValueError, match="λ|lam"):
        scaling_measure(lam=0.5, beta=-1.0)
