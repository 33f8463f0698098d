"""Dimension-group fibers, point bundles, and self-similar measures."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kmslab import (
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
from kmslab import kms
from kmslab.kms import EXP_CAP
from kmslab.bundle import (FLOAT_ZERO_TOL, MAX_RANK, Atom, Interval, _class_vertex, _echelon,
                           _eigen_rows, _integer_null, _primitive, _rational_eigenvalue)

F = Fraction


def _integer_row(xs):
    """A rational row (ints, Fractions or exact floats) scaled by the lcm of its
    denominators: a primitive integer row on the same hyperplane."""
    ratios = [x.as_integer_ratio() if isinstance(x, float)
              else (int(x.numerator), int(x.denominator)) for x in xs]
    lcm = math.lcm(*(d for _, d in ratios))
    return _primitive(np.array([n * (lcm // d) for n, d in ratios], dtype=object))


def _diag_spec(entries, unit=None):
    r = len(entries)
    m = tuple(tuple(F(entries[i]) if i == j else F(0) for j in range(r)) for i in range(r))
    u = tuple(F(1) for _ in range(r)) if unit is None else tuple(F(x) for x in unit)
    return DimensionGroupSpec(matrix=m, order_unit=u)


def _rational_q6():
    return _diag_spec([1, F(1, 7), F(1, 7), F(1, 3), F(1, 3), F(1, 3)])


def _rank_dimension(f):
    """The fiber's affine dimension by the rank of its vertex differences, the rule
    fiber_simplex used before it read the dimension off the vertex count."""
    if len(f.vertices) < 2:
        return len(f.vertices) - 1
    diffs = np.array([v - f.vertices[0] for v in f.vertices[1:]])
    return int(np.linalg.matrix_rank(diffs, tol=1e-9))


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
        assert f.exact and f.dimension == _rank_dimension(f)
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
    """fiber_simplex vs. the independent diagonal-support oracle on random diagonal specs."""
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
    assert f.vertex_count == 0 and f.dimension == _rank_dimension(f) == -1


def test_fiber_simplex_refuses_a_beta_past_the_float_range():
    """e^{-β} overflows below β ≈ −709.78; that used to escape as an OverflowError."""
    with pytest.raises(ValueError, match=r"beta = -800: the eigenvalue e\^-β is beyond"):
        fiber_simplex(_diag_spec([1, F(1, 2)]), -800.0)
    assert fiber_simplex(_diag_spec([1, F(1, 2)]), -709.0).is_empty


@pytest.mark.parametrize("entry", [math.inf, math.nan, 10 ** 400, f"{10 ** 400}/3"],
                         ids=["inf", "nan", "integer", "string"])
def test_spec_refuses_an_entry_whose_float_is_not_finite(entry):
    """An ∞ used to escape as an OverflowError and a NaN as Fraction's "cannot convert NaN
    to integer ratio"; a rational past the float range was accepted and raised an
    OverflowError from the float lane."""
    for matrix, unit in (([[entry]], [1]), ([[2]], [entry])):
        with pytest.raises(ValueError, match="is not finite|is beyond the float range"):
            DimensionGroupSpec(matrix=matrix, order_unit=unit)


@pytest.mark.parametrize("rho,count", [
    ([[1e7]], 1), ([[1e9]], 1), ([[1e10]], 1), ([[1e11]], 1), ([["1000000000"]], 1),
    ([[20000000, 1], [0, 3]], 2),
], ids=["1e7", "1e9", "1e10", "1e11", "string-1e9", "triangular-2e7"])
def test_exact_lane_vertices_are_checked_at_their_own_eigenvalue(rho, count):
    """These valid specs used to raise InternalFault ("fiber vertex is not a left
    eigenvector"): the exact lane's vertices were checked against e^{-β}, which the
    round trip through β = −log s had moved about ε·s off the exact eigenvalue, past the
    check's absolute 1e−9."""
    spec = DimensionGroupSpec(matrix=rho, order_unit=[1] * len(rho))
    betas = beta_spectrum(spec)
    assert len(betas) == count
    assert all(fiber_simplex(spec, b).exact for b in betas)


def test_float_lane_fiber_matches_support_rule():
    """Denominators above 10⁶ keep e^{-β} off the exact lane; the float lane
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
        assert f.dimension == mult - 1 == _rank_dimension(f)
        for v, w in zip(f.vertices, oracle):
            assert np.max(np.abs(v - np.array([float(x) for x in w]))) <= 1e-9


# -- fiber_simplex against the double-description sweeps it replaced, kept as oracles ----

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


def _cone_rows(matrix, unit, s):
    r = len(unit)
    rows = [[matrix[i][j] - (s if i == j else 0) for i in range(r)] + [0] for j in range(r)]
    return rows + [list(unit) + [-1]]


def _reference_fiber(spec, s):
    """The fiber at s by the reference sweeps and the old post-processing: exact
    sorted vertices for a Fraction s, float vertices in fiber_simplex's order else."""
    rows, dim = _cone_rows(spec.matrix, spec.order_unit, s), spec.rank + 1
    if isinstance(s, F):
        rays = _reference_dd_cone_exact([tuple(F(x) for x in row) for row in rows], dim)
        return sorted(tuple(x / ray[-1] for x in ray[:-1]) for ray in rays if ray[-1] > 0)
    rays = _reference_dd_cone_float([np.array([float(x) for x in row]) for row in rows], dim)
    ref = [ray[:-1] / ray[-1] for ray in rays if ray[-1] > FLOAT_ZERO_TOL]
    return sorted(ref, key=lambda v: tuple(np.round(v, 9)))


def _float_lane(spec, s: float):
    """fiber_simplex's float-lane vertices at s, whichever lane fiber_simplex would take."""
    verts = [v for v in (_class_vertex(spec, sup, s) for sup in spec._access_sets)
             if v is not None]
    return sorted(verts, key=lambda v: tuple(np.round(v, 9)))


def _assert_close_vertices(got, want):
    """Equal in number and each within 1e-12 of the reference, relative to its max-norm."""
    assert len(got) == len(want)
    for v, w in zip(got, want):
        assert np.max(np.abs(v - w)) <= 1e-12 * np.max(np.abs(w))


def test_fiber_simplex_vertices_match_reference_sweeps():
    """fiber_simplex end to end against the old sweeps and post-processing: exact
    vertices equal as Fractions, float vertices equal in number and within 1e-12."""
    q = 10 ** 7 + 19
    specs = [_rational_q6(),
             _diag_spec([F(1, 2), F(1, 3), F(1, 2), F(2, 3), F(1, 3), F(1, 2), F(1, 5), F(1, 3)],
                        unit=[1, 3, 2, 4, 1, 2, 3, 1]),
             _diag_spec([F(6180, q), F(1, 3), F(6180, q), F(2, 7)], unit=[3, 1, 2, 2])]
    for spec in specs:
        for b in beta_spectrum(spec):
            f = fiber_simplex(spec, b)
            assert f.dimension == _rank_dimension(f)
            s = math.exp(-b)
            if f.exact:
                assert f.vertices_exact == _reference_fiber(spec, F(s).limit_denominator(10 ** 6))
            else:
                _assert_close_vertices(f.vertices, _reference_fiber(spec, s))


def test_integer_rank_matches_reference_rank():
    """Ranks by integer elimination equal those of the Fraction elimination they
    replaced, and the null vector it gives is there exactly at nullity 1."""
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

    full = deficient = corank_one = 0
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
        assert len(_echelon([_integer_row(r) for r in rows], dim)) == ref
        full += ref == dim
        deficient += ref < dim and len(rows) >= dim
        corank_one += _assert_null_vector(rows, dim, ref)
    assert full >= 20 and deficient >= 20 and corank_one >= 20


def _assert_null_vector(rows, dim, rank) -> bool:
    """_integer_null gives a vector exactly when the nullity dim − rank is 1, and then
    a primitive integer one in the kernel of the rational rows."""
    c = _integer_null([_integer_row(r) for r in rows], dim)
    assert (c is not None) == (dim - rank == 1)
    if c is not None:
        assert all(type(x) is int for x in c) and math.gcd(*c) == 1
        assert all(sum(F(a) * b for a, b in zip(r, c)) == 0 for r in rows)
    return c is not None


# -- properties: fibers against their oracles, and the exact lane's number format --------

BIG = 10 ** 6
_ENTRY = st.one_of(st.just(0), st.integers(-3, 3),
                   st.builds(F, st.integers(-5, 5), st.integers(1, 6)),
                   st.builds(F, st.integers(-10 * BIG, 10 * BIG), st.integers(BIG + 1, 10 * BIG)))


@st.composite
def _degenerate_rows(draw):
    """Rational rows in dim ≤ 9, dim − 2 to dim of them so that nullity 1 is common,
    denominators up to 10⁷, with zero, repeated and scaled rows slipped in."""
    dim = draw(st.integers(2, 9))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=dim, max_size=dim),
                         min_size=max(1, dim - 2), max_size=dim))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "scale"]), max_size=3)):
        src = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 10 * BIG)))
        new = {"zero": [0] * dim, "repeat": list(src), "scale": [k * x for x in src]}[kind]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, dim


@given(_degenerate_rows())
def test_property_null_vector_matches_reference_rank(case):
    rows, dim = case
    _assert_null_vector(rows, dim, _reference_rank_exact([tuple(F(x) for x in r) for r in rows], dim))


_POOL = [F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(3, 7), F(5, 4), F(3, 2)]


@st.composite
def _diagonal_specs(draw, upper=False, ranks=(1, 8)):
    """Specs of rank in ``ranks`` with diagonal values from a small pool and units 1–4;
    with ``upper``, some entries above the diagonal too, which keeps the diagonal the
    spectrum."""
    r = draw(st.integers(*ranks))
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
        assert f.exact and f.dimension == _rank_dimension(f)
        assert f.vertices_exact == diagonal_fiber(spec, s)


@given(_diagonal_specs(upper=True))
def test_property_exact_lane_matches_float_lane(case):
    spec, values = case
    key = lambda v: tuple(np.round(v, 9))              # noqa: E731
    for s in values:
        f = fiber_simplex(spec, -math.log(float(s)))
        assert f.exact
        floats = _float_lane(spec, float(s))
        assert len(floats) == f.vertex_count
        for v, w in zip(floats, sorted(f.vertices, key=key)):
            assert np.max(np.abs(v - w)) <= 1e-9


# the reference sweep takes about half a second per spec at ranks 9–12
@settings(max_examples=4)
@given(_diagonal_specs(ranks=(9, MAX_RANK)))
def test_property_sweep_at_the_rank_cap_matches_support_rule(case):
    spec, values = case
    for s in values:
        got = fiber_simplex(spec, -math.log(float(s))).vertices_exact
        assert got == diagonal_fiber(spec, s) == _reference_fiber(spec, s)


@settings(max_examples=4)
@given(_diagonal_specs(upper=True, ranks=(9, MAX_RANK)))
def test_property_upper_triangular_sweep_at_the_rank_cap_matches_reference(case):
    spec, values = case
    for s in values:
        assert fiber_simplex(spec, -math.log(float(s))).vertices_exact == _reference_fiber(spec, s)


_VALUES = [F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(2)]


@st.composite
def _general_matrices(draw, max_rank=8, sparse=False, grouped=False):
    """Matrices ρ of rank 1–``max_rank``, with a unit, with entries anywhere: nonzero on a
    drawn permutation unless ``sparse``, so ρ is seldom singular, and elsewhere zero with
    a drawn weight. Zero diagonal entries, classes of several indices and access between
    classes all occur. ``grouped`` draws a group 0–3 per index and zeroes ρ_ij where i's
    group is above j's: ρ is then block-triangular over the groups, each a union of
    classes, so there are more classes of several indices."""
    r = draw(st.integers(1, max_rank))
    perm = draw(st.permutations(range(r)))
    entry = st.sampled_from([F(0)] * draw(st.integers(1, 8)) + _VALUES)
    on_perm = entry if sparse else st.sampled_from(_VALUES)
    m = [[draw(on_perm if j == perm[i] else entry) for j in range(r)] for i in range(r)]
    if grouped:
        g = draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
        m = [[x if g[i] <= g[j] else F(0) for j, x in enumerate(row)] for i, row in enumerate(m)]
    return m, draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))


@st.composite
def _general_specs(draw):
    m, unit = draw(_general_matrices())
    assume(_reference_rank_exact(m, len(m)) == len(m))
    return DimensionGroupSpec(matrix=m, order_unit=unit)


def _positive_eigenvalues(spec):
    """The candidates s at which beta_spectrum looks for a fiber."""
    eigs = np.linalg.eigvals(spec.matrix_float.T)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    cands = []
    for s in eigs:
        if abs(s.imag) <= 1e-9 * scale and s.real > 1e-12 and \
                all(abs(s.real - c) > 1e-9 * scale for c in cands):
            cands.append(float(s.real))
    return cands


@given(_general_specs())
def test_property_fibers_of_general_specs_match_reference_sweeps(spec):
    """Both lanes against the reference sweeps at every candidate eigenvalue: exact
    fibers equal as Fractions, float fibers in number and within 1e-12; and the
    β-spectrum is that of the nonempty reference fibers."""
    want = []
    for s in _positive_eigenvalues(spec):
        f = fiber_simplex(spec, -math.log(s) + 0.0)
        assert f.dimension == _rank_dimension(f)
        s_exact = _reference_rational_eigenvalue(spec, s)
        assert f.exact == (s_exact is not None)
        if f.exact:
            assert f.vertices_exact == _reference_fiber(spec, s_exact)
        else:
            _assert_close_vertices(f.vertices, _reference_fiber(spec, s))
        ref = _reference_fiber(spec, s)
        _assert_close_vertices(_float_lane(spec, s), ref)
        if ref:
            want.append(-math.log(s) + 0.0)
    assert beta_spectrum(spec) == sorted(want)


@given(st.booleans().flatmap(lambda sparse: _general_matrices(
    MAX_RANK if os.environ.get("HYPOTHESIS_PROFILE") == "long" else 8, sparse, grouped=True)))
def test_property_class_blocks_decide_singularity_and_eigenvalues(case):
    """Singular or not: ρ is refused as singular exactly when its rank is below r, and
    the eigenvalue promotion, which reads each class's own block, equals the elimination
    of all of ρᵀ − s at every positive candidate."""
    m, unit = case
    r = len(m)
    if _reference_rank_exact(m, r) < r:
        with pytest.raises(ValueError, match="matrix is singular"):
            DimensionGroupSpec(matrix=m, order_unit=unit)
        return
    spec = DimensionGroupSpec(matrix=m, order_unit=unit)
    for s in _positive_eigenvalues(spec):
        assert _rational_eigenvalue(spec, s) == _reference_rational_eigenvalue(spec, s)


def test_equal_radii_with_access_give_one_vertex():
    """ρ = [[1, 0], [1, 1]]: ρᵀ's classes {0} and {1} both have radius 1, and 0 has
    access to 1, so only {0} is distinguished: one vertex, at β = 0, in both lanes."""
    spec = DimensionGroupSpec(matrix=[[1, 0], [1, 1]], order_unit=[1, 1])
    assert spec._access_sets == ((0,), (0, 1))
    assert beta_spectrum(spec) == [0.0]
    f = fiber_simplex(spec, 0.0)
    assert f.exact and f.vertices_exact == [(F(1), F(0))] == _reference_fiber(spec, F(1))
    _assert_close_vertices(_float_lane(spec, 1.0), _reference_fiber(spec, 1.0))


def test_irrational_radius_is_found_on_the_float_lane():
    """ρ = [[1, 1], [1, 0]] is one irreducible class of radius φ, the golden ratio: no
    rational eigenvalue, so the float lane finds the one vertex, (φ, 1)/(φ + 2) for the
    unit (1, 2)."""
    spec = DimensionGroupSpec(matrix=[[1, 1], [1, 0]], order_unit=[1, 2])
    phi = (1 + math.sqrt(5)) / 2
    (beta,) = beta_spectrum(spec)
    assert abs(beta + math.log(phi)) <= 1e-15
    f = fiber_simplex(spec, beta)
    assert not f.exact and f.vertex_count == 1 and f.dimension == 0
    _assert_close_vertices(f.vertices, _reference_fiber(spec, math.exp(-beta)))
    assert np.max(np.abs(f.vertices[0] - np.array([phi, 1.0]) / (phi + 2))) <= 1e-15


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
    """Rows made from the spec's integer scaling equal the Fraction-built rows of
    ρᵀ − s·1 they replaced, made primitive, on all indices and on each class's access
    set; and the eigenvalue promotion agrees."""
    spec, _ = case
    r = spec.rank
    fracs = [[spec.matrix[j][i] - (s if i == j else 0) for j in range(r)] for i in range(r)]
    for sup in (range(r), *spec._access_sets):
        got = _eigen_rows(spec, s, sup)
        assert all(type(x) is int for row in got for x in row)
        assert [list(g) for g in got] == [list(_integer_row([fracs[i][j] for j in sup]))
                                          for i in sup]
    for s_float in (float(s), float(s) * (1 + 1e-7), math.sqrt(float(s))):
        assert _rational_eigenvalue(spec, s_float) == _reference_rational_eigenvalue(spec, s_float)


def test_exact_lane_holds_ints_and_gives_fraction_vertices():
    """Exact null vectors are Python ints and exact vertices Fractions; an int leaking
    into vertices_exact would compare equal to its Fraction, so the types are pinned here."""
    spec = _diag_spec([F(1, 2), F(1, 3), F(1, 2), F(2, 3), F(1, 3), F(1, 2), F(1, 5), F(1, 3)],
                      unit=[1, 3, 2, 4, 1, 2, 3, 1])
    for s in (F(1, 2), F(1, 3), F(1, 5)):
        rays = [_integer_null(_eigen_rows(spec, s, sup), len(sup)) for sup in spec._access_sets]
        rays = [c for c in rays if c is not None]
        assert rays and all(type(x) is int for ray in rays for x in ray)
        f = fiber_simplex(spec, -math.log(float(s)))
        assert f.vertices_exact and all(type(x) is F for v in f.vertices_exact for x in v)
    assert all(type(x) is int for x in _integer_null([], 1))


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


_U = 2.0 ** -53                 # the unit roundoff of binary64


def _gamma(k: int) -> float:
    """γ_k = k·u/(1 − k·u) (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., §3.1)."""
    return k * _U / (1.0 - k * _U)


def _reference_weights(flow, beta: float) -> list[np.ndarray]:
    """Each block's normalized Boltzmann weights e^{-β(λ − c)}/Σ e^{-β(λ − c)} at β, with
    the shift c of kms._boltzmann."""
    lams = np.concatenate(flow.eigenvalues)
    shift = lams.min() if beta >= 0 else lams.max()
    out = []
    for w in flow.eigenvalues:
        e = np.exp(-beta * (w - shift))
        out.append(e / e.sum())
    return out


def _reference_kms_bundle_fd(flow, beta_grid):
    """kms_bundle_fd as a loop: one kms_simplex per grid point and one
    AlgElement.norm() SVD per vertex pair. Also returns, per step and block, the
    spectral and Frobenius norms of the vertex difference."""
    betas = [float(b) for b in beta_grid]
    simplices = [kms_simplex(flow, b) for b in betas]
    bound = 2.0 * flow.generator.norm()
    worst = 0.0
    spectral, frobenius = [], []
    for s1, s2, b1, b2 in zip(simplices, simplices[1:], betas, betas[1:]):
        step = b2 - b1
        diffs = [v1.density - v2.density for v1, v2 in zip(s1.vertices, s2.vertices)]
        spectral.append([d.norm() for d in diffs])
        frobenius.append([d.fro_norm() for d in diffs])
        for dist in spectral[-1]:
            worst = max(worst, dist / (bound * step)) if bound > 0 else worst
    counts = [len(s.vertices) for s in simplices]
    expected = flow.algebra.num_blocks
    ok = all(c == expected for c in counts) and worst <= 1.0 + 1e-9
    cert = BundleCertificate(all_nonempty=all(c > 0 for c in counts), vertex_counts=counts,
                             lipschitz_bound=bound, max_step_deviation=worst, ok=ok)
    return simplices, cert, np.array(spectral), np.array(frobenius)


def _batched_svd_kms_bundle_fd(flow, beta_grid):
    """kms_bundle_fd's certificate as one batched spectral norm per block over its
    stack of vertex differences, and 2‖h‖₂ by SVD, with one vertex per block in every
    fiber. Returns the vertex stacks, the certificate, and per step and block the
    spectral and Frobenius norms."""
    betas = [float(b) for b in beta_grid]
    mats, traces, _ = kms._boltzmann(flow, betas)
    verts = [m / t[:, None, None] for m, t in zip(mats, traces.T)]
    bound = 2.0 * flow.generator.norm()
    spectral = np.stack([np.linalg.norm(v[:-1] - v[1:], 2, axis=(1, 2)) for v in verts], axis=1)
    frobenius = np.stack([np.linalg.norm(v[:-1] - v[1:], axis=(1, 2)) for v in verts], axis=1)
    worst = float(np.max(spectral / (bound * np.diff(betas)[:, None]))) if bound > 0 else 0.0
    counts = [flow.algebra.num_blocks] * len(betas)
    cert = BundleCertificate(all_nonempty=True, vertex_counts=counts, lipschitz_bound=bound,
                             max_step_deviation=worst, ok=worst <= 1.0 + 1e-9)
    return verts, cert, spectral, frobenius


def _assert_within_rounding(flow, betas, got, want, spectral, frobenius):
    """The certificate ``got`` against an SVD oracle's ``want``: every field but the two
    floats bit-equal, and those within a bound on rounding alone.

    For a block of size n with computed eigensystem (Û, Λ), m = max|λ|, F² = ‖Û‖²_F and
    η ≥ ‖ÛᴴÛ − I‖₂, and with g = γ_{2n+10}, which bounds √2·γ_{n+5}, the error of a
    complex product of n terms scaled and divided once (Higham §3.6):

    * ‖ÛΛÛᴴ‖₂ is within η·m of m. The flow certified max|fl(ÛΛÛᴴ − h)| ≤ 1e-10·tol_scale,
      so ‖ÛΛÛᴴ − h‖₂ ≤ n·1e-10·tol_scale/(1 − u) + g·F²·m. The SVD is backward stable,
      taken with p(n) = n² (LAPACK Users' Guide §4.9): its ‖h‖₂ is within γ_{n²}·‖h‖_F.
    * Vertex i at β is fl(fl(Û·diag e)·Ûᴴ)/t, within g·F²·‖p‖∞ of Û·diag(p)·Ûᴴ, p = e/t;
      ‖Û·diag(Δ)·Ûᴴ‖₂ is within η·‖Δ‖∞ of ‖Δ‖∞; the closed form's ‖Δ‖∞ is within
      3u·(‖p‖∞ + ‖p′‖∞) of the exact one; the oracle's difference and SVD add
      (2u + γ_{n²}) of the difference's Frobenius norm.
    * Each normalized deviation D/(L·h) takes three roundings on either side.
    """
    assert (got.vertex_counts, got.ok, got.all_nonempty) == \
        (want.vertex_counts, want.ok, want.all_nonempty)
    scale = flow.generator.tol_scale()
    weights = [_reference_weights(flow, b) for b in betas]
    lip, dev = 0.0, []
    for i, (n, w, u, h) in enumerate(zip(flow.algebra.block_dims, flow.eigenvalues,
                                         flow.eigenvectors, flow.generator.blocks)):
        g, g_svd = _gamma(2 * n + 10), _gamma(n * n + 2)
        fro2 = np.linalg.norm(u) ** 2 * (1.0 + g_svd)
        eta = np.linalg.norm(u.conj().T @ u - np.eye(n)) * (1.0 + g_svd) + g * fro2
        m = float(np.abs(w).max())
        resid = n * 1e-10 * scale / (1.0 - _U) + g * fro2 * m
        lip = max(lip, 2.0 * (eta * m + resid + g_svd * np.linalg.norm(h) * (1.0 + g_svd)))
        for s in range(len(betas) - 1):
            p0, p1 = weights[s][i], weights[s + 1][i]
            x = float(p0.max() + p1.max())
            d = float(np.abs(p0 - p1).max())
            dev.append((s, i, g * fro2 * x + (2.0 * _U + g_svd) * frobenius[s, i] * (1.0 + g_svd)
                        + eta * (d + 3.0 * _U * x) + 3.0 * _U * x))
    assert abs(got.lipschitz_bound - want.lipschitz_bound) <= lip
    if want.lipschitz_bound == 0.0:
        assert got.lipschitz_bound == 0.0 and got.max_step_deviation == 0.0 \
            == want.max_step_deviation
        return
    slack = 0.0
    for s, i, slack_d in dev:
        x = got.lipschitz_bound * (betas[s + 1] - betas[s])
        y = want.lipschitz_bound * (betas[s + 1] - betas[s])
        slack = max(slack, slack_d / x + spectral[s, i] / y * lip / got.lipschitz_bound)
    slack += 4.0 * _U * (got.max_step_deviation + want.max_step_deviation)
    assert abs(got.max_step_deviation - want.max_step_deviation) <= slack


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
    want_fibers, want, spectral, frobenius = _reference_kms_bundle_fd(flow, grid)
    _assert_within_rounding(flow, [float(b) for b in grid], got, want, spectral, frobenius)
    assert [s.beta for s in got_fibers] == [s.beta for s in want_fibers]
    for s, w in zip(got_fibers, want_fibers):
        for v, u in zip(s.vertices, w.vertices):
            assert all(np.array_equal(a, b) for a, b in zip(v.density.blocks, u.density.blocks))


def _assert_matches_the_batched_svd(flow, betas):
    fibers, got = kms_bundle_fd(flow, betas)
    verts, want, spectral, frobenius = _batched_svd_kms_bundle_fd(flow, betas)
    _assert_within_rounding(flow, betas, got, want, spectral, frobenius)
    for s, fiber in enumerate(fibers):
        for i, v in enumerate(fiber.vertices):
            assert np.array_equal(v.density.blocks[i], verts[i][s])
            assert not any(b.any() for j, b in enumerate(v.density.blocks) if j != i)
    return got


def test_bundle_certificate_matches_the_svd_of_every_block(svd_calls):
    """Against the batched SVD of every block's vertex differences; the certificate
    itself takes no SVD."""
    rng = np.random.default_rng(2323)
    alg = BlockAlgebra((32, 8, 2))
    flow = InnerFlow(alg, random_hermitian(alg, rng, scale=2.0))
    grid = list(np.linspace(-1.5, 2.0, 9))
    kms_bundle_fd(flow, grid)
    assert svd_calls == []
    got = _assert_matches_the_batched_svd(flow, grid)
    assert got.ok and got.max_step_deviation > 0.0


@given(dims=st.lists(st.integers(1, 32), min_size=1, max_size=3).map(
           lambda d: tuple(min(n, cap) for n, cap in zip(d, (32, 8, 2)))),
       first=st.floats(-1.0, 1.0),
       log_steps=st.lists(st.floats(-6.0, 0.0), min_size=1, max_size=5),
       cap=st.just(0.0) | st.floats(1e-2, EXP_CAP),
       seed=st.integers(0, 2 ** 16))
def test_property_bundle_certificate_matches_the_svd_oracle(dims, first, log_steps, cap, seed):
    """Dims up to (32, 8, 2), grid steps from 1 down to 1e-6, and h scaled so that the
    grid's largest |β|·spread over all blocks is ``cap`` ≤ EXP_CAP (0: h = 0; with one
    1×1 block, |β|·|λ|)."""
    betas = (first + np.concatenate([[0.0], np.cumsum(10.0 ** np.asarray(log_steps))])).tolist()
    assume(all(b2 > b1 for b1, b2 in zip(betas, betas[1:])))
    alg = BlockAlgebra(dims)
    h = random_hermitian(alg, np.random.default_rng(seed))
    lams = np.concatenate(InnerFlow(alg, h).eigenvalues)
    spread = float(lams.max() - lams.min()) or float(np.abs(lams).max())    # one 1×1 block
    h = (cap * (1.0 - 1e-9) / (max(map(abs, betas)) * spread)) * h
    _assert_matches_the_batched_svd(InnerFlow(alg, h), betas)


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
