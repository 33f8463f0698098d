"""One-parameter inner flows: group law, analytic continuation, smoothing."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmslab import (BlockAlgebra, InnerFlow, InternalFault, gibbs, random_element,
                    random_hermitian, verify_kms)
from kmslab.algebra import TOL
from kmslab.flow import (_GH_CHUNK_ENTRIES, GH_NODES_DEFAULT, GH_NODES_MAX, AnalyticRangeError,
                         QuadratureError, _gauss_hermite)

RNG = np.random.default_rng(41)


def _flow(dims=(3,), scale=1.0, rng=RNG):
    alg = BlockAlgebra(dims)
    return InnerFlow(alg, random_hermitian(alg, rng, scale=scale))


def test_generator_must_be_hermitian():
    alg = BlockAlgebra((2,))
    a = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
    with pytest.raises(ValueError, match="self-adjoint"):
        InnerFlow(alg, a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_generator_must_be_finite(bad):
    """A NaN used to reach tol_scale's SVD (LinAlgError) and an ∞ the Hermitian test."""
    alg = BlockAlgebra((1, 2))
    blocks = [np.zeros((1, 1), dtype=complex), np.eye(2, dtype=complex)]
    blocks[1][1, 1] = bad
    with pytest.raises(ValueError, match="^generator has non-finite entries$"):
        InnerFlow(alg, alg.element(blocks))


def _reference_flow(alg, h):
    """InnerFlow.__init__'s rule, scale first: the asymmetry max|h − h*| against
    TOL·max(1, ‖(h + h*)/2‖₂), the norm from an SVD; then each block's Hermitian part
    decomposed by eigh, and its residual against that part at 1e-10 times the same
    scale. Returns the eigensystem, or the refusal's message."""
    parts = [(b + b.conj().T) / 2.0 for b in h.blocks]
    scale = max(1.0, *(float(np.linalg.norm(p, 2)) for p in parts))
    if max(float(np.abs(b - b.conj().T).max()) for b in h.blocks) > TOL * scale:
        return "generator must be self-adjoint"
    ws, us = [], []
    for part in parts:
        w, u = np.linalg.eigh(part)
        err = (u * w) @ u.conj().T
        err -= part
        resid = float(np.max(np.abs(err)))
        if not resid <= 1e-10 * scale:
            return f"eigendecomposition residual {resid:.3e} too large"
        ws.append(w)
        us.append(u)
    return ws, us


@pytest.mark.parametrize("norm", [0.5, 10.0, 1e6])
@pytest.mark.parametrize("planted", [0.0, 0.05, 0.5, 2.0, 20.0])
def test_flow_verdicts_equal_the_scale_first_route(norm, planted):
    """‖h‖₂ = norm plus an anti-Hermitian part whose asymmetry max|h − h*| is
    planted·TOL·max(1, norm): accepted below TOL·scale and refused above it as
    not self-adjoint, as the scale-first route decides, with bit-equal eigensystems
    when accepted. The residual test no longer refuses asymmetries TOL allows."""
    rng = np.random.default_rng(int(planted * 100) + int(math.log10(norm) * 7) + 100)
    alg = BlockAlgebra((5, 3, 1))
    h = random_hermitian(alg, rng)
    h = (norm / h.norm()) * h
    k = random_element(alg, rng)
    k = k - k.adjoint()
    asym = max(float(np.abs(b - b.conj().T).max()) for b in k.blocks)
    h = h + (planted * TOL * max(1.0, norm) / asym) * k
    want = _reference_flow(alg, h)
    assert (want == "generator must be self-adjoint") if planted > 1.0 else type(want) is tuple
    if isinstance(want, str):
        with pytest.raises(ValueError) as error:
            InnerFlow(alg, h)
        assert str(error.value) == want
        return
    flow = InnerFlow(alg, h)
    for w, u, w_ref, u_ref in zip(flow.eigenvalues, flow.eigenvectors, *want):
        assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)


def test_exactly_hermitian_generators_keep_the_raw_eigensystem():
    """An exactly Hermitian h is its own Hermitian part, so the flow's eigensystem is
    eigh(h)'s, also where h + h* would overflow with a RuntimeWarning, which the suite's
    warning filter makes an error."""
    rng = np.random.default_rng(64)
    huge = BlockAlgebra((2,)).element([np.array([[1e308, 6e307 - 2e307j],
                                                 [6e307 + 2e307j, -1e308]])])
    for dims in [(1,), (2, 7), (16, 3), (64,), (2,)]:
        alg = BlockAlgebra(dims)
        h = huge if dims == (2,) else random_hermitian(alg, rng, scale=3.0)
        flow = InnerFlow(alg, h)
        for blk, w, u in zip(h.blocks, flow.eigenvalues, flow.eigenvectors):
            w_raw, u_raw = np.linalg.eigh(blk)
            assert np.array_equal(w, w_raw) and np.array_equal(u, u_raw)


def test_a_faulty_eigh_is_refused_by_the_residual_test(monkeypatch):
    """The residual is taken against the Hermitian part eigh decomposed, so only a faulty
    eigh fails it: eigenvalues shifted by 1e-9·scale are refused with the residual."""
    alg = BlockAlgebra((4, 2))
    h = random_hermitian(alg, np.random.default_rng(12), scale=5.0)
    InnerFlow(alg, h)
    real = np.linalg.eigh

    def faulty(a, *args, **kwargs):
        w, u = real(a, *args, **kwargs)
        return w + 1e-9 * max(1.0, float(np.abs(w).max())), u

    monkeypatch.setattr(np.linalg, "eigh", faulty)
    with pytest.raises(ValueError, match=r"^eigendecomposition residual \S+ too large$"):
        InnerFlow(alg, h)


def test_hermitian_generator_builds_its_flow_without_an_svd(svd_calls):
    """‖h‖_F > 1, so the scale-first route took an SVD for tol_scale."""
    alg = BlockAlgebra((4, 2))
    h = random_hermitian(alg, np.random.default_rng(3), scale=5.0)
    assert h.fro_norm() > 1.0
    flow = InnerFlow(alg, h)
    assert svd_calls == []
    assert flow.generator_norm == max(float(np.abs(w).max()) for w in flow.eigenvalues)
    assert abs(flow.generator_norm - h.norm()) <= 1e-12 * h.norm()


def test_group_law():
    flow = _flow((2, 3))
    a = random_element(flow.algebra, RNG)
    for s, t in [(0.3, 1.1), (-0.7, 0.2), (2.0, -2.0)]:
        lhs = flow.evolve(a, s + t)
        rhs = flow.evolve(flow.evolve(a, t), s)
        assert (lhs - rhs).norm() < 1e-10


def test_evolution_is_isometric_and_star_preserving():
    flow = _flow((4,))
    a = random_element(flow.algebra, RNG)
    for t in (-3.0, 0.5, 7.25):
        at = flow.evolve(a, t)
        assert abs(at.norm() - a.norm()) < 1e-10
        assert (flow.evolve(a.adjoint(), t) - at.adjoint()).norm() < 1e-10


def test_evolution_is_multiplicative():
    flow = _flow((3,))
    a = random_element(flow.algebra, RNG)
    b = random_element(flow.algebra, RNG)
    t = 1.3
    assert (flow.evolve(a @ b, t) - flow.evolve(a, t) @ flow.evolve(b, t)).norm() < 1e-10


def test_analytic_continuation_matches_real_flow():
    flow = _flow((2, 2))
    a = random_element(flow.algebra, RNG)
    for t in (-1.0, 0.0, 0.4):
        assert (flow.continue_analytic(a, complex(t, 0.0)) - flow.evolve(a, t)).norm() < 1e-10


def test_analytic_continuation_group_property():
    # entire elements: continuation along z then w equals z + w
    flow = _flow((3,), scale=0.5)
    a = random_element(flow.algebra, RNG)
    z, w = 0.3 + 0.2j, -0.1 + 0.5j
    lhs = flow.continue_analytic(flow.continue_analytic(a, w), z)
    rhs = flow.continue_analytic(a, z + w)
    assert (lhs - rhs).norm() < 1e-8 * max(1.0, rhs.norm())


def test_analytic_range_cap():
    flow = _flow((2,), scale=3.0)
    a = random_element(flow.algebra, RNG)
    with pytest.raises(AnalyticRangeError):
        flow.continue_analytic(a, 1e9j)


def test_strip_guard_is_one_refusal_for_both_methods():
    """continue_analytic and smooth_shifted (either route) refuse |Im z| > 50 alike."""
    flow = _flow((2,))
    a = random_element(flow.algebra, RNG)
    msg = re.escape("|Im z| = 51 exceeds the supported strip |Im z| ≤ 50")
    for call in (lambda: flow.continue_analytic(a, 51j),
                 lambda: flow.smooth_shifted(a, 1.0, 51j),
                 lambda: flow.smooth_shifted(a, 1.0, 51j, method="quadrature")):
        with pytest.raises(AnalyticRangeError, match=msg):
            call()


def test_smoothing_routes_agree():
    """Gaussian smoothing by closed form and by quadrature must coincide."""
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        flow = _flow((3,), scale=2.0, rng=rng)
        a = random_element(flow.algebra, rng)
        for n in (1.0, 4.0, 16.0):
            cf = flow.smooth(a, n, method="closed_form")
            qd = flow.smooth(a, n, method="quadrature")
            assert (cf - qd).norm() <= 1e-8 * max(1.0, cf.norm())


def test_smoothing_is_contractive_and_converges():
    flow = _flow((4,), scale=1.0)
    a = random_element(flow.algebra, RNG)
    prev = np.inf
    for n in (1.0, 10.0, 100.0, 1000.0):
        err = (flow.smooth(a, n) - a).norm()
        assert err < prev or err < 1e-12
        prev = err
    assert prev < 1e-2


def test_smoothing_entrywise_damping():
    # In the eigenbasis each matrix entry is damped by exp(-gap^2/(4n)),
    # so |R_n(a) - a| <= gap^2/(4n) * |a| entry by entry.
    rng = np.random.default_rng(7)
    alg = BlockAlgebra((4,))
    lam = np.array([0.0, 1.0, 2.5, 6.0])
    h = alg.element([np.diag(lam).astype(complex)])
    flow = InnerFlow(alg, h)
    a = random_element(alg, rng)
    for n in (2.0, 8.0, 32.0):
        diff = flow.smooth(a, n).blocks[0] - a.blocks[0]
        gaps = lam[None, :] - lam[:, None]
        bound = (gaps ** 2) / (4.0 * n) * np.abs(a.blocks[0])
        assert np.all(np.abs(diff) <= bound + 1e-12)


def test_smoothing_positive_map():
    flow = _flow((3,))
    a = random_element(flow.algebra, RNG)
    pos = a.adjoint() @ a
    sm = flow.smooth(pos, 3.0)
    evs = np.linalg.eigvalsh(sm.blocks[0])
    assert evs.min() >= -1e-10


def test_smooth_shifted_interpolates():
    flow = _flow((2, 2), scale=1.5)
    a = random_element(flow.algebra, RNG)
    n = 5.0
    # at z = 0 the shifted smoothing is plain smoothing
    assert (flow.smooth_shifted(a, n, 0.0) - flow.smooth(a, n)).norm() < 1e-12
    # shifting by a real time equals smoothing then evolving
    t = 0.8
    lhs = flow.smooth_shifted(a, n, complex(t, 0.0))
    rhs = flow.evolve(flow.smooth(a, n), t)
    assert (lhs - rhs).norm() < 1e-9
    # both routes agree off the real axis too
    z = 0.4 + 0.6j
    cf = flow.smooth_shifted(a, n, z, method="closed_form")
    qd = flow.smooth_shifted(a, n, z, method="quadrature")
    assert (cf - qd).norm() <= 1e-8 * max(1.0, cf.norm())


def _rule(flow, a, n, z, nodes):
    """One Gauss–Hermite rule of the quadrature route, transported back."""
    return flow.from_eigenbasis(flow._gh_blocks(flow._gh_eigenbasis(a, n, z), nodes))


def _spy_rules(flow):
    """The node counts of the rules ``flow``'s quadrature sums, in order."""
    used = []
    gh_blocks = flow._gh_blocks
    flow._gh_blocks = lambda *args: used.append(args[-1]) or gh_blocks(*args)
    return used


def _reference_gh_sum(flow, a, n, z, nodes):
    """One Gauss–Hermite rule as the per-node loop over continue_analytic, kept as the
    oracle; also Σ_k (w_k/√π)·‖σ_{z + x_k/√n}(a)‖_F, the size of the terms summed,
    which is what the rounding of either route is relative to."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    acc, size = flow.algebra.zero(), 0.0
    root_n = np.sqrt(n)
    for xk, wk in zip(x, w):
        term = (wk / np.sqrt(np.pi)) * flow.continue_analytic(a, z + xk / root_n)
        acc, size = acc + term, size + term.fro_norm()
    return acc, size


def _reference_quadrature(flow, a, n, z, nodes, quad_tol=1e-8):
    """smooth_shifted's doubling rule over the reference sum: (result, size, nodes),
    with result None where the rule gives up."""
    k = max(2, int(nodes))
    while True:
        full, size = _reference_gh_sum(flow, a, n, z, k)
        half, _ = _reference_gh_sum(flow, a, n, z, k // 2)
        if (full - half).fro_norm() / max(full.fro_norm(), 1e-300) <= quad_tol:
            return full, size, k
        if k >= GH_NODES_MAX:
            return None, size, k
        k = min(GH_NODES_MAX, 2 * k)


def _assert_quadrature_matches(flow, a, n, z, nodes):
    want, size, want_k = _reference_quadrature(flow, a, n, z, nodes)
    used = _spy_rules(flow)
    try:
        got = flow.smooth_shifted(a, n, z, method="quadrature", nodes=nodes)
    except QuadratureError:
        got = None
    assert max(used) == want_k                      # the largest rule is the one returned
    if want is None:
        assert got is None
    else:
        assert (got - want).fro_norm() <= 1e-13 * size


def test_gh_sum_matches_reference_loop():
    rng = np.random.default_rng(808)
    for dims, scale in [((1,), 1.0), ((3,), 2.0), ((2, 5), 1.0), ((4, 1, 3), 3.0), ((17,), 0.5)]:
        flow = _flow(dims, scale=scale, rng=rng)
        a = random_element(flow.algebra, rng)
        for n, z, nodes in [(1.0, 0.0, 64), (4.0, 0.4 + 0.6j, 64), (0.3, -1.0 - 2.0j, 8),
                            (16.0, 0.0, 2), (2.0, 1.5j, 256)]:
            got = _rule(flow, a, n, z, nodes)
            want, size = _reference_gh_sum(flow, a, n, z, nodes)
            assert (got - want).fro_norm() <= 1e-13 * size
            _assert_quadrature_matches(flow, a, n, z, nodes)


@pytest.mark.parametrize("dims,spectrum,rules", [
    ((1, 1, 1), None, (2, 3, 64)),
    ((1, 3), None, (3, 8, 64)),
    ((2, 5), None, (3, 5)),
    ((4,), [0.0, 1.0, 1.0, 2.5], (5, 64)),
    ((GH_NODES_DEFAULT + 16,), None, (GH_NODES_DEFAULT, GH_NODES_MAX)),
], ids=["all-1x1", "1-and-3", "odd-rules", "repeated-eigenvalue", "slabs"])
def test_rules_match_reference_loop_on_edge_spectra(dims, spectrum, rules):
    """Blocks with no gaps, odd rules with a zero node, a zero gap above the diagonal,
    and an 80×80 block whose gaps times the positive nodes take two slabs at 64 nodes
    and seven at 256, where the second slab's weights start at about 4e-5."""
    rng = np.random.default_rng(909)
    if spectrum is None:
        flow = _flow(dims, scale=1.0, rng=rng)
    else:
        alg = BlockAlgebra(dims)
        flow = InnerFlow(alg, alg.element([np.diag(spectrum).astype(complex)]))
    if dims == (GH_NODES_DEFAULT + 16,):
        m = dims[0]
        assert _GH_CHUNK_ENTRIES < GH_NODES_DEFAULT // 2 * (m * (m - 1) // 2) <= 2 * _GH_CHUNK_ENTRIES
    a = random_element(flow.algebra, rng)
    for nodes in rules:
        for n, z in [(1.0, 0.0), (4.0, 0.4 + 0.6j), (0.3, -1.0 - 2.0j)]:
            got = _rule(flow, a, n, z, nodes)
            want, size = _reference_gh_sum(flow, a, n, z, nodes)
            assert (got - want).fro_norm() <= 1e-13 * size
            _assert_quadrature_matches(flow, a, n, z, nodes)


@given(dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       scale=st.floats(0.1, 3.0), n=st.floats(0.25, 16.0),
       z=st.complex_numbers(max_magnitude=2.0), nodes=st.sampled_from([2, 8, GH_NODES_DEFAULT]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_quadrature_matches_reference_loop(dims, scale, n, z, nodes, seed):
    rng = np.random.default_rng(seed)
    flow = _flow(tuple(dims), scale=scale, rng=rng)
    _assert_quadrature_matches(flow, random_element(flow.algebra, rng), n, z, nodes)


@given(dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       scale=st.floats(0.1, 3.0), n=st.floats(0.25, 16.0),
       re=st.floats(-3.0, 3.0), im=st.floats(-1.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_property_quadrature_matches_the_closed_form(dims, scale, n, re, im, seed):
    """Both smoothing routes agree to the rule's tolerance where the rule converges:
    every gap satisfies |λ_j − λ_k|/√n ≤ 8 (n is raised to that where a draw has
    not), and |Im z| ≤ 1. There the Gauss–Hermite rule integrates e^{iωx} for
    |ω| ≤ 8 to about 1e-12 at 128 nodes, below the 256-node cap, and the terms summed
    exceed the result by at most e^{|Im z|·gap}."""
    rng = np.random.default_rng(seed)
    flow = _flow(tuple(dims), scale=scale, rng=rng)
    n = max(n, (flow.spectral_spread / 8.0) ** 2)
    a, z = random_element(flow.algebra, rng), complex(re, im)
    cf = flow.smooth_shifted(a, n, z, method="closed_form")
    qd = flow.smooth_shifted(a, n, z, method="quadrature")
    assert (cf - qd).fro_norm() <= 1e-8 * cf.fro_norm()


def test_quadrature_computes_each_gauss_hermite_rule_once(monkeypatch):
    calls = []
    hermgauss = np.polynomial.hermite.hermgauss
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                        lambda k: calls.append(k) or hermgauss(k))
    _gauss_hermite.cache_clear()
    rng = np.random.default_rng(606)
    flow = _flow((3, 2), scale=2.0, rng=rng)
    a = random_element(flow.algebra, rng)
    used = _spy_rules(flow)
    for n, nodes in [(1.0, 64), (2.5, 64), (0.3, 64), (1.0, 8), (4.0, 8)] * 2:
        flow.smooth(a, n, method="quadrature", nodes=nodes)
    assert sorted(calls) == sorted(set(used)) and len(set(used)) >= 3


@pytest.mark.parametrize("n,nodes,calls", [(0.5, 64, [64, 32, 128]),
                                            (0.1, 200, [200, 100, 256, 128])])
def test_doubled_rule_reuses_the_previous_rule_as_its_half(n, nodes, calls):
    """64 → 128 nodes sums three rules, not four; a doubling clamped at GH_NODES_MAX
    (200 → 256) has a new half. The result is the largest rule's sum as it stands."""
    alg = BlockAlgebra((3,))
    flow = InnerFlow(alg, alg.element([np.diag([0.0, 3.0, 7.0]).astype(complex)]))
    a = alg.element([np.ones((3, 3), dtype=complex)])
    want = _rule(flow, a, n, 0.0, max(calls))
    used = _spy_rules(flow)
    got = flow.smooth(a, n, method="quadrature", nodes=nodes)
    assert used == calls
    assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))


@pytest.mark.parametrize("nodes", [2, 3, 4])
def test_few_node_quadrature_meets_the_closed_form(nodes):
    """A rule of 2 or 3 nodes is checked against 1 node, never against itself, so the
    doubling runs on until the sum is right."""
    alg = BlockAlgebra((3,))
    flow = InnerFlow(alg, alg.element([np.diag([0.0, 3.0, 7.0]).astype(complex)]))
    a = alg.element([np.ones((3, 3), dtype=complex)])
    want = flow.smooth(a, 0.5)
    got = flow.smooth(a, 0.5, method="quadrature", nodes=nodes)
    assert (got - want).fro_norm() <= 1e-7 * want.fro_norm()


def test_quadrature_refuses_node_counts_outside_the_rule_range(monkeypatch):
    # hermgauss(512) takes over a second and returns NaN weights; the refusal must come
    # first, leaving the rule cache as it was
    flow = _flow((2,))
    a = random_element(flow.algebra, RNG)
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                        lambda k: pytest.fail(f"hermgauss({k}) ran"))
    before = _gauss_hermite.cache_info().currsize
    for nodes in (0, 1, GH_NODES_MAX + 1, 512):
        for method in ("quadrature", "closed_form"):
            with pytest.raises(ValueError, match=f"{nodes} nodes is outside"):
                flow.smooth_shifted(a, 1.0, 0.2j, method=method, nodes=nodes)
    assert _gauss_hermite.cache_info().currsize == before


def test_cached_gauss_hermite_rules_are_exact_and_read_only():
    for k in (2, 8, 32, GH_NODES_DEFAULT, GH_NODES_MAX):
        x, w = _gauss_hermite(k)
        fx, fw = np.polynomial.hermite.hermgauss(k)
        assert x.tobytes() == fx.tobytes() and w.tobytes() == fw.tobytes()
        assert _gauss_hermite(k)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_an_asymmetric_gauss_hermite_rule_is_an_internal_fault(monkeypatch):
    """The quadrature pairs node x with −x; a rule one ulp off that is refused."""
    hermgauss = np.polynomial.hermite.hermgauss

    def skewed(k):
        x, w = hermgauss(k)
        x[-1] = np.nextafter(x[-1], np.inf)
        return x, w

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", skewed)
    flow = _flow((3,))
    a = random_element(flow.algebra, RNG)
    _gauss_hermite.cache_clear()
    try:
        with pytest.raises(InternalFault, match="8 nodes is not symmetric"):
            flow.smooth(a, 1.0, method="quadrature", nodes=8)
    finally:
        _gauss_hermite.cache_clear()


def test_smooth_rejects_bad_index():
    flow = _flow((2,))
    a = random_element(flow.algebra, RNG)
    with pytest.raises(ValueError, match="positive"):
        flow.smooth(a, 0.0)


def test_unitary_conjugation_is_the_flow():
    flow = _flow((2, 3))
    a = random_element(flow.algebra, RNG)
    for t in (-1.3, 0.0, 0.4):
        x = flow.unitary(t)
        assert (x @ x.adjoint() - flow.algebra.identity()).norm() < 1e-12
        assert (x @ a @ x.adjoint() - flow.evolve(a, t)).norm() < 1e-12


def test_quadrature_gives_up_with_a_finite_estimate():
    # needs more nodes than the cap; hermgauss above 256 nodes returns NaN weights
    alg = BlockAlgebra((2,))
    flow = InnerFlow(alg, alg.element([np.diag([0.0, 400.0]).astype(complex)]))
    a = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
    with pytest.raises(QuadratureError, match=f"{GH_NODES_MAX} nodes") as err:
        flow.smooth(a, 0.01, method="quadrature")
    est = float(re.search(r"estimate (\S+) >", str(err.value)).group(1))
    assert math.isfinite(est)


def _strip_residuals(flow, omega, a, b, beta):
    """The KMS condition as the book states it, on the strip 0 ≤ Im z ≤ β: the largest
    boundary residuals (lower, upper) of f(z) = ω(b σ_z(a)) at Re z ∈ {−2, −0.75, 0,
    0.75, 2}. The references take σ_t(a) = U a U* with the dense U = ``unitary(t)``,
    not the entrywise route of ``continue_analytic``: on Im z = 0 the reference is
    ω(b σ_t(a)), on Im z = β it is ω(σ_t(a) b). The oracle for ``verify_kms``'s verdict."""
    lower = upper = 0.0
    for t in (-2.0, -0.75, 0.0, 0.75, 2.0):
        x = flow.unitary(t)
        a_t = x @ a @ x.adjoint()
        lower = max(lower, abs(omega(b @ flow.continue_analytic(a, t)) - omega(b @ a_t)))
        upper = max(upper, abs(omega(b @ flow.continue_analytic(a, t + 1j * beta))
                               - omega(a_t @ b)))
    return lower, upper


def test_strip_check_accepts_equilibrium():
    flow = _flow((3,), scale=1.0)
    beta = 1.4
    omega = gibbs(flow, beta).functional
    a = random_element(flow.algebra, RNG)
    b = random_element(flow.algebra, RNG)
    assert max(_strip_residuals(flow, omega, a, b, beta)) < 1e-9


def test_strip_check_flags_wrong_temperature():
    flow = _flow((3,), scale=1.0)
    omega = gibbs(flow, 1.0).functional
    a = random_element(flow.algebra, RNG)
    b = random_element(flow.algebra, RNG)
    assert max(_strip_residuals(flow, omega, a, b, beta=2.0)) > 1e-4


def test_strip_check_lower_boundary_is_independent_of_entrywise_route(monkeypatch):
    flow = _flow((3,), scale=1.0)
    beta = 1.4
    omega = gibbs(flow, beta).functional
    a = random_element(flow.algebra, RNG)
    b = random_element(flow.algebra, RNG)
    entrywise = InnerFlow._entrywise

    def skewed(self, x, factor):               # the entrywise route runs 10% fast
        return entrywise(self, x, lambda d: factor(1.1 * d))

    monkeypatch.setattr(InnerFlow, "_entrywise", skewed)
    lower, _ = _strip_residuals(flow, omega, a, b, beta)
    assert lower > 1e-3


@pytest.mark.parametrize("dims", [(3,), (2, 3), (1, 2, 2)])
def test_strip_oracle_and_verify_kms_agree(dims):
    """The strip form and ``verify_kms``'s two routes give one verdict at tol 1e-8: the
    Gibbs state at β passes both, and fails both at 2β; the tracial state fails both
    at β ≠ 0."""
    flow = _flow(dims, scale=1.0)
    beta = 1.4
    a = random_element(flow.algebra, RNG)
    b = random_element(flow.algebra, RNG)
    cases = [(gibbs(flow, beta).functional, beta, True),
             (gibbs(flow, beta).functional, 2.0 * beta, False),
             (gibbs(flow, 0.0).functional, beta, False)]
    for omega, at, equilibrium in cases:
        assert (max(_strip_residuals(flow, omega, a, b, at)) <= 1e-8) is equilibrium
        assert verify_kms(flow, omega, at).passed is equilibrium


def test_spectral_spread():
    alg = BlockAlgebra((3,))
    h = alg.element([np.diag([0.0, 1.0, 4.0]).astype(complex)])
    flow = InnerFlow(alg, h)
    assert abs(flow.spectral_spread - 4.0) < 1e-12
