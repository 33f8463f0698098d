"""Equilibrium states: the exchange condition, the simplex, corners, the cone."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmslab import (
    BlockAlgebra,
    Functional,
    InnerFlow,
    KmsWeight,
    Projection,
    coefficients_of,
    dominated_decomposition,
    extend_from_corner,
    from_trace,
    gibbs,
    is_positive,
    kms_simplex,
    lattice_join,
    lattice_meet,
    random_element,
    random_hermitian,
    restrict_to_corner,
    simplex_sweep,
    support_compression,
    trace_of,
    verify_kms,
)
from kmslab import kms
from kmslab.algebra import random_state
from kmslab.kms import EXP_CAP

RNG = np.random.default_rng(1123)


def _random_flow(dims, scale=1.0, rng=RNG):
    alg = BlockAlgebra(dims)
    return InnerFlow(alg, random_hermitian(alg, rng, scale=scale))


def _trace_state(alg):
    return Functional(alg, (1.0 / alg.rep_dim) * alg.identity())


def test_gibbs_passes_exchange_check():
    for trial in range(6):
        rng = np.random.default_rng(300 + trial)
        flow = _random_flow((4,), rng=rng)
        for beta in (-1.5, 0.0, 2.0):
            v = verify_kms(flow, gibbs(flow, beta), beta, tol=1e-9)
            assert v.passed, f"residual {v.max_residual:.3e} at beta={beta}"
            assert v.residual_exchange <= 1e-9
            assert v.residual_half_shift <= 1e-9


def test_trace_fails_exchange_with_known_defect():
    # two-level system, unit inverse temperature: the defect on the
    # off-diagonal matrix-unit pair is exactly (e - 1)/2
    alg = BlockAlgebra((2,))
    flow = InnerFlow(alg, alg.element([np.diag([0.0, 1.0]).astype(complex)]))
    v = verify_kms(flow, _trace_state(alg), beta=1.0, tol=1e-9)
    assert not v.passed
    assert abs(v.max_residual - (math.e - 1.0) / 2.0) < 1e-12
    assert v.worst_pair in (((0, 0, 1), (0, 1, 0)), ((0, 1, 0), (0, 0, 1)))


def _reference_route_one(flow, omega, beta):
    """verify_kms's route one as the n⁴ einsum tensors, kept as the oracle."""
    worst = None
    worst_val = 0.0
    for b, (w, dd) in enumerate(zip(flow.eigenvalues, flow.to_eigenbasis(omega.density))):
        n = w.size
        eye = np.eye(n)
        fac = np.exp(-beta * (w[:, None] - w[None, :]))          # fac[k,l]
        lhs = np.einsum("lm,nk->klmn", eye, dd)
        rhs = np.einsum("kl,nk,lm->klmn", fac, eye, dd)
        resid = np.abs(lhs - rhs)
        k, l, m, nn = np.unravel_index(int(np.argmax(resid)), resid.shape)
        if resid[k, l, m, nn] >= worst_val:
            worst_val = float(resid[k, l, m, nn])
            worst = ((b, int(k), int(l)), (b, int(m), int(nn)))
    return worst_val, worst


def _diag_flow(*blocks):
    alg = BlockAlgebra(tuple(len(w) for w in blocks))
    return InnerFlow(alg, alg.element([np.diag(np.asarray(w, float)).astype(complex)
                                       for w in blocks]))


def _route_one_cases():
    """(flow, functional, β) covering Gibbs, tracial, random, degenerate,
    zero, non-Hermitian and multi-block tie inputs."""
    rng = np.random.default_rng(4242)
    cases = []
    for dims in [(1,), (2,), (4,), (2, 3), (3, 1, 2)]:
        flow = _random_flow(dims, rng=rng)
        alg = flow.algebra
        for beta in (-1.5, 0.0, 0.7, 3.0):
            cases.append((flow, gibbs(flow, beta).functional, beta))
            cases.append((flow, _trace_state(alg), beta))
            cases.append((flow, random_state(alg, rng), beta))
        cases.append((flow, Functional(alg, alg.zero()), 1.0))
        blocks = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in dims]
        cases.append((flow, Functional(alg, alg.element(blocks), check=False), 1.2))
    # degenerate spectra: many pairs tie for the maximum
    for eigs in [(0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0), (2.0, 1.0, 1.0, 0.0, 0.0)]:
        flow = _diag_flow(eigs)
        for beta in (0.0, 1.0, -2.0):
            cases.append((flow, _trace_state(flow.algebra), beta))
            cases.append((flow, random_state(flow.algebra, rng), beta))
    # the (e−1)/2 pairing; identical blocks tie and the later one must win;
    # a later block may win outright
    for blocks in [((0.0, 1.0),), ((0.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
                   ((0.0, 1.0), (0.0, 2.0)), ((0.0, 2.0), (0.0, 1.0), (5.0,))]:
        flow = _diag_flow(*blocks)
        for beta in (1.0, -0.5):
            cases.append((flow, _trace_state(flow.algebra), beta))
    return cases


def test_route_one_matches_reference_route():
    cases = _route_one_cases()
    for flow, omega, beta in cases:
        want_val, want_pair = _reference_route_one(flow, omega, beta)
        v = verify_kms(flow, omega, beta, samples=1)
        assert (v.residual_exchange, v.worst_pair) == (want_val, want_pair), \
            (flow.algebra.block_dims, beta)
        assert type(v.residual_exchange) is float
    # the tie cases really exercise the later-block rule
    tie = _diag_flow((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    assert verify_kms(tie, _trace_state(tie.algebra), 1.0, samples=1).worst_pair[0][0] == 2
    zero = Functional(tie.algebra, tie.algebra.zero())
    assert verify_kms(tie, zero, 1.0, samples=1).worst_pair == ((2, 0, 0), (2, 0, 0))


def _reference_route_two(flow, omega, beta, samples=100, seed=7):
    """verify_kms's route two as the per-sample loop over AlgElements, kept as the oracle."""
    rng = np.random.default_rng(seed)
    residual_half = 0.0
    for _ in range(samples):
        a = random_element(flow.algebra, rng)
        a = (1.0 / max(a.fro_norm(), 1e-30)) * a
        g = flow.continue_analytic(a, -0.5j * beta)
        lhs = omega(a.adjoint() @ a)
        rhs = omega(g @ g.adjoint())
        residual_half = max(residual_half, abs(lhs - rhs))
    return residual_half


def _assert_route_two_matches(flow, omega, beta, samples=100, tol=1e-8):
    want = _reference_route_two(flow, omega, beta, samples)
    v = verify_kms(flow, omega, beta, tol=tol, samples=samples)
    # both routes round entries of size up to e^{|β|·spread/2}, so that is how
    # far apart two correct routes' rounding may put them
    cond = math.exp(0.5 * abs(beta) * flow.spectral_spread)
    assert abs(v.residual_half_shift - want) <= 1e-12 * max(1.0, want) * cond, \
        (flow.algebra.block_dims, beta, v.residual_half_shift, want)
    assert v.passed == (max(v.residual_exchange, want) <= tol)
    assert type(v.residual_half_shift) is float and type(v.max_residual) is float


def test_route_two_matches_reference_loop():
    for flow, omega, beta in _route_one_cases():
        _assert_route_two_matches(flow, omega, beta, samples=30)


def test_route_two_draws_the_same_samples_in_any_chunking(monkeypatch):
    # (16,) and (3, 20) take several chunks at the default size; one sample
    # per chunk and one chunk for all must see the very same samples
    rng = np.random.default_rng(77)
    for dims in [(16,), (3, 20)]:
        flow = _random_flow(dims, rng=rng)
        states = [gibbs(flow, -1.1).functional, random_state(flow.algebra, rng)]
        for entries in (kms._HALF_SHIFT_CHUNK_ENTRIES, 1, 2 ** 40):
            monkeypatch.setattr(kms, "_HALF_SHIFT_CHUNK_ENTRIES", entries)
            for omega in states:
                _assert_route_two_matches(flow, omega, -1.1)


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def _equilibrium_problems(draw):
    """1–4 blocks of size ≤ 8, β of either sign, and a Gibbs, tracial or random
    state, on generic or degenerate spectra."""
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)))
    beta = draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["gibbs", "tracial", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alg = BlockAlgebra(dims)
    if draw(st.booleans()):         # degenerate: eigenvalues from {0, 1, 2}
        blocks = []
        for n in dims:
            q = _unitary(rng, n)
            blocks.append((q * rng.choice([0.0, 1.0, 2.0], n)) @ q.conj().T)
        flow = InnerFlow(alg, alg.element(blocks))
    else:
        flow = InnerFlow(alg, random_hermitian(alg, rng, scale=draw(st.floats(0.1, 3.0))))
    omega = {"gibbs": lambda: gibbs(flow, beta).functional,
             "tracial": lambda: _trace_state(alg),
             "random": lambda: random_state(alg, rng)}[kind]()
    return flow, omega, beta


@given(_equilibrium_problems())
def test_property_route_two_matches_reference_loop(problem):
    _assert_route_two_matches(*problem)


def test_nan_density_fails_verification():
    # a NaN entry used to vanish in `>` and Python's max, and this passed
    flow = _diag_flow((0.0, 1.0))
    nan = Functional(flow.algebra, flow.algebra.element([np.array([[np.nan, 0.0], [0.0, 0.5]])]),
                     check=False)
    v = verify_kms(flow, nan, 1.0)
    assert not v.passed
    assert np.isnan(v.max_residual)
    assert np.isnan(v.residual_exchange) and np.isnan(v.residual_half_shift)
    # either route's NaN alone reaches the verdict
    only_one = verify_kms(flow, nan, 1.0, samples=0)
    assert only_one.residual_half_shift == 0.0 and not only_one.passed
    assert np.isnan(kms._half_shift_residual(flow, flow.to_eigenbasis(nan.density), 1.0, 5, 7))


def test_verify_refuses_beta_beyond_exp_cap():
    # e^{β·10} overflows at β = 100; inf·0 used to turn every residual into a
    # NaN that the maximum dropped, so the tracial state passed
    flow = _diag_flow((0.0, 10.0))
    with pytest.raises(ValueError, match=f"exceeds {EXP_CAP:g}"):
        verify_kms(flow, _trace_state(flow.algebra), 100.0)
    with pytest.raises(ValueError, match=f"exceeds {EXP_CAP:g}"):
        verify_kms(flow, _trace_state(flow.algebra), -70.5)
    # the cap is on the spread within a block, which is all the exchange uses
    wide = _diag_flow((0.0, 1.0), (50.0, 51.0))
    assert not verify_kms(wide, _trace_state(wide.algebra), 60.0, samples=1).passed


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_non_finite_beta_is_refused(beta):
    """A non-finite β is bad input: e^{-βh} at β = NaN used to give a NaN density
    (and a verdict computed from it) instead of an error."""
    flow = _diag_flow((0.0, 1.0), (0.5,))
    with pytest.raises(ValueError, match="is not finite"):
        gibbs(flow, beta)
    with pytest.raises(ValueError, match="is not finite|strip bound"):     # ±inf: the strip
        verify_kms(flow, _trace_state(flow.algebra), beta)
    with pytest.raises(ValueError, match="is not finite"):
        simplex_sweep(flow, [0.5, beta])
    # a spread of 0 makes |β|·spread NaN at β = ±inf, which is refused too
    with pytest.raises(ValueError, match="is not finite"):
        gibbs(_diag_flow((2.0,)), beta)


def test_verify_memory_stays_quadratic():
    flow = _random_flow((64,), rng=np.random.default_rng(64))
    psi = gibbs(flow, 0.5)
    tracemalloc.start()
    try:
        v = verify_kms(flow, psi, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.passed
    assert peak <= 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_trace_is_equilibrium_at_beta_zero():
    flow = _random_flow((2, 3))
    tau = _trace_state(flow.algebra)
    assert verify_kms(flow, tau, 0.0, tol=1e-10).passed
    # and gibbs at beta = 0 *is* the trace
    g = gibbs(flow, 0.0)
    assert (g.density - tau.density).norm() < 1e-12


def test_gibbs_coefficients_are_uniform():
    flow = _random_flow((2, 3, 2))
    gam = coefficients_of(gibbs(flow, 1.7))
    assert np.allclose(gam, gam[0], rtol=1e-10)


def test_coefficients_reject_non_equilibrium():
    flow = _random_flow((3,), scale=2.0)
    phi = Functional(flow.algebra, (1.0 / 3.0) * flow.algebra.identity())
    with pytest.raises(ValueError):
        coefficients_of(phi, flow, beta=1.0)


def test_full_matrix_algebra_has_unique_equilibrium():
    for n in (2, 3, 5):
        flow = _random_flow((n,))
        s = kms_simplex(flow, 1.0)
        assert s.dimension == 0
        assert len(s.vertices) == 1
        assert (s.vertices[0].density - gibbs(flow, 1.0).density).norm() < 1e-10


def test_simplex_vertex_count_matches_center():
    rng = np.random.default_rng(77)
    for dims in [(2, 2), (1, 3, 2), (2, 1, 1, 4)]:
        flow = _random_flow(dims, rng=rng)
        s = kms_simplex(flow, 0.8)
        assert len(s.vertices) == len(dims)
        assert s.dimension == len(dims) - 1
        # each vertex charges exactly one block
        for k, v in enumerate(s.vertices):
            masses = [float(np.real(np.trace(b))) for b in v.density.blocks]
            assert abs(masses[k] - 1.0) < 1e-10
            assert sum(masses) == pytest.approx(1.0, abs=1e-10)


def test_simplex_mixtures_verify_and_invert():
    rng = np.random.default_rng(9)
    flow = _random_flow((2, 3, 2), rng=rng)
    beta = 1.3
    s = kms_simplex(flow, beta)
    for _ in range(20):
        w = rng.dirichlet(np.ones(len(s.vertices)))
        psi = s.mix(w)
        assert verify_kms(flow, psi, beta, tol=1e-9).passed
        w_back = s.barycentric_of(psi)
        assert np.max(np.abs(w_back - w)) < 1e-10


def test_mix_rejects_bad_weights():
    flow = _random_flow((2, 2))
    s = kms_simplex(flow, 1.0)
    with pytest.raises(ValueError):
        s.mix([0.7, 0.7])
    with pytest.raises(ValueError):
        s.mix([1.5, -0.5])


def test_trace_pairing_roundtrip():
    rng = np.random.default_rng(123)
    flow = _random_flow((2, 3), rng=rng)
    beta = 0.9
    s = kms_simplex(flow, beta)
    for _ in range(10):
        psi = s.mix(rng.dirichlet(np.ones(2)))
        tau = trace_of(psi)
        back = from_trace(tau, flow, beta)
        assert (back.density - psi.density).norm() < 1e-12


def test_from_trace_requires_a_trace():
    flow = _random_flow((2, 2))
    phi = Functional(flow.algebra, gibbs(flow, 2.0).density)
    if not verify_kms(flow, phi, 0.0, tol=1e-9).passed:  # phi is not tracial
        with pytest.raises(ValueError, match="not a trace"):
            from_trace(phi, flow, 1.0)


def _invariant_full_projection(flow, rng):
    """A projection commuting with the generator, nonzero in every block."""
    blocks = []
    for h in flow.generator.blocks:
        n = h.shape[0]
        _, u = np.linalg.eigh(h)
        keep = rng.integers(1, n + 1)
        pattern = np.zeros(n)
        pattern[rng.permutation(n)[:keep]] = 1.0
        blocks.append(u @ np.diag(pattern).astype(complex) @ u.conj().T)
    return Projection(flow.algebra.element(blocks))


def test_corner_roundtrip_on_invariant_projections():
    rng = np.random.default_rng(2024)
    flow = _random_flow((2, 3), rng=rng)
    beta = 1.1
    s = kms_simplex(flow, beta)
    for _ in range(8):
        psi = s.mix(rng.dirichlet(np.ones(2)))
        p = _invariant_full_projection(flow, rng)
        res = restrict_to_corner(psi, p)
        assert res.full
        assert 0.0 < res.weight <= 1.0 + 1e-12
        back = extend_from_corner(res.state, flow, beta, p)
        assert (back.density - psi.density).norm() < 1e-10


def test_corner_restriction_is_equilibrium_for_compressed_flow():
    rng = np.random.default_rng(31)
    flow = _random_flow((3,), rng=rng)
    psi = gibbs(flow, 0.7)
    p = _invariant_full_projection(flow, rng)
    res = restrict_to_corner(psi, p)
    assert verify_kms(res.state.flow, res.state, 0.7, tol=1e-9).passed


def test_extension_needs_full_projection():
    flow = _random_flow((2, 2))
    beta = 1.0
    zero2 = np.zeros((2, 2), dtype=complex)
    p = Projection(flow.algebra.element([np.eye(2, dtype=complex), zero2]))
    res = restrict_to_corner(gibbs(flow, beta), p)
    with pytest.raises(ValueError, match="misses block"):
        extend_from_corner(res.state, flow, beta, p)


def test_support_compression_drops_uncharged_blocks():
    flow = _random_flow((2, 3, 2))
    s = kms_simplex(flow, 1.0)
    vertex = s.vertices[1]
    compressed, kept = support_compression(vertex)
    assert kept == (1,)
    assert compressed.functional.is_faithful()
    assert compressed.algebra.block_dims == (3,)
    # a faithful state is untouched
    full = s.mix([0.2, 0.5, 0.3])
    same, kept_all = support_compression(full)
    assert kept_all == (0, 1, 2)
    assert same is full


def test_dominated_decomposition_recovers_component():
    rng = np.random.default_rng(55)
    flow = _random_flow((2, 2, 3), rng=rng)
    beta = 1.4
    s = kms_simplex(flow, beta)
    w = np.array([0.5, 0.3, 0.2])
    psi = s.mix(w)
    phi = KmsWeight(s.mix([1.0, 0.0, 0.0]).functional.scaled(0.5), beta, flow)
    c = dominated_decomposition(phi, psi)  # 0.5 * vertex_0 <= psi
    # central, contractive, and it reproduces phi against psi's density
    for blk in c.blocks:
        assert np.allclose(blk, blk[0, 0] * np.eye(blk.shape[0]), atol=1e-10)
    rebuilt = [cb @ db for cb, db in zip(c.blocks, psi.density.blocks)]
    for rb, pb in zip(rebuilt, phi.functional.density.blocks):
        assert np.max(np.abs(rb - pb)) < 1e-10


def test_dominated_decomposition_rejects_with_witness():
    flow = _random_flow((2, 2))
    beta = 1.0
    s = kms_simplex(flow, beta)
    big = KmsWeight(s.mix([0.9, 0.1]).functional.scaled(1.5), beta, flow)
    with pytest.raises(ValueError, match="not dominated"):
        dominated_decomposition(big, s.mix([0.5, 0.5]))


def test_lattice_operations():
    rng = np.random.default_rng(808)
    flow = _random_flow((2, 3), rng=rng)
    beta = 0.6
    s = kms_simplex(flow, beta)
    phi = s.mix([0.8, 0.2])
    psi = s.mix([0.3, 0.7])
    join = lattice_join(phi, psi)
    meet = lattice_meet(phi, psi)
    g_phi, g_psi = phi.coefficients(), psi.coefficients()
    assert np.allclose(join.coefficients(), np.maximum(g_phi, g_psi), atol=1e-12)
    assert np.allclose(meet.coefficients(), np.minimum(g_phi, g_psi), atol=1e-12)
    # order relations hold as operator inequalities between densities
    for upper, lower in [(join, phi), (join, psi), (phi, meet), (psi, meet)]:
        diff = upper.functional.density - lower.functional.density
        assert is_positive(diff, tol=1e-10)
    # the normalized join is again an equilibrium state
    assert verify_kms(flow, join.normalize(), beta, tol=1e-9).passed


# -- Boltzmann stacks over a β vector ------------------------------------------

def _reference_shifted_boltzmann(eigenvalues, eigenvectors, beta: float):
    """The one-β route the stacks replaced, verbatim: one GEMM per block."""
    lams = np.concatenate(eigenvalues)
    shift = lams.min() if beta >= 0 else lams.max()
    mats, traces = [], []
    for w, u in zip(eigenvalues, eigenvectors):
        e = np.exp(-beta * (w - shift))
        mats.append((u * e) @ u.conj().T)
        traces.append(float(e.sum()))
    return mats, np.asarray(traces)


@pytest.mark.parametrize("dims,steps", [((1,), 500), ((2, 3), 500), ((1, 2, 3, 4), 200),
                                        ((16, 16), 100), ((64,), 20)])
def test_boltzmann_stack_equals_the_one_beta_route(dims, steps):
    rng = np.random.default_rng(sum(dims) + steps)
    flow = _random_flow(dims, scale=2.0, rng=rng)
    betas = np.concatenate([[0.0, -0.0, 1.0, -1.0], rng.uniform(-4.0, 4.0, steps - 4)])
    mats, traces = kms._shifted_boltzmann(flow.eigenvalues, flow.eigenvectors, betas)
    assert [m.shape for m in mats] == [(steps, n, n) for n in dims]
    assert traces.shape == (steps, len(dims))
    for s, beta in enumerate(betas):
        want, want_traces = _reference_shifted_boltzmann(flow.eigenvalues, flow.eigenvectors,
                                                         float(beta))
        assert all(np.array_equal(m[s], w) for m, w in zip(mats, want))
        assert np.array_equal(traces[s], want_traces)


@pytest.mark.parametrize("dims", [(1,), (3,), (2, 1, 4), (8, 8)])
def test_gibbs_and_simplex_densities_equal_the_one_beta_route(dims):
    flow = _random_flow(dims, rng=np.random.default_rng(len(dims)))
    for beta in (-2.5, 0.0, 0.7):
        mats, traces = _reference_shifted_boltzmann(flow.eigenvalues, flow.eigenvectors, beta)
        z = traces.sum()
        got = gibbs(flow, beta).density.blocks
        assert all(np.array_equal(g, m / z) for g, m in zip(got, mats))
        for i, v in enumerate(kms_simplex(flow, beta).vertices):
            want = [m / traces[i] if j == i else np.zeros_like(m) for j, m in enumerate(mats)]
            assert all(np.array_equal(g, w) for g, w in zip(v.density.blocks, want))


def test_simplex_sweep_counts_vertices_in_any_chunking(monkeypatch):
    flow = _random_flow((3, 1, 2), rng=np.random.default_rng(31))
    betas = np.linspace(2.0, -2.0, 37)
    got = simplex_sweep(flow, betas)
    assert got.tolist() == [[2, 3]] * 37
    for entries in (1, 14, 15, 100):       # coord_dim is 14: chunks of 1, 1, 1 and 7 β
        monkeypatch.setattr(kms, "_HALF_SHIFT_CHUNK_ENTRIES", entries)
        assert np.array_equal(simplex_sweep(flow, betas), got)
    assert simplex_sweep(flow, []).shape == (0, 2)


def test_simplex_sweep_refuses_the_first_beta_past_the_cap():
    flow = _diag_flow((0.0, 10.0), (3.0,))
    betas = [0.0, 50.0, -69.0, -71.0, 75.0]             # spread 10: -71 is the first past 700
    with pytest.raises(ValueError) as sweep_error:
        simplex_sweep(flow, betas)
    with pytest.raises(ValueError) as one_error:
        kms_simplex(flow, -71.0)
    assert str(sweep_error.value) == str(one_error.value)
    assert f"= 710 exceeds {EXP_CAP:g}" in str(sweep_error.value)


@pytest.mark.parametrize("entries", [1, 2 ** 15])
def test_simplex_sweep_mass_test_fires_on_the_first_bad_vertex(monkeypatch, entries):
    """Stacks patched so that block 1 at β = 0.5 and block 0 at β = 1.5 lose mass:
    the sweep raises KmsState's message for the first of them in sweep order."""
    flow = _random_flow((2, 3), rng=np.random.default_rng(5))
    real = kms._shifted_boltzmann

    def leaky(eigenvalues, eigenvectors, betas):
        mats, traces = real(eigenvalues, eigenvectors, betas)
        betas = np.asarray(betas, dtype=float)
        mats[1][betas == 0.5] *= 1.25
        mats[0][betas == 1.5] *= 0.5
        return mats, traces

    monkeypatch.setattr(kms, "_shifted_boltzmann", leaky)
    monkeypatch.setattr(kms, "_HALF_SHIFT_CHUNK_ENTRIES", entries)
    with pytest.raises(ValueError, match=r"not normalized \(mass 1\.25\)"):
        simplex_sweep(flow, [0.0, 0.25, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError, match=r"not normalized \(mass 0\.5\)"):
        simplex_sweep(flow, [2.0, 1.5, 0.5])
    with pytest.raises(ValueError, match=r"not normalized \(mass 1\.25\)"):
        kms_simplex(flow, 0.5)
    assert simplex_sweep(flow, [0.0, 1.0]).tolist() == [[1, 2], [1, 2]]
