"""Equilibrium states: the exchange condition, the simplex, corners, the cone."""

import math
import tracemalloc

import numpy as np
import pytest

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
    random_hermitian,
    restrict_to_corner,
    support_compression,
    trace_of,
    verify_kms,
)
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
