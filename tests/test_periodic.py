"""Periodic flows: degree grading, Fejér averaging, canonical word traces."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kmslab import (
    BlockAlgebra,
    InnerFlow,
    PeriodicFlow,
    cuntz_trace,
    fejer_kernel,
    gap_unit,
    gauge_kms_beta,
    gibbs,
    minimal_period,
    random_element,
    relation_fit,
    trace_scaling_beta,
)
from kmslab.algebra import Functional, _exchange_residual, random_state

RNG = np.random.default_rng(271828)


def _diag_flow(*eigs):
    alg = BlockAlgebra((len(eigs),))
    h = alg.element([np.diag(np.asarray(eigs, dtype=float)).astype(complex)])
    return InnerFlow(alg, h)


# -- periods -------------------------------------------------------------------

def test_minimal_period_integer_gaps():
    assert abs(minimal_period(_diag_flow(0.0, 1.0)) - 2.0 * math.pi) < 1e-12
    assert abs(minimal_period(_diag_flow(0.0, 2.0)) - math.pi) < 1e-12
    assert abs(minimal_period(_diag_flow(0.0, 2.0, 3.0)) - 2.0 * math.pi) < 1e-12


def test_minimal_period_rational_gaps():
    # gaps 1/2 and 1/3 generate the lattice (1/6)Z, so the period is 12π
    flow = _diag_flow(0.0, 0.5, 0.5 + 1.0 / 3.0)
    assert abs(minimal_period(flow) - 12.0 * math.pi) < 1e-9


def test_trivial_flow_has_period_zero():
    assert minimal_period(_diag_flow(2.5, 2.5)) == 0.0


def test_incommensurable_gaps_are_aperiodic():
    assert minimal_period(_diag_flow(0.0, 1.0, math.sqrt(2.0))) is None


def test_declared_period_is_checked():
    flow = _diag_flow(0.0, 1.0)
    PeriodicFlow(flow, period=2.0 * math.pi)      # fine
    PeriodicFlow(flow, period=4.0 * math.pi)      # a multiple is still a period
    with pytest.raises(ValueError):
        PeriodicFlow(flow, period=3.0)


def test_relation_fit_and_gap_unit():
    assert relation_fit(0.75) == Fraction(3, 4)
    assert relation_fit(math.sqrt(2.0)) is None
    assert abs(gap_unit([1.0, 2.0, 3.0]) - 1.0) < 1e-12
    assert abs(gap_unit([1.5, 2.5]) - 0.5) < 1e-12
    assert gap_unit([1.0, math.sqrt(2.0)]) is None


# -- degree decomposition ------------------------------------------------------

def test_occupied_degrees():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0))
    assert pf.occupied_degrees() == [-1, 0, 1]
    pf2 = PeriodicFlow(_diag_flow(0.0, 1.0, 3.0))
    assert pf2.occupied_degrees() == [-3, -2, -1, 0, 1, 2, 3]
    assert pf2.max_degree == 3


def test_components_resum_to_identity_map():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0, 2.0))
    a = random_element(pf.algebra, RNG)
    total = pf.algebra.zero()
    for k in pf.occupied_degrees():
        total = total + pf.spectral_component(a, k)
    assert (total - a).norm() < 1e-10


def test_components_are_idempotent_and_orthogonal():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0, 2.0))
    a = random_element(pf.algebra, RNG)
    for k in (-1, 0, 2):
        qk = pf.spectral_component(a, k)
        assert (pf.spectral_component(qk, k) - qk).norm() < 1e-10
        for j in (-2, 1):
            assert pf.spectral_component(qk, j).norm() < 1e-10


def test_component_evolves_by_character():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0, 3.0))
    a = random_element(pf.algebra, RNG)
    t = 0.37
    for k in pf.occupied_degrees():
        qk = pf.spectral_component(a, k)
        expect = complex(np.exp(1j * k * t)) * qk
        assert (pf.flow.evolve(qk, t) - expect).norm() < 1e-10


def test_grading_is_multiplicative():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0, 2.0))
    a = random_element(pf.algebra, RNG)
    b = random_element(pf.algebra, RNG)
    x = pf.spectral_component(a, 1) @ pf.spectral_component(b, -2)
    assert (pf.spectral_component(x, -1) - x).norm() < 1e-10


def test_degree_zero_is_conditional_expectation():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0, 1.0))
    alg = pf.algebra
    assert (pf.spectral_component(alg.identity(), 0) - alg.identity()).norm() < 1e-12
    # bimodule property over the fixed-point algebra
    x = alg.element([np.diag([2.0, 1.0, 1.0]).astype(complex)])
    blk = np.zeros((3, 3), dtype=complex)
    blk[1:, 1:] = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    y = alg.element([blk + np.diag([0.5, 0.0, 0.0])])
    for _ in range(5):
        a = random_element(alg, RNG)
        lhs = pf.spectral_component(x @ a @ y, 0)
        rhs = x @ pf.spectral_component(a, 0) @ y
        assert (lhs - rhs).norm() < 1e-10
    # positivity
    a = random_element(alg, RNG)
    q0 = pf.spectral_component(a.adjoint() @ a, 0)
    assert np.linalg.eigvalsh(q0.blocks[0]).min() > -1e-10


def test_component_routes_agree():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0, 3.0))
    for trial in range(3):
        a = random_element(pf.algebra, np.random.default_rng(trial))
        for k in (-3, 0, 1, 2):
            cf = pf.spectral_component(a, k, method="closed_form")
            qd = pf.spectral_component(a, k, method="quadrature")
            assert (cf - qd).norm() < 1e-8


# -- Fejér kernel and means ----------------------------------------------------

def test_kernel_values():
    xs = np.linspace(-math.pi, math.pi, 2001)
    for order in (0, 1, 3, 10, 50):
        vals = fejer_kernel(order, xs)
        assert np.all(vals >= -1e-12)
        assert abs(fejer_kernel(order, 0.0) - (order + 1) ** 2) < 1e-9
    assert np.allclose(fejer_kernel(0, xs), 1.0)


def test_kernel_mean_over_period():
    # ∫ K_N dx / (2π) = N + 1 (the kernel is normalized by 1/(N+1) in means)
    n = 1 << 14
    xs = 2.0 * math.pi * np.arange(n) / n
    for order in (1, 4, 9):
        avg = float(np.mean(fejer_kernel(order, xs)))
        assert abs(avg - (order + 1)) < 1e-9


def test_fejer_weights_on_two_level_system():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0))
    e01 = pf.algebra.element([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
    m3 = pf.fejer_mean(e01, 3)
    assert (m3 - 0.75 * e01).norm() < 1e-12
    # degree-zero part is untouched at every order
    d = pf.algebra.element([np.diag([1.0, -2.0]).astype(complex)])
    assert (pf.fejer_mean(d, 0) - d).norm() < 1e-12


def test_fejer_mean_is_contractive():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0, 2.0))
    for trial in range(10):
        a = random_element(pf.algebra, np.random.default_rng(900 + trial))
        for order in (0, 2, 7):
            assert pf.fejer_mean(a, order).norm() <= a.norm() + 1e-10


def test_fejer_mean_matches_kernel_quadrature():
    """The weight table must agree with averaging the flow against the kernel."""
    pf = PeriodicFlow(_diag_flow(0.0, 1.0, 3.0))
    period = 2.0 * math.pi
    a = random_element(pf.algebra, RNG)
    m = 4096
    ts = period * (np.arange(m) + 0.5) / m
    for order in (1, 4, 10):
        acc = pf.algebra.zero()
        for t in ts:
            w = fejer_kernel(order, 2.0 * math.pi * t / period) / (order + 1)
            acc = acc + (w / m) * pf.flow.evolve(a, t)
        direct = pf.fejer_mean(a, order)
        assert (acc - direct).norm() < 1e-6


def test_cesaro_convergence_with_rate():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0, 2.0))
    a = random_element(pf.algebra, RNG)
    weighted = sum(abs(k) * pf.spectral_component(a, k).norm()
                   for k in pf.occupied_degrees())
    for order in (1, 3, 10, 30, 100):
        err = (pf.fejer_mean(a, order) - a).norm()
        assert err <= weighted / (order + 1) + 1e-12
    assert (pf.fejer_mean(a, 10 ** 4) - a).norm() < 1e-3


# -- scaling traces and word functionals ----------------------------------------

def test_trace_scaling_beta_two_level():
    for m in (2, 5):
        pf = PeriodicFlow(_diag_flow(0.0, 1.0))
        w = np.array([1.0, 1.0 / m]) / (1.0 + 1.0 / m)
        tau = Functional(pf.algebra, pf.algebra.element([np.diag(w).astype(complex)]))
        beta = trace_scaling_beta(pf, tau)
        assert abs(beta - math.log(m)) < 1e-12


def test_trace_scaling_beta_degenerate_cases():
    pf = PeriodicFlow(_diag_flow(0.0, 1.0))
    tau = Functional(pf.algebra, 0.5 * pf.algebra.identity())
    assert trace_scaling_beta(pf, tau) == pytest.approx(0.0, abs=1e-12)
    # the gibbs state of the flow scales with beta equal to its temperature
    flow = pf.flow
    psi = gibbs(flow, 1.3)
    assert abs(trace_scaling_beta(pf, psi.functional) - 1.3) < 1e-10


def test_trace_scaling_beta_refuses_non_trace_on_fixed_points():
    # degree zero holds the corner spanned by the two zero eigenvectors,
    # where the weights .5 and .3 differ
    pf = PeriodicFlow(_diag_flow(0.0, 0.0, 1.0))
    tau = Functional(pf.algebra, pf.algebra.element([np.diag([0.5, 0.3, 0.2]).astype(complex)]))
    with pytest.raises(ValueError, match=r"not a trace on the fixed-point algebra "
                                         r"\(residual 2\.000e-01\)"):
        trace_scaling_beta(pf, tau)


def _reference_fixed_point_residuals(degrees, tau_eig):
    """trace_scaling_beta's masked n⁴ einsum tensors, kept as the oracle."""
    out = []
    for deg, t in zip(degrees, tau_eig):
        n = t.shape[0]
        eye = np.eye(n)
        mask0 = (deg == 0).astype(float)
        lhs = np.einsum("lm,nj,jl,mn->jlmn", eye, t, mask0, mask0)
        rhs = np.einsum("nj,lm,jl,mn->jlmn", eye, t, mask0, mask0)
        out.append(float(np.max(np.abs(lhs - rhs))))
    return out


def test_fixed_point_trace_check_matches_reference_route():
    rng = np.random.default_rng(218)
    flows = [_diag_flow(0.0, 0.0, 1.0), _diag_flow(0.0, 1.0, 1.0, 2.0, 0.0),
             _diag_flow(3.0, 3.0, 3.0), _diag_flow(0.0, 2.0)]
    alg = BlockAlgebra((3, 2))
    flows.append(InnerFlow(alg, alg.element([np.diag([0.0, 1.0, 1.0]).astype(complex),
                                             np.diag([2.0, 2.0]).astype(complex)])))
    for flow in flows:
        pf = PeriodicFlow(flow)
        taus = [random_state(pf.algebra, rng), gibbs(flow, 0.4).functional,
                Functional(pf.algebra, pf.algebra.identity(), check=False)]
        for tau in taus:
            tau_eig = flow.to_eigenbasis(tau.density)
            want = _reference_fixed_point_residuals(pf.degrees, tau_eig)
            got = [_exchange_residual(t, mask=deg == 0)[0] for deg, t in zip(pf.degrees, tau_eig)]
            assert got == want
            # the refusal fires on the first block past tol, with its residual
            scale = max(1.0, tau.density.norm())
            first_bad = next((r for r in want if r > 1e-8 * scale), None)
            try:
                trace_scaling_beta(pf, tau)
                msg = None
            except ValueError as e:
                msg = str(e)
            if first_bad is None:
                assert msg is None or "fixed-point" not in msg
            else:
                assert msg == ("functional is not a trace on the fixed-point algebra "
                               f"(residual {first_bad:.3e})")
    # masks that no flow produces, on non-Hermitian densities
    for _ in range(100):
        n = int(rng.integers(1, 6))
        deg = rng.integers(-1, 2, size=(n, n))
        t = rng.choice([0.0, 0.3, -0.3j, 1.0], size=(n, n)).astype(complex)
        assert [_exchange_residual(t, mask=deg == 0)[0]] == \
            _reference_fixed_point_residuals([deg], [t])


def test_cuntz_trace_values():
    assert cuntz_trace(2, (1, 2), (1, 2)) == Fraction(1, 4)
    assert cuntz_trace(2, (1, 2), (2, 1)) == 0
    assert cuntz_trace(3, (1,), (1,)) == Fraction(1, 3)
    assert cuntz_trace(2, (), ()) == 1
    with pytest.raises(ValueError):
        cuntz_trace(2, (3,), (3,))
    with pytest.raises(ValueError):
        cuntz_trace(1, (), ())


def test_cuntz_degree_ratio_is_exact_power():
    # x = S_a S_b*: the trace ratio tau(x*x)/tau(xx*) is m^(|a|-|b|) exactly
    for m, a, b in [(2, (1, 2, 1), (2,)), (3, (1,), (2, 3, 1, 1))]:
        num = cuntz_trace(m, b, b)
        den = cuntz_trace(m, a, a)
        assert num / den == Fraction(m) ** (len(a) - len(b))


def test_gauge_beta():
    rho = 2.0 * math.pi
    assert gauge_kms_beta(2, rho) == math.log(2.0) / rho
    assert abs(gauge_kms_beta(4, 1.0) - 2.0 * math.log(2.0)) < 1e-12
    with pytest.raises(ValueError, match="trivial"):
        gauge_kms_beta(2, 0.0)
