"""One-parameter inner flows: group law, analytic continuation, smoothing."""

import numpy as np
import pytest

from kmslab import BlockAlgebra, InnerFlow, gibbs, random_element, random_hermitian
from kmslab.flow import AnalyticRangeError

RNG = np.random.default_rng(41)


def _flow(dims=(3,), scale=1.0, rng=RNG):
    alg = BlockAlgebra(dims)
    return InnerFlow(alg, random_hermitian(alg, rng, scale=scale))


def test_generator_must_be_hermitian():
    alg = BlockAlgebra((2,))
    a = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
    with pytest.raises(ValueError, match="self-adjoint"):
        InnerFlow(alg, a)


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


def test_smooth_rejects_bad_index():
    flow = _flow((2,))
    a = random_element(flow.algebra, RNG)
    with pytest.raises(ValueError, match="positive"):
        flow.smooth(a, 0.0)


def test_strip_check_accepts_equilibrium():
    flow = _flow((3,), scale=1.0)
    beta = 1.4
    omega = gibbs(flow, beta).functional
    a = random_element(flow.algebra, RNG)
    b = random_element(flow.algebra, RNG)
    rep = flow.strip_check(omega, a, b, beta)
    assert rep.max_residual < 1e-9


def test_strip_check_flags_wrong_temperature():
    flow = _flow((3,), scale=1.0)
    omega = gibbs(flow, 1.0).functional
    a = random_element(flow.algebra, RNG)
    b = random_element(flow.algebra, RNG)
    rep = flow.strip_check(omega, a, b, beta=2.0)
    assert rep.max_residual > 1e-4


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
    rep = flow.strip_check(omega, a, b, beta)
    assert rep.max_residual_lower > 1e-3


def test_spectral_spread():
    alg = BlockAlgebra((3,))
    h = alg.element([np.diag([0.0, 1.0, 4.0]).astype(complex)])
    flow = InnerFlow(alg, h)
    assert abs(flow.spectral_spread - 4.0) < 1e-12
