"""Finite-dimensional block algebra arithmetic and structure maps."""

import numpy as np
import pytest

from kmslab import (
    AlgElement,
    BlockAlgebra,
    Functional,
    Projection,
    center_projections,
    commutant_basis,
    is_positive,
    is_trace,
    random_element,
    random_hermitian,
    random_state,
)
from kmslab.algebra import _exchange_residual

RNG = np.random.default_rng(20260816)


def test_block_dims_validation():
    with pytest.raises(ValueError):
        BlockAlgebra(())
    with pytest.raises(ValueError):
        BlockAlgebra((2, 0))


def test_element_shape_validation():
    alg = BlockAlgebra((2, 3))
    with pytest.raises(ValueError, match="wrong number of blocks"):
        alg.element([np.eye(2)])
    with pytest.raises(ValueError, match="expected"):
        alg.element([np.eye(2), np.eye(2)])


def test_coords_roundtrip():
    alg = BlockAlgebra((2, 3, 1))
    for _ in range(10):
        a = random_element(alg, RNG)
        b = alg.from_coords(a.coords())
        assert (a - b).norm() < 1e-12


def test_star_algebra_identities():
    alg = BlockAlgebra((3, 2))
    for _ in range(8):
        a = random_element(alg, RNG)
        b = random_element(alg, RNG)
        assert ((a @ b).adjoint() - b.adjoint() @ a.adjoint()).norm() < 1e-12
        assert ((a + b).adjoint() - (a.adjoint() + b.adjoint())).norm() < 1e-12
        # trace is cyclic and *-symmetric
        assert abs((a @ b).trace() - (b @ a).trace()) < 1e-10
        assert abs(a.adjoint().trace() - np.conj(a.trace())) < 1e-12
        # C*-identity on the operator norm
        assert abs((a.adjoint() @ a).norm() - a.norm() ** 2) < 1e-9 * max(1.0, a.norm() ** 2)


def test_norm_submultiplicative():
    alg = BlockAlgebra((4,))
    for _ in range(6):
        a = random_element(alg, RNG)
        b = random_element(alg, RNG)
        assert (a @ b).norm() <= a.norm() * b.norm() + 1e-10


def test_positivity_predicate():
    alg = BlockAlgebra((3, 2))
    a = random_element(alg, RNG)
    assert is_positive(a.adjoint() @ a)
    assert not is_positive(-(a.adjoint() @ a) - 0.01 * alg.identity())


def test_hermitian_check():
    alg = BlockAlgebra((2,))
    h = random_hermitian(alg, RNG)
    assert h.is_hermitian()
    a = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
    assert not a.is_hermitian()


def test_functional_linearity_and_mass():
    alg = BlockAlgebra((2, 2))
    phi = random_state(alg, RNG)
    a = random_element(alg, RNG)
    b = random_element(alg, RNG)
    lhs = phi.value(2.0 * a + b @ b)
    rhs = 2.0 * phi.value(a) + phi.value(b @ b)
    assert abs(lhs - rhs) < 1e-10
    assert abs(phi.total_mass - 1.0) < 1e-12
    assert abs(phi.value(alg.identity()) - 1.0) < 1e-12


def test_functional_rejects_bad_density():
    alg = BlockAlgebra((2,))
    bad = alg.element([np.array([[1.0, 0.0], [0.0, -0.5]], dtype=complex)])
    with pytest.raises(ValueError, match="positive semidefinite"):
        Functional(alg, bad)


def test_faithful_states_have_full_support():
    alg = BlockAlgebra((3, 2))
    for _ in range(5):
        phi = random_state(alg, RNG, faithful=True)
        assert phi.is_faithful()
        evs = np.concatenate([np.linalg.eigvalsh(blk) for blk in phi.density.blocks])
        assert evs.min() > 0


def test_trace_predicate():
    alg = BlockAlgebra((2, 3))
    d = alg.identity()
    tau = Functional(alg, (1.0 / 5.0) * d)
    assert is_trace(tau)
    # a generic faithful state on a nonabelian algebra is not tracial
    phi = random_state(alg, RNG)
    assert not is_trace(phi)


def test_trace_predicate_either_side_of_tol():
    # an off-diagonal entry e (or a diagonal gap e) is exactly the residual
    alg = BlockAlgebra((1, 3))
    e = 2.0 ** -20
    off = np.eye(3, dtype=complex) / 4.0
    off[0, 2] = off[2, 0] = e
    gap = np.diag([0.25, 0.25, 0.25 + e]).astype(complex)
    for blk in (off, gap):
        phi = Functional(alg, alg.element([np.full((1, 1), 0.25), blk]), check=False)
        assert is_trace(phi, tol=2 * e)
        assert is_trace(phi, tol=e)
        assert not is_trace(phi, tol=0.5 * e)


def _reference_trace_residuals(phi):
    """is_trace's n⁴ einsum tensors, kept as the oracle: per-block maxima."""
    out = []
    for d, n in zip(phi.density.blocks, phi.algebra.block_dims):
        eye = np.eye(n)
        lhs = np.einsum("jk,li->ijkl", eye, d)
        rhs = np.einsum("il,jk->ijkl", eye, d)
        out.append(np.max(np.abs(lhs - rhs)))
    return out


def test_trace_predicate_matches_reference_route():
    rng = np.random.default_rng(515)
    for dims in [(1,), (2,), (3,), (2, 3), (4, 1, 2)]:
        alg = BlockAlgebra(dims)
        phis = [Functional(alg, (1.0 / alg.rep_dim) * alg.identity()),
                Functional(alg, alg.zero()),
                random_state(alg, rng),
                random_state(alg, rng, faithful=True),
                Functional(alg, random_element(alg, rng), check=False)]
        for phi in phis:
            want = _reference_trace_residuals(phi)
            got = [_exchange_residual(d)[0] for d in phi.density.blocks]
            assert got == want
            for tol in (1e-9, 0.5 * max(want), max(want)):
                assert is_trace(phi, tol) == all(r <= tol for r in want)


def _exchange_oracle(d, fac, mask):
    """The full exchange tensor with a factor and a mask, and its argmax."""
    n = d.shape[0]
    eye = np.eye(n)
    m = mask.astype(float)
    lhs = np.einsum("lm,nk,kl,mn->klmn", eye, d, m, m)
    rhs = np.einsum("kl,nk,lm,kl,mn->klmn", fac, eye, d, m, m)
    resid = np.abs(lhs - rhs)
    where = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return float(resid[where]), tuple(int(i) for i in where)


def test_exchange_residual_matches_tensor_oracle():
    rng = np.random.default_rng(600)
    for trial in range(400):
        n = int(rng.integers(1, 7))
        kind = trial % 5
        if kind == 0:       # non-Hermitian
            d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        elif kind == 1:     # few distinct values: many tied maxima
            d = rng.choice([0.0, 0.5, -0.5, 0.5j], size=(n, n)).astype(complex)
        elif kind == 2:     # diagonal with repeats
            d = np.diag(rng.choice([0.1, 0.25], n)).astype(complex)
        elif kind == 3:
            d = np.eye(n, dtype=complex) / n
        else:
            d = np.zeros((n, n), dtype=complex)
        w = np.sort(rng.choice([0.0, 1.0, 2.0], n))
        fac = np.exp(-float(rng.choice([0.0, 1.0, -1.3])) * (w[:, None] - w[None, :]))
        mask = rng.random((n, n)) < 0.6
        ones = np.ones((n, n), dtype=bool)
        assert _exchange_residual(d, fac, mask) == _exchange_oracle(d, fac, mask)
        assert _exchange_residual(d, fac) == _exchange_oracle(d, fac, ones)
        assert _exchange_residual(d, mask=mask) == _exchange_oracle(d, np.ones((n, n)), mask)


def test_projection_validation_and_ranks():
    alg = BlockAlgebra((2, 3))
    e = alg.element([np.diag([1.0, 0.0]).astype(complex), np.diag([1.0, 1.0, 0.0]).astype(complex)])
    p = Projection(e)
    assert p.block_ranks() == (1, 2)
    assert p.is_full()
    q = alg.element([np.diag([1.0, 0.0]).astype(complex), np.zeros((3, 3), dtype=complex)])
    assert not Projection(q).is_full()
    with pytest.raises(ValueError):
        Projection(alg.element([np.diag([0.5, 0.0]).astype(complex), np.eye(3, dtype=complex)]))


def test_center_projections_block_algebra():
    alg = BlockAlgebra((2, 3, 2))
    ps = center_projections(alg)
    assert len(ps) == 3
    total = ps[0].element
    for p in ps[1:]:
        total = total + p.element
    assert (total - alg.identity()).norm() < 1e-12
    a = random_element(alg, RNG)
    for p in ps:
        assert (p.element @ a - a @ p.element).norm() < 1e-12


def test_commutant_dimensions():
    # irreducible action: commutant is the scalars
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    basis = commutant_basis([x, x.conj().T])
    assert len(basis) == 1
    # commutant of the identity alone is everything
    assert len(commutant_basis([np.eye(3)])) == 9
    # two inequivalent blocks: commutant is the diagonal scalars, dim 2
    y = np.zeros((4, 4), dtype=complex)
    y[:2, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y[2:, 2:] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    basis = commutant_basis([y, y.conj().T, np.diag([1.0, 1.0, 0.0, 0.0])])
    assert len(basis) == 2


def test_commutant_empty_needs_dim():
    with pytest.raises(ValueError, match="explicit dimension"):
        commutant_basis([])
    assert len(commutant_basis([], dim=2)) == 4
