"""Finite-dimensional block algebra arithmetic and structure maps."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kmslab
from kmslab import (
    AlgElement,
    BlockAlgebra,
    Functional,
    InnerFlow,
    Projection,
    center_projections,
    commutant_basis,
    is_positive,
    is_trace,
    random_element,
    random_hermitian,
    random_state,
)
from kmslab.algebra import TOL, _exchange_sheets, _exchange_witness, _trace_residual

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


def _fresh_norm(blocks):
    """The operator norm as np.linalg.norm computes it, block by block."""
    return max(float(np.linalg.norm(a, 2)) for a in blocks)


@given(dims=st.lists(st.integers(1, 12), min_size=1, max_size=3), seed=st.integers(0, 2 ** 16),
       zero=st.integers(-1, 2), scale=st.sampled_from([1e-3, 0.5, 1.0, 7.0]))
def test_kept_norm_equals_a_fresh_one(dims, seed, zero, scale):
    alg = BlockAlgebra(tuple(dims))
    a = random_element(alg, np.random.default_rng(seed), scale=scale)
    if 0 <= zero < len(dims):                               # one all-zero block
        a = alg.element([np.zeros_like(b) if i == zero else b for i, b in enumerate(a.blocks)])
    want = _fresh_norm(a.blocks)
    assert a.norm() == want and a.norm() == want            # computed, then kept
    assert a.tol_scale() == max(1.0, want)
    flow = InnerFlow(alg, 0.5 * (a + a.adjoint()))
    assert flow.generator.norm() == AlgElement(alg, flow.generator.blocks).norm()


def test_kept_norm_of_a_nan_block_is_nan_or_the_svd_error():
    alg = BlockAlgebra((3, 2))
    for pos in [(0, 0), (1, 2), (2, 2)]:
        blocks = [np.eye(3, dtype=complex), np.ones((2, 2), dtype=complex)]
        blocks[0][pos] = np.nan
        a = alg.element(blocks)
        try:
            want = _fresh_norm(a.blocks)
        except np.linalg.LinAlgError as error:
            for _ in range(2):
                with pytest.raises(np.linalg.LinAlgError, match=str(error)):
                    a.norm()
        else:
            assert np.isnan(want) and np.isnan(a.norm()) and np.isnan(a.norm())


def test_positivity_predicate():
    alg = BlockAlgebra((3, 2))
    a = random_element(alg, RNG)
    assert is_positive(a.adjoint() @ a)
    assert not is_positive(-(a.adjoint() @ a) - 0.01 * alg.identity())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_positivity_refuses_non_finite_entries_by_name(bad):
    alg = BlockAlgebra((2, 1))
    a = alg.element([np.diag([bad, 1.0]).astype(complex), np.eye(1, dtype=complex)])
    with pytest.raises(ValueError, match="element has non-finite entries"):
        is_positive(a)


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


def _min_eig(a):
    """The least eigenvalue of a block's Hermitian part."""
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2.0)[0])


def _reference_density_check(density):
    """Functional's check as it was before it took its scale once, kept as the oracle."""
    if not density.is_hermitian(1e-8 * max(1.0, density.norm())):
        raise ValueError("density not self-adjoint")
    lo = min(_min_eig(a) for a in density.blocks)
    if lo < -1e-8 * max(1.0, density.norm()):
        raise ValueError(f"density not positive semidefinite (min eigenvalue {lo:.3e})")


def _refusal(check, density):
    try:
        check(density)
    except ValueError as e:
        return str(e)
    return None


def _density_check_cases():
    """Mixed, pure (‖d‖_F = 1 exactly) and heavy (‖d‖₂ > 1) densities, each also
    nudged off Hermiticity and off positivity (the last block's least eigenvalue
    moved to −nudge) by half and twice the tolerance."""
    rng = np.random.default_rng(1717)
    cases = []
    for dims in [(1,), (2,), (3, 2), (4, 1, 3)]:
        alg = BlockAlgebra(dims)
        mixed = random_state(alg, rng).density
        v = rng.normal(size=dims[0]) + 1j * rng.normal(size=dims[0])
        pure = alg.element([np.outer(v, v.conj()) / np.vdot(v, v).real if b == 0
                            else np.zeros((n, n)) for b, n in enumerate(dims)])
        for base in (mixed, pure, 3.0 * mixed, 40.0 * pure):
            cases.append(base)
            scale = max(1.0, base.norm())
            n = dims[-1]
            for nudge in (0.5e-8 * scale, 2e-8 * scale):
                if n > 1:
                    skew = np.zeros((n, n), dtype=complex)
                    skew[0, n - 1] = nudge
                    cases.append(base + alg.element([np.zeros((m, m)) for m in dims[:-1]]
                                                    + [skew]))
                w, q = np.linalg.eigh(base.blocks[-1])
                low = -(w[0] + nudge) * np.outer(q[:, 0], q[:, 0].conj())
                cases.append(base + alg.element([np.zeros((m, m)) for m in dims[:-1]] + [low]))
    return cases


def test_density_check_matches_two_scale_reference(monkeypatch):
    svds = []
    norm = AlgElement.norm
    monkeypatch.setattr(AlgElement, "norm", lambda self: svds.append(1) or norm(self))
    outcomes = set()
    for d in _density_check_cases():
        svds.clear()
        got = _refusal(lambda x: Functional(x.algebra, x), d)
        assert svds == []
        assert got == _refusal(_reference_density_check, d)
        outcomes.add(got.split(" (")[0] if got else got)
    assert outcomes == {None, "density not self-adjoint", "density not positive semidefinite"}


def test_checks_take_no_svd_and_no_cholesky(svd_calls, monkeypatch):
    """At ‖d‖_F > 1 and ‖h‖_F > 1, where the scale used to come from an SVD and a
    density's positivity from a Cholesky factorization, acceptances and refusals alike
    read everything off one eigendecomposition per block."""
    choleskys = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda *args, **kw: choleskys.append(1) or cholesky(*args, **kw))
    alg = BlockAlgebra((4, 2))
    rng = np.random.default_rng(5)
    d = 3.0 * random_state(alg, rng).density
    h = random_hermitian(alg, rng, scale=5.0)
    assert d.fro_norm() > 1.0 and h.fro_norm() > 1.0
    Functional(alg, d)
    InnerFlow(alg, h)
    assert is_positive(d)
    skew = alg.element([np.triu(np.ones((n, n)), 1) for n in alg.block_dims])
    for check, x, message in [(Functional, d + skew, "self-adjoint"),
                              (Functional, d - 2.0 * alg.identity(), "positive semidefinite"),
                              (InnerFlow, h + skew, "self-adjoint")]:
        with pytest.raises(ValueError, match=message):
            check(alg, x)
    assert svd_calls == [] and choleskys == []


def _reference_is_positive(a, tol=TOL):
    """is_positive as it was, by the eigenvalue test alone; kept as the oracle."""
    if not a.is_hermitian(tol * max(1.0, a.norm())):
        raise ValueError("not self-adjoint")
    return all(_min_eig(b) >= -tol for b in a.blocks)


#: the planted least eigenvalues, in units of −tol
PLANTED = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def _assert_positivity_matches(dims, planted, nudge, top, deficiency, relative, seed):
    """Hermitian blocks with eigenvalues in [0, top] (the largest at top, the first
    ``deficiency`` exactly 0; top = 0 gives zero blocks), then one block's least
    eigenvalue planted at −planted·nudge·tol, with tol = 1e-8·scale (Functional's)
    or is_positive's default. Both verdicts, and Functional's message, must be the
    eigenvalue test's."""
    rng = np.random.default_rng(seed)
    spectra = []
    for n in dims:
        w = rng.uniform(0.0, top, n)
        w[-1] = top
        w[:deficiency] = 0.0
        spectra.append(w)
    tol = 1e-8 * max(1.0, top) if relative else TOL
    spectra[rng.integers(len(dims))][0] = -planted * nudge * tol
    blocks = []
    for w in spectra:
        n = w.size
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        d = (q * w) @ q.conj().T
        blocks.append((d + d.conj().T) / 2.0)
    x = BlockAlgebra(tuple(dims)).element(blocks)
    assert is_positive(x, tol) == _reference_is_positive(x, tol)
    assert _refusal(lambda d: Functional(d.algebra, d), x) == _refusal(_reference_density_check, x)


def test_positivity_matches_the_eigenvalue_test_at_every_planted_eigenvalue():
    seed = 0
    for planted in PLANTED:
        for nudge in (1.0 - 1e-6, 1.0 + 1e-6):
            for relative in (True, False):
                for dims, top, deficiency in [((5,), 1.0, 0), ((64, 3), 40.0, 0), ((2, 16), 0.3, 8)]:
                    seed += 1
                    _assert_positivity_matches(dims, planted, nudge, top, deficiency, relative, seed)


@given(dims=st.lists(st.integers(1, 64), min_size=1, max_size=3), planted=st.sampled_from(PLANTED),
       nudge=st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6]), top=st.sampled_from([0.0, 0.3, 1.0, 40.0]),
       deficiency=st.integers(0, 64), relative=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_property_positivity_matches_the_eigenvalue_test(dims, planted, nudge, top, deficiency,
                                                         relative, seed):
    _assert_positivity_matches(dims, planted, nudge, top, deficiency, relative, seed)


def test_tol_scale_is_one_or_the_operator_norm():
    rng = np.random.default_rng(99)
    for dims in [(1,), (3,), (2, 4)]:
        alg = BlockAlgebra(dims)
        assert alg.zero().tol_scale() == 1.0 and alg.zero().norm() == 0.0
        for fro in (0.3, 1.0 - 2e-9, 1.0 - 5e-10, 1.0, 1.7, 40.0):
            a = random_element(alg, rng)
            a = (fro / a.fro_norm()) * a
            assert a.tol_scale() == max(1.0, a.norm())


def test_nan_density_is_refused_by_the_check_and_fails_the_trace_test():
    alg = BlockAlgebra((2,))
    nan = alg.element([np.array([[np.nan, 0.0], [0.0, 0.5]])])
    with pytest.raises(ValueError, match="non-finite"):
        Functional(alg, nan)
    with pytest.raises(ValueError, match="non-finite"):
        Functional(alg, alg.element([np.array([[np.inf, 0.0], [0.0, 0.5]])]))
    phi = Functional(alg, nan, check=False)
    assert not is_trace(phi, tol=1e300)
    assert np.isnan(_trace_residual(phi.density.blocks[0]))


def _is_faithful(phi):
    """Faithfulness read off the Hermitian part of each density block: its least
    eigenvalue above 1e−12. The oracle for ``GnsTriple``'s rule, which reads the raw
    block's ``eigh``."""
    return all(_min_eig(d) > 1e-12 for d in phi.density.blocks)


def test_faithful_states_have_full_support():
    alg = BlockAlgebra((3, 2))
    for _ in range(5):
        phi = random_state(alg, RNG)
        assert _is_faithful(phi)
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
                random_state(alg, rng),
                Functional(alg, random_element(alg, rng), check=False)]
        for phi in phis:
            want = _reference_trace_residuals(phi)
            got = [_trace_residual(d) for d in phi.density.blocks]
            assert got == want
            for tol in (1e-9, 0.5 * max(want), max(want)):
                assert is_trace(phi, tol) == all(r <= tol for r in want)


def _exchange_residual(d, fac):
    """Route one on one eigenbasis block: the maximum of ``_exchange_sheets`` and its
    witness from ``_exchange_witness``."""
    best, sheets = _exchange_sheets(d, fac)
    return best, _exchange_witness(d, fac, sheets, best)


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
        labels = rng.integers(0, 3, n)
        same = labels[:, None] == labels            # an equivalence relation
        ones = np.ones((n, n), dtype=bool)
        assert _exchange_residual(d, fac) == _exchange_oracle(d, fac, ones)
        assert _trace_residual(d) == _exchange_oracle(d, np.ones((n, n)), ones)[0]
        assert _trace_residual(d, same) == _exchange_oracle(d, np.ones((n, n)), same)[0]


def _selecting_exchange_oracle(d, fac, mask):
    """The exchange tensor with its Kronecker deltas as selections, not factors,
    so that 0·NaN never enters: NaN exactly on the pairs whose terms read a NaN."""
    n = d.shape[0]
    eye = np.eye(n, dtype=bool)
    lhs = np.where(eye[None, :, :, None], d.T[:, None, None, :], 0.0)           # δ_lm d_nk
    rhs = np.where(eye[:, None, None, :], (fac[:, :, None] * d[None])[..., None], 0.0)
    keep = mask[:, :, None, None] & mask[None, None, :, :]
    resid = np.where(keep, np.abs(lhs - rhs), 0.0)
    where = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return float(resid[where]), tuple(int(i) for i in where)


def test_exchange_residual_is_nan_at_the_first_nan_pair():
    # NaN must reach the maximum (so that `<= tol` fails) and the witness is
    # the first NaN pair in C order, as np.argmax over the tensor reports it
    rng = np.random.default_rng(601)
    for trial in range(60):
        n = int(rng.integers(1, 6))
        d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        d[tuple(rng.integers(0, n, size=(2, int(rng.integers(1, 3)))))] = np.nan
        fac = np.exp(-(np.arange(n)[:, None] - np.arange(n)[None, :]) * 0.7)
        ones = np.ones((n, n), dtype=bool)
        val, where = _exchange_residual(d, fac)
        ref_val, ref_where = _selecting_exchange_oracle(d, fac, ones)
        assert where == ref_where
        assert val == ref_val or (np.isnan(val) and np.isnan(ref_val))
        # the trace residual is NaN exactly when a pair inside the relation reads a NaN
        labels = rng.integers(0, 2, n)
        for same in (ones, labels[:, None] == labels):
            val = _trace_residual(d, same)
            ref_val, _ = _selecting_exchange_oracle(d, np.ones((n, n)), same)
            assert val == ref_val or (np.isnan(val) and np.isnan(ref_val))


@st.composite
def _exchange_inputs(draw):
    """A density block, its Boltzmann factors and an equivalence relation or none: rounded
    entries (ties), zero, tracial, non-Hermitian, NaN and random-state densities over
    degenerate or generic spectra, with random classes or the degree-zero units of a
    periodic flow."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["rounded", "zero", "tracial", "non-hermitian", "nan", "state"]))
    if kind == "rounded":
        d = (rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))) / 4.0
    elif kind == "zero":
        d = np.zeros((n, n), dtype=complex)
    elif kind == "tracial":
        d = np.eye(n, dtype=complex) / n
    elif kind == "state":
        d = random_state(BlockAlgebra((n,)), rng).density.blocks[0]
    else:
        d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if kind == "nan":
            d[tuple(rng.integers(0, n, size=(2, draw(st.integers(1, 3)))))] = np.nan
    degenerate = draw(st.booleans())
    w = np.sort(rng.choice([0.0, 1.0, 2.0], n) if degenerate else rng.normal(size=n))
    beta = draw(st.sampled_from([0.0, 0.7, -1.3, 3.0]))
    fac = np.exp(-beta * (w[:, None] - w))
    same = draw(st.sampled_from([None, "classes", "periodic"]))
    if same == "classes":
        labels = rng.integers(0, 3, n)
        same = labels[:, None] == labels
    elif same == "periodic":     # the integer spectrum's degree-zero units, as trace_scaling_beta
        same = w[:, None] == w
    return d, fac, same


@given(_exchange_inputs())
def test_property_exchange_residual_matches_the_tensor_oracles(inputs):
    """verify_kms's exchange residual and witness, and the trace residual on the whole
    block or on an equivalence relation, against the n⁴ exchange tensors."""
    d, fac, same = inputs
    n = d.shape[0]
    ones = np.ones((n, n), dtype=bool)
    val, where = _exchange_residual(d, fac)
    ref_val, ref_where = _selecting_exchange_oracle(d, fac, ones)
    assert where == ref_where
    assert val == ref_val or (np.isnan(val) and np.isnan(ref_val))
    if not np.isnan(d).any():
        assert (val, where) == _exchange_oracle(d, fac, ones)
    assert type(val) is float
    mask = ones if same is None else same
    val = _trace_residual(d, same)
    ref_val, _ = _selecting_exchange_oracle(d, np.ones((n, n)), mask)
    assert val == ref_val or (np.isnan(val) and np.isnan(ref_val))
    if not np.isnan(d).any():
        assert val == _exchange_oracle(d, np.ones((n, n)), mask)[0]
    assert type(val) is float


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


def test_projection_takes_its_scale_without_an_svd(svd_calls):
    """A projection of rank ≥ 1 has ‖p‖_F ≥ 1, where tol_scale took an SVD; the scale is
    read off the eigenvalues of its Hermitian part, refusals included."""
    alg = BlockAlgebra((2, 3))
    q, _ = np.linalg.qr(RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3)))
    e = alg.element([np.eye(2), q[:, :2] @ q[:, :2].conj().T])
    assert Projection(e).block_ranks() == (2, 2)
    skew = alg.element([np.zeros((2, 2)), np.triu(np.full((3, 3), 1e-6), 1)])
    with pytest.raises(ValueError, match="^projection not self-adjoint$"):
        Projection(e + skew)
    assert svd_calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_refuses_non_finite_entries_by_name(bad):
    alg = BlockAlgebra((2, 1))
    e = alg.element([np.diag([bad, 1.0]).astype(complex), np.eye(1, dtype=complex)])
    with pytest.raises(ValueError, match="^projection has non-finite entries$"):
        Projection(e)


def _calls(tree, attr):
    """The enclosing function's name of every call ``….attr(…)`` in the tree."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == attr):
                found.append(owner)
            visit(child, owner)
    visit(tree, None)
    return found


def test_self_adjointness_is_checked_in_one_place():
    """In the package, ``.is_hermitian(`` is called only by ``_hermitian_part``, which
    also holds the one per-block non-finite test of algebra.py and flow.py; the helpers
    it replaced are gone."""
    package = Path(kmslab.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    assert [f for tree in trees.values() for f in _calls(tree, "is_hermitian")] == \
        ["_hermitian_part"]
    assert _calls(trees["algebra.py"], "isfinite") + _calls(trees["flow.py"], "isfinite") == \
        ["_hermitian_part"]
    defined = {n.name for tree in trees.values() for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef)}
    assert not defined & {"_hermitian_spectra", "_min_eig"}


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
