"""GNS construction, the modular operator by two routes, and the commutant."""

import gc
import json
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kmslab
from kmslab import (
    BlockAlgebra,
    InnerFlow,
    KmsState,
    Projection,
    center_dimension,
    commutant_gap,
    gibbs,
    gns,
    intertwining_unitary,
    kms_simplex,
    modular_data,
    random_element,
    random_hermitian,
    random_state,
    verify_commutant_theorem,
    verify_kms,
    verify_modular_flow,
)
from kmslab import algebra, modular
from kmslab.algebra import Functional, InternalFault, commutant_basis
from kmslab.cli import main
from kmslab.kms import support_compression
from kmslab.modular import (DEFAULT_T_SAMPLES, MAX_GNS_DIM, GnsTriple, ModularData,
                            ModularFlowReport, _off_commutant, _unit_images)

FLOW_TOL = 1e-8          # verify_modular_flow's default tolerance

RNG = np.random.default_rng(6021)


def _gibbs_setup(dims, beta, rng=RNG, scale=1.0):
    alg = BlockAlgebra(dims)
    flow = InnerFlow(alg, random_hermitian(alg, rng, scale=scale))
    psi = gibbs(flow, beta)
    return flow, psi, gns(alg, psi.functional)


def _conjugate_operator(md, x):
    """JxJ as a complex-linear matrix, formed densely from J's kernel: the oracle for
    ``commutant_gap``, which forms J π(e) J for all units at once."""
    return md.conj_kernel @ np.conj(x) @ np.conj(md.conj_kernel)


def test_gns_inner_product_matches_state():
    alg = BlockAlgebra((2, 3))
    phi = random_state(alg, RNG)
    g = gns(alg, phi)
    for _ in range(10):
        a = random_element(alg, RNG)
        b = random_element(alg, RNG)
        lhs = g.inner(g.lambda_map(a), g.lambda_map(b))
        rhs = phi.value(b.adjoint() @ a)
        assert abs(lhs - rhs) < 1e-10


def test_gns_rep_is_homomorphism():
    alg = BlockAlgebra((3,))
    phi = random_state(alg, RNG)
    g = gns(alg, phi)
    a = random_element(alg, RNG)
    b = random_element(alg, RNG)
    assert np.linalg.norm(g.rep(a @ b) - g.rep(a) @ g.rep(b)) < 1e-10
    assert np.linalg.norm(g.rep(a.adjoint()) - g.rep(a).conj().T) < 1e-10


def test_gns_vector_is_cyclic():
    alg = BlockAlgebra((2, 2))
    phi = random_state(alg, RNG)
    g = gns(alg, phi)
    m = g.basis_matrix()
    assert np.linalg.matrix_rank(m) == alg.coord_dim


def test_gns_needs_faithful_state():
    alg = BlockAlgebra((2, 2))
    flow = InnerFlow(alg, random_hermitian(alg, RNG))
    vertex = kms_simplex(flow, 1.0).vertices[0]
    with pytest.raises(ValueError, match="compress"):
        gns(alg, vertex.functional)
    small, _ = support_compression(vertex)
    gns(small.algebra, small.functional)  # works after compression


def test_modular_operator_two_level_anchor():
    # h = diag(0, 1), beta = log 2: the Gibbs density has weights (2/3, 1/3)
    # and the modular spectrum is {1/2, 1, 1, 2}
    alg = BlockAlgebra((2,))
    flow = InnerFlow(alg, alg.element([np.diag([0.0, 1.0]).astype(complex)]))
    psi = gibbs(flow, math.log(2.0))
    g = gns(alg, psi.functional)
    md = modular_data(g)
    evs = np.sort(np.linalg.eigvalsh(md.delta))
    assert np.allclose(evs, [0.5, 1.0, 1.0, 2.0], atol=1e-12)


def test_modular_routes_agree():
    for trial, dims in enumerate([(2,), (3,), (2, 2)]):
        rng = np.random.default_rng(400 + trial)
        _, _, g = _gibbs_setup(dims, beta=1.2, rng=rng)
        pol = modular_data(g, method="polar")
        cf = modular_data(g, method="closed_form")
        assert np.linalg.norm(pol.delta - cf.delta) < 1e-9


def test_modular_fixed_point_and_inversion():
    _, _, g = _gibbs_setup((3,), beta=0.8)
    md = modular_data(g)
    om = g.cyclic_vector()
    assert np.linalg.norm(md.delta @ om - om) < 1e-10
    assert np.linalg.norm(md.apply_j(om) - om) < 1e-10
    # J is an antilinear involution and J Δ J = Δ^{-1}
    v = RNG.normal(size=om.shape) + 1j * RNG.normal(size=om.shape)
    assert np.linalg.norm(md.apply_j(md.apply_j(v)) - v) < 1e-10
    jdj = _conjugate_operator(md, md.delta)
    assert np.linalg.norm(jdj - np.linalg.inv(md.delta)) < 1e-9


def test_delta_powers_compose():
    _, _, g = _gibbs_setup((2, 2), beta=1.0)
    md = modular_data(g)
    half = md.delta_power(0.5)
    assert np.linalg.norm(half @ half - md.delta) < 1e-10
    u = md.flow_unitary(0.7)
    assert np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) < 1e-10


def test_modular_flow_is_the_rescaled_dynamics():
    for trial in range(4):
        rng = np.random.default_rng(500 + trial)
        flow, psi, _ = _gibbs_setup((3,), beta=1.5, rng=rng)
        rep = verify_modular_flow(flow, psi, tol=1e-9)
        assert rep.passed, f"flow residual {rep.max_residual:.2e}"


def test_modular_flow_on_mixtures():
    rng = np.random.default_rng(510)
    alg = BlockAlgebra((2, 2))
    flow = InnerFlow(alg, random_hermitian(alg, rng))
    beta = 0.9
    psi = kms_simplex(flow, beta).mix([0.6, 0.4])
    assert verify_kms(flow, psi, beta, tol=1e-9).passed
    assert verify_modular_flow(flow, psi, tol=1e-8).passed


def test_commutant_theorem_and_gap():
    for dims in [(2,), (2, 3)]:
        flow, psi, g = _gibbs_setup(dims, beta=1.1)
        md = modular_data(g)
        assert verify_commutant_theorem(g, md)
        dim_alg, dim_comm, gap = commutant_gap(g, md)
        assert dim_alg == dim_comm == flow.algebra.coord_dim
        assert gap < 1e-8


def test_center_dimension():
    for dims, expected in [((4,), 1), ((2, 3), 2), ((1, 1, 2), 3)]:
        alg = BlockAlgebra(dims)
        phi = random_state(alg, RNG)
        assert center_dimension(gns(alg, phi)) == expected


def test_intertwining_unitary():
    alg = BlockAlgebra((4,))
    d = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    p = Projection(alg.element([d]))
    # rotate slightly: same rank, nearby range
    th = 0.2
    r = np.eye(4, dtype=complex)
    r[1, 1] = r[2, 2] = math.cos(th)
    r[1, 2], r[2, 1] = -math.sin(th), math.sin(th)
    q = Projection(alg.element([r @ d @ r.conj().T]))
    u = intertwining_unitary(p, q)
    ub = u.blocks[0]
    assert np.linalg.norm(ub @ ub.conj().T - np.eye(4)) < 1e-10
    # the canonical intertwiner carries q onto p
    assert np.linalg.norm(ub @ q.element.blocks[0] @ ub.conj().T - p.element.blocks[0]) < 1e-10


def test_intertwining_needs_matching_ranks():
    alg = BlockAlgebra((3,))
    p = Projection(alg.element([np.diag([1.0, 0.0, 0.0]).astype(complex)]))
    q = Projection(alg.element([np.diag([1.0, 1.0, 0.0]).astype(complex)]))
    with pytest.raises(ValueError):
        intertwining_unitary(p, q)


# -- the generic routes, kept verbatim as oracles for the closed-form commutant ---------

def _reference_verify_modular_flow(flow, psi, t_samples=DEFAULT_T_SAMPLES, tol=1e-8):
    """Check Δ^{it} π(a) Δ^{-it} = π(σ_{-βt}(a)) on a basis, for several t."""
    g = gns(flow.algebra, psi.functional)
    md = modular_data(g)
    worst = 0.0
    basis = flow.algebra.basis()
    for t in t_samples:
        u = md.flow_unitary(t)
        uinv = md.flow_unitary(-t)
        for a in basis:
            lhs = u @ g.rep(a) @ uinv
            rhs = g.rep(flow.evolve(a, -psi.beta * float(t)))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return ModularFlowReport(passed=bool(worst <= tol), max_residual=worst,
                             beta=psi.beta, samples=tuple(float(t) for t in t_samples))


def _per_t_verify_modular_flow(flow: InnerFlow, psi: KmsState,
                               t_samples=DEFAULT_T_SAMPLES, tol: float = 1e-8) -> ModularFlowReport:
    """Check Δ^{it} π(e) Δ^{-it} = π(σ_{-βt}(e)) = W π(e) W*, W = π(e^{-iβth}), on the units."""
    g = gns(flow.algebra, psi.functional)
    md = modular_data(g)
    resid = [0.0]
    for t in t_samples:
        w = g.rep(flow.unitary(-psi.beta * float(t)))
        diff = _unit_images(g, md.flow_unitary(t), md.flow_unitary(-t))
        diff -= _unit_images(g, w, w.conj().T)
        resid.append(np.max(np.abs(diff)))
    worst = float(np.max(resid))                 # keeps a NaN
    return ModularFlowReport(passed=bool(worst <= tol), max_residual=worst,
                             beta=psi.beta, samples=tuple(float(t) for t in t_samples))


def _realified_polar(g):
    """The polar route through the SVD of the realified S and an ``eigh`` of the
    complexified log Δ, kept as an oracle for the complex SVD of S's kernel."""
    n = g.dim
    L = g.basis_matrix()
    P = g.adjoint_permutation()
    # S Λ(a) = Λ(a*) pins the antilinear kernel: S v = M_s · conj(v), M_s = L P conj(L)⁻¹
    m_s = np.linalg.solve(L.conj().T, (L @ P).T).T

    # realify ℂ^N ≅ ℝ^{2N}; an antilinear map v ↦ M conj(v) becomes
    # [[Re M, Im M], [Im M, -Re M]]
    s_real = np.block([[m_s.real, m_s.imag], [m_s.imag, -m_s.real]])
    # S = U Σ Vᵀ = J Δ^{1/2} gives J = U Vᵀ and log Δ = V (2 log Σ) Vᵀ straight from
    # the SVD; SᵀS = Δ would square the condition number
    u, sv, vt = np.linalg.svd(s_real)
    if not (np.all(np.isfinite(sv)) and sv[-1] > 0):
        raise InternalFault(f"polar route: S has a non-positive or non-finite singular "
                            f"value ({sv[-1]:.3e})")
    log_real = (vt.T * (2.0 * np.log(sv))) @ vt

    a = log_real[:n, :n]
    b = log_real[n:, :n]
    lam, vecs = np.linalg.eigh(a + 1j * b)

    j_real = u @ vt
    ja = j_real[:n, :n]
    jb = j_real[:n, n:]
    return ModularData(log_eigenvalues=lam, log_eigenvectors=vecs, conj_kernel=ja + 1j * jb,
                       method="polar")


def _reference_rep(g, a):
    """Left multiplication in Λ-coordinates: blockdiag of a_i ⊗ I."""
    out = np.zeros((g.dim, g.dim), dtype=complex)
    for blk, n, off in zip(a.blocks, g.algebra.block_dims, g._offsets):
        out[off:off + n * n, off:off + n * n] = np.kron(blk, np.eye(n))
    return out


def _reference_basis_matrix(g):
    """Columns Λ(e_k) over the matrix-unit basis; invertible by faithfulness."""
    cols = [g.lambda_map(e) for e in g.algebra.basis()]
    return np.column_stack(cols)


def _reference_adjoint_permutation(g):
    """Real P with coords(a*) = P · conj(coords(a)): the blockwise transpose."""
    p = np.zeros((g.dim, g.dim))
    for n, off in zip(g.algebra.block_dims, g._offsets):
        for i in range(n):
            for j in range(n):
                p[off + j * n + i, off + i * n + j] = 1.0
    return p


def _reference_orthonormal_span(mats, tol=1e-10):
    """Orthonormal projector onto span{vec(m)} via SVD rank truncation."""
    stack = np.column_stack([m.reshape(-1) for m in mats])
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    keep = s > tol * (s[0] if s.size else 1.0)
    basis = u[:, keep]
    return basis @ basis.conj().T


def _reference_commutant_gap(g, md):
    """(dim π(A), dim π(A)′, projector gap between J π(A) J and π(A)′)."""
    reps = [g.rep(e) for e in g.algebra.basis()]
    comm = commutant_basis(reps, dim=g.dim)
    jimages = [_conjugate_operator(md, x) for x in reps]
    p_comm = _reference_orthonormal_span(comm)
    p_j = _reference_orthonormal_span(jimages)
    gap = float(np.linalg.norm(p_comm - p_j, 2))
    return len(reps), len(comm), gap


def _reference_center_dimension(g):
    """dim(π(A) ∩ π(A)′); 1 means the GNS von Neumann algebra is a factor."""
    reps = [g.rep(e) for e in g.algebra.basis()]
    k = len(reps)
    rows = []
    for bl in reps:
        cols = [(bk @ bl - bl @ bk).reshape(-1) for bk in reps]
        rows.append(np.column_stack(cols))
    system = np.vstack(rows)
    s = np.linalg.svd(system, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    return k - int(np.sum(s > 1e-9 * scale))


def _svd_commutant_gap(g, md):
    """(dim π(A), dim J π(A) J, gap between J π(A) J and π(A)′ = ⊕ 1 ⊗ M_n).

    The gap is ‖P′ − P_J‖₂, the sine of the largest principal angle, read as ‖(1 − P′)Q‖₂
    over an orthonormal basis Q of J π(A) J (SVD, 1e-10 relative rank cut); 1.0 when the
    dimensions differ."""
    images = _unit_images(g, md.conj_kernel, md.conj_kernel.conj())
    _, s, vh = np.linalg.svd(images.reshape(g.dim, -1), full_matrices=False)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    if rank != g.dim:
        return g.dim, rank, 1.0
    off = _off_commutant(g, vh.reshape(-1, g.dim, g.dim)).reshape(rank, -1)
    # ‖off‖₂ from the Gram matrix, whose top eigenvalue keeps full relative accuracy
    return g.dim, rank, float(np.sqrt(np.linalg.eigvalsh(off @ off.conj().T)[-1]))


def _svd_center_dimension(g):
    """dim(π(A) ∩ π(A)′), the nullity of c ↦ Σ c_e·(π(e) off π(A)′) under a 1e-9
    relative rank cut; 1 means the GNS von Neumann algebra is a factor."""
    eye = np.eye(g.dim)
    off = _off_commutant(g, _unit_images(g, eye, eye)).reshape(g.dim, -1)
    s = np.linalg.svd(off, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    return g.dim - int(np.sum(s > 1e-9 * scale))


def _twisted(md, rng, z):
    """md with J's kernel multiplied by e^{zX}, X a random Hermitian matrix: a rotation (J
    stays antiunitary) for imaginary z, a stretch for real z."""
    dim = len(md.conj_kernel)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh(x + x.conj().T)
    return ModularData(md.log_eigenvalues, md.log_eigenvectors,
                       (v * np.exp(z * w)) @ v.conj().T @ md.conj_kernel, md.method)


def _assert_gap_is_the_svd_gap(g, md):
    got, want = commutant_gap(g, md), _svd_commutant_gap(g, md)
    assert got[:2] == want[:2]
    assert abs(got[2] - want[2]) <= 1e-12 + 1e-9 * want[2]
    return got


def _assert_checks_match_reference(flow, psi, g):
    md = modular_data(g)
    got, want = commutant_gap(g, md), _reference_commutant_gap(g, md)
    assert got[:2] == want[:2]
    assert abs(got[2] - want[2]) <= 1e-12
    assert verify_commutant_theorem(g, md) == (want[0] == want[1] and want[2] <= 1e-8)
    assert center_dimension(g) == _reference_center_dimension(g)
    rep, ref = verify_modular_flow(flow, psi), _reference_verify_modular_flow(flow, psi)
    assert rep.passed == ref.passed
    assert rep.max_residual + 1e-12 >= ref.max_residual


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 3), (1, 1, 2), (3, 1), (4,), (2, 2, 1, 1),
                                  (4, 1), (3, 3), (4, 1, 1)])
@pytest.mark.parametrize("beta", [1.1, -0.7])
def test_closed_form_checks_match_reference_routes(dims, beta):
    flow, psi, g = _gibbs_setup(dims, beta, rng=np.random.default_rng(7000 + sum(dims)))
    _assert_checks_match_reference(flow, psi, g)


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (4, 1, 1)])
def test_commutant_basis_is_the_closed_form_commutant(dims):
    _, _, g = _gibbs_setup(dims, beta=0.9)
    comm = commutant_basis([g.rep(e) for e in g.algebra.basis()], dim=g.dim)
    assert len(comm) == g.dim
    off = _off_commutant(g, np.array(comm))
    assert np.max(np.abs(off)) <= 1e-12
    # and the unit images are the densified representation
    eye = np.eye(g.dim)
    reps = np.array([g.rep(e) for e in g.algebra.basis()])
    assert np.array_equal(_unit_images(g, eye, eye), reps)


@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4)
       .filter(lambda d: sum(n * n for n in d) <= 13),
       beta=st.floats(0.2, 2.0), sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_closed_form_checks_match_reference_routes(dims, beta, sign, seed):
    flow, psi, g = _gibbs_setup(tuple(dims), sign * beta, rng=np.random.default_rng(seed))
    _assert_checks_match_reference(flow, psi, g)


@pytest.mark.parametrize("dims", [(2,), (2, 3), (1, 1, 2), (3, 1)])
@pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.1])
def test_commutant_check_fails_for_a_rotated_conjugation(dims, eps):
    rng = np.random.default_rng(7100 + sum(dims))
    _, _, g = _gibbs_setup(dims, beta=1.1, rng=rng)
    rotated = _twisted(modular_data(g), rng, 1j * eps)
    dim_rep, dim_comm, gap = commutant_gap(g, rotated)
    want = _reference_commutant_gap(g, rotated)
    assert (dim_rep, dim_comm) == want[:2] == (g.dim, g.dim)
    assert gap > 1e-8
    assert abs(gap - want[2]) <= 1e-9 * want[2]
    assert not verify_commutant_theorem(g, rotated)


@pytest.mark.parametrize("dims", [(2,), (2, 3)])
def test_commutant_gap_of_a_rank_deficient_conjugation(dims):
    _, _, g = _gibbs_setup(dims, beta=1.1)
    md = modular_data(g)
    kernel = md.conj_kernel.copy()
    kernel[:, 2:] = 0.0
    bad = ModularData(md.log_eigenvalues, md.log_eigenvectors, kernel, md.method)
    dim_rep, dim_comm, gap = commutant_gap(g, bad)
    assert (dim_rep, dim_comm, gap) == (g.dim, 2, 1.0) == _svd_commutant_gap(g, bad)
    assert abs(_reference_commutant_gap(g, bad)[2] - 1.0) <= 1e-12
    assert not verify_commutant_theorem(g, bad)


@given(dims=st.lists(st.integers(1, 6), min_size=1, max_size=4)
       .filter(lambda d: sum(n * n for n in d) <= 36),
       beta=st.floats(-2.0, 2.0), eps=st.floats(1e-6, 0.1), seed=st.integers(0, 2 ** 32 - 1))
def test_property_gram_checks_match_the_svd_routes(dims, beta, eps, seed):
    """An antiunitary J makes the unit images' Gram G = 1, so the Gram bound is the SVD
    route's gap, for the modular J and for J rotated by e^{iεX}."""
    rng = np.random.default_rng(seed)
    _, _, g = _gibbs_setup(tuple(dims), beta, rng=rng)
    md = modular_data(g)
    assert center_dimension(g) == _svd_center_dimension(g) == len(dims)
    assert _assert_gap_is_the_svd_gap(g, md)[2] <= 1e-8
    _assert_gap_is_the_svd_gap(g, _twisted(md, rng, 1j * eps))


@pytest.mark.parametrize("dims", [(2,), (2, 3), (3, 1)])
def test_commutant_gap_bounds_the_gap_of_a_non_isometric_conjugation(dims):
    """Scaling J by c makes G = c⁴·1 and leaves the gap, so the bound is still the gap.
    A stretch e^{zX} makes 1 ≠ G, with cond(G) ≤ cond(K)⁴; the bound then lies between the
    gap and cond(K)² times it, and here strictly above the gap."""
    rng = np.random.default_rng(7150 + sum(dims))
    _, _, g = _gibbs_setup(dims, beta=1.1, rng=rng)
    rotated = _twisted(modular_data(g), rng, 1e-3j)
    for c in (0.5, 2.0):
        scaled = ModularData(rotated.log_eigenvalues, rotated.log_eigenvectors,
                             c * rotated.conj_kernel, rotated.method)
        assert _assert_gap_is_the_svd_gap(g, scaled)[:2] == (g.dim, g.dim)
    stretched = _twisted(rotated, rng, 1e-3)
    got, want = commutant_gap(g, stretched), _svd_commutant_gap(g, stretched)
    assert got[:2] == want[:2] == (g.dim, g.dim)
    assert want[2] * (1 - 1e-9) <= got[2] <= np.linalg.cond(stretched.conj_kernel) ** 2 * want[2]
    assert got[2] > want[2] * (1 + 1e-6)


def test_commutant_gap_reads_an_ill_conditioned_conjugation_as_rank_deficient():
    """Kernel columns scaled by 1e-3 leave G with condition above 1e10, past what its
    eigenvalues resolve: the gap reads 1.0, which is conservative, while the SVD route's 1e-10
    singular-value cut still sees full rank."""
    _, _, g = _gibbs_setup((2, 3), beta=1.1, rng=np.random.default_rng(7160))
    md = modular_data(g)
    kernel = md.conj_kernel.copy()
    kernel[:, 2:] *= 1e-3
    bad = ModularData(md.log_eigenvalues, md.log_eigenvectors, kernel, md.method)
    dim_rep, dim_comm, gap = commutant_gap(g, bad)
    assert dim_comm < g.dim and gap == 1.0 and not verify_commutant_theorem(g, bad)
    assert _svd_commutant_gap(g, bad)[1] == g.dim


def test_commutant_gap_raises_on_a_non_finite_conjugation():
    _, _, g = _gibbs_setup((2, 3), beta=1.1, rng=np.random.default_rng(7170))
    md = modular_data(g)
    kernel = md.conj_kernel.copy()
    kernel[4, 7] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        commutant_gap(g, ModularData(md.log_eigenvalues, md.log_eigenvectors, kernel, md.method))


def test_modular_flow_residual_keeps_nan(monkeypatch):
    flow, psi, g = _gibbs_setup((2,), beta=1.0)

    def poisoned(g, method="polar"):
        md = modular_data(g, method)
        lam = md.log_eigenvalues.copy()
        lam[2] = np.nan
        return ModularData(lam, md.log_eigenvectors, md.conj_kernel, md.method)

    monkeypatch.setattr(modular, "modular_data", poisoned)
    rep = verify_modular_flow(flow, psi)
    assert math.isnan(rep.max_residual) and not rep.passed


def _assert_bound_covers_the_per_t_loop(flow, state, ts):
    """The generator bound is at least the sampled residual, and the two agree on
    pass/fail wherever the sampled residual is outside [tol/1000, tol]; the bound was at
    most 30 times the sampled residual at wrong β on 300 random cases."""
    rep, ref = verify_modular_flow(flow, state, ts), _per_t_verify_modular_flow(flow, state, ts)
    assert (rep.beta, rep.samples) == (ref.beta, ref.samples)
    assert rep.max_residual + 1e-12 >= ref.max_residual
    if not FLOW_TOL / 1e3 <= ref.max_residual <= FLOW_TOL:
        assert rep.passed == ref.passed
    return rep, ref


FLOW_SHAPES = [(1, 1), (2, 2), (2, 2, 2), (3,), (3, 2), (2, 1, 1, 1), (1,), (4, 1)]


@pytest.mark.parametrize("t_divisor", [1, 2 ** 20, 2 ** 40])
@pytest.mark.parametrize("dims", FLOW_SHAPES)
def test_stacked_flow_check_is_the_per_t_loop(dims, t_divisor):
    """The generator bound covers the per-t loop at the sample times divided by t_divisor.
    The bound is linear in max|t|, so a power-of-two divisor scales it exactly."""
    rng = np.random.default_rng(7300 + sum(dims) + len(dims))
    flow, psi, _ = _gibbs_setup(dims, beta=float(rng.uniform(-2, 2)), rng=rng)
    wrong = KmsState(functional=psi.functional, beta=psi.beta + 0.3, flow=flow)
    cases = [(flow, psi, DEFAULT_T_SAMPLES), (flow, psi, tuple(rng.uniform(-3, 3, 5))),
             (flow, wrong, DEFAULT_T_SAMPLES), (flow, psi, ())]
    other = InnerFlow(flow.algebra, random_hermitian(flow.algebra, rng))     # a wrong flow
    cases.append((other, psi, DEFAULT_T_SAMPLES))
    for f, state, ts in cases:
        rep, ref = _assert_bound_covers_the_per_t_loop(f, state, tuple(t / t_divisor for t in ts))
        assert rep.max_residual == verify_modular_flow(f, state, ts).max_residual / t_divisor
    assert verify_modular_flow(flow, psi, ()).max_residual == 0.0
    if t_divisor == 1:
        assert ref.passed == (max(dims) == 1)        # only an abelian algebra cannot tell


@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4)
       .filter(lambda d: sum(n * n for n in d) <= 13),
       beta=st.floats(-2.0, 2.0), shift=st.floats(0.05, 1.0), sign=st.sampled_from([-1.0, 1.0]),
       ts=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_flow_bound_covers_the_per_t_loop(dims, beta, shift, sign, ts, seed):
    flow, psi, _ = _gibbs_setup(tuple(dims), beta, rng=np.random.default_rng(seed))
    rep, _ = _assert_bound_covers_the_per_t_loop(flow, psi, tuple(ts))
    assert rep.passed                                   # at the right β the bound is tiny
    wrong = KmsState(functional=psi.functional, beta=beta + sign * shift, flow=flow)
    _assert_bound_covers_the_per_t_loop(flow, wrong, tuple(ts))


@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4)
       .filter(lambda d: sum(n * n for n in d) <= 13),
       spread_beta=st.floats(0.0, 25.0), sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_polar_log_delta_is_the_closed_form(dims, spread_beta, sign, seed):
    """|β|·spread up to 25 puts Δ's eigenvalues across e^{±25}. The spread is taken over
    all blocks, so every density weight stays above e^{-25}/13. The SVD resolves each
    singular value of S to ε·‖S‖, so log Δ's error grows like ε·cond(S)² = ε·e^{|β|·spread};
    600 random cases reached at most 0.41 of that. J, the polar factor, moves by only about
    ε·cond(S). The realified route is held to the same tolerance."""
    alg = BlockAlgebra(tuple(dims))
    flow = InnerFlow(alg, random_hermitian(alg, np.random.default_rng(seed)))
    beta = sign * spread_beta / max(np.ptp(np.concatenate(flow.eigenvalues)), 1e-3)
    g = gns(alg, gibbs(flow, beta).functional)
    pol, cf = modular_data(g), modular_data(g, method="closed_form")
    tol = 1e-12 + np.finfo(float).eps * math.exp(spread_beta)
    assert np.max(np.abs(pol.log_delta - cf.log_delta)) <= tol
    assert np.max(np.abs(np.sort(pol.log_eigenvalues) - np.sort(cf.log_eigenvalues))) <= tol
    assert np.max(np.abs(pol.conj_kernel - cf.conj_kernel)) <= tol
    real = _realified_polar(g)
    assert np.max(np.abs(pol.log_delta - real.log_delta)) <= tol
    assert np.max(np.abs(pol.conj_kernel - real.conj_kernel)) <= tol


def test_baseline_block_passes_kmslab_modular(tmp_path):
    """A correct KMS state at spectral spread 12.5, N = MAX_GNS_DIM: Δ's eigenvalues span
    e^{±12.5}, which an eigh of Δ (or of SᵀS) cannot resolve to 1e-8."""
    alg = BlockAlgebra((12,))
    flow = InnerFlow(alg, random_hermitian(alg, np.random.default_rng(0), scale=4.9))
    assert flow.spectral_spread > 12.0
    prob = _write_problem(tmp_path / "p.json", flow, 1.0)
    out = tmp_path / "m.json"
    assert main(["modular", "--problem", prob, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    for key in ("flow_residual", "commutant_gap", "route_gap"):
        assert doc[key] <= 1e-8, key


def test_flow_check_at_the_cap_peaks_at_o_n_squared():
    n = math.isqrt(MAX_GNS_DIM)
    flow, psi, g = _gibbs_setup((n,), beta=0.7, rng=np.random.default_rng(7500), scale=0.5)
    tracemalloc.start()
    try:
        rep = verify_modular_flow(flow, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    # in complex-sized N² entries: the polar route holds L, M_s, U, Vh and J (1 each) and
    # the real P (0.5), 5.5 at most; the flow check after it holds log Δ (1), the
    # generator term and the off-commutant residual, a few N × N arrays
    assert peak <= 8 * g.dim ** 2 * 16


@pytest.mark.parametrize("dims", FLOW_SHAPES + [(3, 3), (4, 1, 1)])
def test_gns_matrices_are_the_per_unit_constructions(dims):
    alg = BlockAlgebra(dims)
    rng = np.random.default_rng(7400 + sum(dims))
    g = gns(alg, random_state(alg, rng))
    a = random_element(alg, rng)
    for got, want in [(g.basis_matrix(), _reference_basis_matrix(g)),
                      (g.adjoint_permutation(), _reference_adjoint_permutation(g)),
                      (g.rep(a), _reference_rep(g, a))]:
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dims", [(2,), (2, 3), (3, 1)])
def test_modular_flow_check_fails_at_the_wrong_beta(dims):
    flow, psi, _ = _gibbs_setup(dims, beta=1.3, rng=np.random.default_rng(7200 + sum(dims)))
    wrong = KmsState(functional=psi.functional, beta=0.8, flow=flow)
    rep, ref = verify_modular_flow(flow, wrong), _reference_verify_modular_flow(flow, wrong)
    assert not rep.passed and not ref.passed
    assert rep.max_residual >= ref.max_residual


def test_checks_never_densify_per_unit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generic route called")

    rep_calls = []
    rep = GnsTriple.rep
    monkeypatch.setattr(algebra, "commutant_basis", refuse)
    monkeypatch.setattr(kmslab, "commutant_basis", refuse)
    monkeypatch.setattr(InnerFlow, "evolve", refuse)
    monkeypatch.setattr(InnerFlow, "unitary", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(GnsTriple, "rep", lambda self, a: rep_calls.append(a) or rep(self, a))
    assert not hasattr(modular, "commutant_basis")
    flow, psi, g = _gibbs_setup((2, 3), beta=1.1)
    md = modular_data(g)
    assert verify_commutant_theorem(g, md)
    assert center_dimension(g) == 2
    assert verify_modular_flow(flow, psi).passed
    assert rep_calls == []                  # π(e^{-iβth}) is built from the eigensystem


def test_commutant_and_center_take_no_svd(monkeypatch):
    _, _, g = _gibbs_setup((2, 3), beta=1.1)
    md = modular_data(g)

    def refuse(*args, **kwargs):
        raise AssertionError("SVD called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert commutant_gap(g, md)[:2] == (g.dim, g.dim)
    assert center_dimension(g) == 2


def test_polar_route_is_one_complex_svd_of_s_kernel(monkeypatch):
    """No realified S and no eigh of log Δ: one SVD of the (N, N) complex kernel M_s."""
    _, _, g = _gibbs_setup((2, 3), beta=1.1)
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((a.shape, a.dtype))
        return svd(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    md = modular_data(g)
    assert calls == [((g.dim, g.dim), np.dtype(complex))]
    assert md.method == "polar"
    assert set(ModularData._fields) == {
        "log_eigenvalues", "log_eigenvectors", "conj_kernel", "method"}


def _baseline_block():
    """The N = MAX_GNS_DIM Gibbs state at β = 1 with spectral spread 12.5."""
    return _gibbs_setup((12,), 1.0, rng=np.random.default_rng(0), scale=4.9)


def test_commutant_gap_at_the_cap_peaks_at_two_image_stacks():
    _, _, g = _baseline_block()
    md = modular_data(g)
    tracemalloc.start()
    try:
        dim_rep, dim_comm, gap = commutant_gap(g, md)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim_rep == dim_comm == MAX_GNS_DIM and gap <= 1e-8
    # the unit images q and then their off-commutant copy, each with its conjugate for
    # the Gram product: two (N, N²) arrays at a time, in complex entries
    assert peak <= 2.5 * g.dim ** 3 * 16


def test_gram_checks_match_the_svd_routes_at_the_cap():
    _, _, g = _baseline_block()
    assert _assert_gap_is_the_svd_gap(g, modular_data(g))[:2] == (MAX_GNS_DIM, MAX_GNS_DIM)
    assert center_dimension(g) == _svd_center_dimension(g) == 1


def test_commutant_gap_at_n32_is_fast():
    _, _, g = _gibbs_setup((4, 4), beta=1.0)
    md = modular_data(g)
    start = time.perf_counter()
    dim_rep, dim_comm, gap = commutant_gap(g, md)
    assert time.perf_counter() - start < 0.5
    assert dim_rep == dim_comm == 32 and gap < 1e-8


def _write_problem(path, flow, beta):
    blocks = [[[[float(z.real), float(z.imag)] for z in row] for row in h]
              for h in flow.generator.blocks]
    path.write_text(json.dumps({"block_dims": list(flow.algebra.block_dims),
                                "generator": blocks, "beta": beta}))
    return str(path)


def test_gns_dimension_cap_boundary(tmp_path, capsys):
    n = math.isqrt(MAX_GNS_DIM)
    assert n * n == MAX_GNS_DIM
    at_cap = gns(BlockAlgebra((n,)), random_state(BlockAlgebra((n,)), RNG))
    assert center_dimension(at_cap) == 1
    over = BlockAlgebra((n, 1))
    flow = InnerFlow(over, random_hermitian(over, RNG))
    psi = gibbs(flow, 1.0)
    for check in (lambda: gns(over, psi.functional), lambda: verify_modular_flow(flow, psi)):
        with pytest.raises(ValueError, match=f"GNS dimension {MAX_GNS_DIM + 1} exceeds .* "
                                             f"cap {MAX_GNS_DIM}"):
            check()
    prob = _write_problem(tmp_path / "big.json", flow, 1.0)
    code = main(["modular", "--problem", prob, "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert f"cap {MAX_GNS_DIM}" in capsys.readouterr().err


def test_gns_refuses_over_the_cap_before_any_eigendecomposition(monkeypatch):
    over = BlockAlgebra((12, 1))
    psi = gibbs(InnerFlow(over, random_hermitian(over, RNG)), 1.0)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
    with pytest.raises(ValueError, match=f"GNS dimension 145 exceeds .* cap {MAX_GNS_DIM}"):
        gns(over, psi.functional)
    assert calls == []


def test_triple_diagonalizes_each_density_block_once(monkeypatch):
    alg = BlockAlgebra((3, 2, 1))
    phi = random_state(alg, RNG)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    g = gns(alg, phi)
    modular_data(g, method="closed_form")
    assert calls == [(3, 3), (2, 2), (1, 1)]       # log Δ's eigensystem is read off these


@pytest.mark.parametrize("dims", [(1,), (2, 1), (3, 2), (2, 2, 2), (12,)])
def test_cli_modular_builds_one_triple(tmp_path, monkeypatch, dims):
    """One kmslab modular run builds one triple and one ModularData per route, and its
    flow residual is verify_modular_flow's, bit for bit."""
    rng = np.random.default_rng(7600 + sum(dims))
    alg = BlockAlgebra(dims)
    flow = InnerFlow(alg, random_hermitian(alg, rng, scale=0.5))
    prob = _write_problem(tmp_path / "p.json", flow, 0.7)
    calls = []

    def counted(name, build):
        return lambda *args: calls.append(name) or build(*args)

    with monkeypatch.context() as m:
        m.setattr(modular, "GnsTriple", counted("gns", GnsTriple))
        m.setattr(modular, "_modular_polar", counted("polar", modular._modular_polar))
        m.setattr(modular, "_modular_closed_form",
                  counted("closed_form", modular._modular_closed_form))
        out = tmp_path / "m.json"
        assert main(["modular", "--problem", prob, "--out", str(out)]) == 0
    assert sorted(calls) == ["closed_form", "gns", "polar"]
    rep = verify_modular_flow(flow, gibbs(flow, 0.7))
    assert json.loads(out.read_text())["flow_residual"] == rep.max_residual


def test_gns_cap_is_checked_before_any_modular_route(tmp_path, capsys, monkeypatch):
    """At N = 145 neither kmslab modular nor verify_modular_flow runs modular_data."""
    calls = []

    def counted(g, method="polar"):
        calls.append(method)
        return modular_data(g, method)

    monkeypatch.setattr(modular, "modular_data", counted)
    monkeypatch.setattr(kmslab.cli, "modular_data", counted)
    over = BlockAlgebra((12, 1))
    flow = InnerFlow(over, random_hermitian(over, RNG))
    psi = gibbs(flow, 1.0)
    with pytest.raises(ValueError, match=f"GNS dimension 145 exceeds .* cap {MAX_GNS_DIM}"):
        verify_modular_flow(flow, psi)
    blocks = [[[[float(z.real), float(z.imag)] for z in row] for row in h]
              for h in flow.generator.blocks]
    prob = tmp_path / "big.json"
    prob.write_text(json.dumps({"block_dims": [12, 1], "generator": blocks, "beta": 1.0}))
    code = main(["modular", "--problem", str(prob), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert f"GNS dimension 145 exceeds the desk-scale cap {MAX_GNS_DIM}" in \
        capsys.readouterr().err
    assert calls == []


# -- one triple per state, one ModularData per triple and route --------------------------

def _bits(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _triple_bits(g):
    return _bits(*(a for eig in g.density_eigs for a in eig), *g.sqrt_blocks)


def _md_bits(md):
    return [md.method] + _bits(md.log_eigenvalues, md.log_eigenvectors, md.conj_kernel)


def _fresh_copy(phi):
    """A second functional whose density is an equal element, not the same one."""
    return Functional(phi.algebra, phi.algebra.element(list(phi.density.blocks)))


def test_gns_keeps_one_triple_per_functional():
    alg = BlockAlgebra((2, 3))
    phi = random_state(alg, np.random.default_rng(7700))
    assert phi._gns is None
    g = gns(alg, phi)
    assert gns(alg, phi) is g and gns(BlockAlgebra((2, 3)), phi) is g
    assert not hasattr(g, "state")
    for a in (*(a for eig in g.density_eigs for a in eig), *g.sqrt_blocks):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    # an equal density on another functional, or a direct call, gets its own triple
    twin = _fresh_copy(phi)
    assert twin.density is not phi.density
    for other in (gns(alg, twin), GnsTriple(alg, phi)):
        assert other is not g and _triple_bits(other) == _triple_bits(g)
    assert gns(alg, phi) is g
    # a new density element on the functional is a new state
    phi.density = twin.density
    assert gns(alg, phi) is not g and gns(alg, phi) is gns(alg, phi)


def _refusals():
    over = BlockAlgebra((12, 1))
    big = gibbs(InnerFlow(over, random_hermitian(over, np.random.default_rng(7710))), 1.0)
    small = BlockAlgebra((2, 2))
    vertex = kms_simplex(InnerFlow(small, random_hermitian(small, np.random.default_rng(7711))),
                         1.0).vertices[0]
    phi = random_state(small, np.random.default_rng(7712))
    gns(small, phi)                                     # a kept triple must survive a refusal
    return [(over, big.functional, "GNS dimension 145 exceeds"),
            (small, vertex.functional, "not strictly positive"),
            (BlockAlgebra((4,)), phi, "different algebra")]


@pytest.mark.parametrize("case", range(3))
def test_refused_triples_raise_again_and_keep_nothing(case):
    alg, omega, message = _refusals()[case]
    kept = omega._gns
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError, match=message) as error:
            gns(alg, omega)
        errors.append(str(error.value))
        assert omega._gns is kept
    assert errors[0] == errors[1]
    with pytest.raises(ValueError) as error:
        GnsTriple(alg, omega)
    assert str(error.value) == errors[0]


def test_modular_data_keeps_one_object_per_route():
    alg = BlockAlgebra((2, 1, 3))
    phi = random_state(alg, np.random.default_rng(7720))
    g = gns(alg, phi)
    with pytest.raises(ValueError, match="unknown method 'svd'"):
        modular_data(g, "svd")
    assert g._kept_polar is None and g._kept_closed_form is None
    fresh = GnsTriple(alg, _fresh_copy(phi))
    for method in ("polar", "closed_form"):
        md = modular_data(g, method)
        assert modular_data(g, method) is md and modular_data(gns(alg, phi), method) is md
        for a in (md.log_eigenvalues, md.log_eigenvectors, md.conj_kernel):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        again = modular_data(fresh, method)
        assert again is not md and _md_bits(again) == _md_bits(md)
        assert commutant_gap(g, md) == commutant_gap(fresh, again)
    assert modular_data(g) is modular_data(g, "polar")
    assert modular_data(g, "closed_form") is not modular_data(g, "polar")


def test_a_polar_fault_keeps_nothing(monkeypatch):
    alg = BlockAlgebra((2, 2))
    g = gns(alg, random_state(alg, np.random.default_rng(7730)))
    svd = np.linalg.svd

    def singular(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return u, np.where(np.arange(s.size) == s.size - 1, 0.0, s), vh

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", singular)
        for _ in range(2):
            with pytest.raises(InternalFault, match="non-positive or non-finite"):
                modular_data(g)
    assert g._kept_polar is None
    assert modular_data(g).method == "polar" and g._kept_polar[1].method == "polar"
    assert g._kept_closed_form is None


def test_a_kept_triple_dies_with_its_functional():
    alg = BlockAlgebra((2, 2))
    phi = random_state(alg, np.random.default_rng(7750))
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = gns(alg, phi)
        modular_data(g)
        modular_data(g, "closed_form")
        alive = weakref.ref(g)
        del g
        assert alive() is not None
        del phi                                  # reference counting alone frees the triple
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_verify_modular_flow_reads_the_kept_objects(monkeypatch):
    flow, psi, g = _gibbs_setup((2, 3), beta=0.9, rng=np.random.default_rng(7760))
    md = modular_data(g, "polar")
    calls = []
    init, solve = GnsTriple.__init__, np.linalg.solve
    with monkeypatch.context() as m:
        m.setattr(GnsTriple, "__init__", lambda *a, **k: calls.append("triple") or init(*a, **k))
        m.setattr(np.linalg, "solve", lambda *a, **k: calls.append("solve") or solve(*a, **k))
        rep = verify_modular_flow(flow, psi)
        assert calls == []
        fresh = KmsState(functional=_fresh_copy(psi.functional), beta=psi.beta, flow=flow)
        want = verify_modular_flow(flow, fresh)
        assert calls == ["triple", "solve"]
    assert modular_data(g) is md and psi.functional._gns[1] is g
    assert rep.passed and rep == want
    assert rep.max_residual.hex() == want.max_residual.hex()
