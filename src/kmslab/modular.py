"""GNS representations and modular structure for faithful states.

The GNS space of a faithful density d is the algebra itself with
⟨a, b⟩ = Tr(d b* a), realized concretely as vectors Λ(a) = vec(a·d^{1/2}).
Two routes to the modular operator coexist on purpose:

* ``polar`` builds the conjugation S from its defining property
  S Λ(a) = Λ(a*), realifies it (S is antilinear), and takes the honest
  polar decomposition S = J Δ^{1/2};
* ``closed_form`` writes down Δ = left(d)·right(d⁻¹) and J = adjoint
  directly.

They are compared — never merged — in the test-suite.

In Λ coordinates π(A) = ⊕ M_n ⊗ 1, so π(A)′ = ⊕ 1 ⊗ M_n in closed form; the
commutant, center and modular-flow checks use this structure, meet no N above
``MAX_GNS_DIM`` (the triple refuses it), and have ``algebra.commutant_basis`` as oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgElement, BlockAlgebra, Functional, InternalFault, Projection
from .flow import InnerFlow
from .kms import KmsState

#: largest GNS dimension a triple is built at (≈ 4 s, 300 MB for ``kmslab modular``)
MAX_GNS_DIM = 144


class GnsTriple:
    """Hilbert space ℂ^N (N = Σ n_i²), representation, and cyclic vector. Each density
    block's one ``eigh`` is kept in ``density_eigs``: faithfulness, d^{1/2} and d⁻¹ read it."""

    def __init__(self, algebra: BlockAlgebra, state: Functional):
        if state.algebra != algebra:
            raise ValueError("state lives in a different algebra")
        self.dim = algebra.coord_dim
        if self.dim > MAX_GNS_DIM:
            raise ValueError(f"GNS dimension {self.dim} exceeds the desk-scale cap {MAX_GNS_DIM}")
        self.density_eigs = [np.linalg.eigh(d) for d in state.density.blocks]
        if not all(w[0] > 1e-12 for w, _ in self.density_eigs):
            raise ValueError("density not strictly positive; the GNS inner product "
                             "would be degenerate (compress to the support first)")
        self.algebra = algebra
        self.state = state
        self.sqrt_blocks = [(u * np.sqrt(w)) @ u.conj().T for w, u in self.density_eigs]
        offs, off = [], 0
        for n in algebra.block_dims:
            offs.append(off)
            off += n * n
        self._offsets = offs

    def lambda_map(self, a: AlgElement) -> np.ndarray:
        """Λ(a) = vec(a·d^{1/2}), blockwise row-major."""
        return np.concatenate([(blk @ s).reshape(-1)
                               for blk, s in zip(a.blocks, self.sqrt_blocks)])

    def rep(self, a: AlgElement) -> np.ndarray:
        """Left multiplication in Λ-coordinates: blockdiag of a_i ⊗ I."""
        return _block_kron(self, a.blocks, eye_first=False)

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """⟨u, v⟩, linear in u. Equals state(b* a) for u = Λ(a), v = Λ(b)."""
        return complex(np.vdot(v, u))

    def cyclic_vector(self) -> np.ndarray:
        return self.lambda_map(self.algebra.identity())

    def basis_matrix(self) -> np.ndarray:
        """Columns Λ(e_k) over the matrix-unit basis; invertible by faithfulness.
        Λ(E_kl) = vec(E_kl·s) has entry s[l, j] at (k, j), so this is ⊕ 1 ⊗ sᵀ."""
        return _block_kron(self, [s.T for s in self.sqrt_blocks], eye_first=True)

    def adjoint_permutation(self) -> np.ndarray:
        """Real P with coords(a*) = P · conj(coords(a)): the blockwise transpose."""
        perm = np.concatenate([off + np.arange(n * n).reshape(n, n).T.ravel()
                               for n, off in zip(self.algebra.block_dims, self._offsets)])
        p = np.zeros((self.dim, self.dim))
        p[perm, np.arange(self.dim)] = 1.0
        return p


def gns(algebra: BlockAlgebra, omega: Functional) -> GnsTriple:
    return GnsTriple(algebra, omega)


def _block_kron(g: GnsTriple, mats, eye_first: bool) -> np.ndarray:
    """⊕ 1 ⊗ m_b (``eye_first``) or ⊕ m_b ⊗ 1 over the blocks, as an (..., N, N) array
    over the leading axes of the m_b. Entries are copied into place, not multiplied."""
    lead = mats[0].shape[:-2]
    out = np.zeros(lead + (g.dim, g.dim), dtype=complex)
    for m, n, off in zip(mats, g.algebra.block_dims, g._offsets):
        sl = slice(off, off + n * n)
        # the block as [(i, p), (k, r)]; the identity factor pins one index pair equal
        block = out[..., sl, sl].reshape(lead + (n, n, n, n))
        p = np.arange(n)
        if eye_first:
            block[..., p, :, p, :] = m
        else:
            block[..., :, p, :, p] = m
    return out


@dataclass
class ModularData:
    """Modular operator Δ and conjugation J (as J v = conj_kernel · conj v)."""

    delta: np.ndarray
    conj_kernel: np.ndarray
    method: str
    linear_structure_residual: float
    antilinear_structure_residual: float

    def __post_init__(self):
        w, v = np.linalg.eigh(self.delta)
        if w[0] <= 0:
            raise ValueError(f"modular operator not positive (min eigenvalue {w[0]:.3e})")
        self._evals = w
        self._evecs = v

    def delta_powers(self, zs) -> np.ndarray:
        """Δ^z for every z in ``zs`` (complex allowed) through the spectral decomposition,
        as one (S, N, N) stacked product."""
        pw = np.power(self._evals.astype(complex), np.asarray(zs, dtype=complex)[:, None])
        return (self._evecs * pw[:, None, :]) @ self._evecs.conj().T

    def delta_power(self, z: complex) -> np.ndarray:
        """Δ^z through the spectral decomposition (z may be complex)."""
        return self.delta_powers([z])[0]

    def flow_unitary(self, t: float) -> np.ndarray:
        return self.delta_power(1j * float(t))

    def apply_j(self, v: np.ndarray) -> np.ndarray:
        return self.conj_kernel @ np.conj(v)

    def conjugate_operator(self, x: np.ndarray) -> np.ndarray:
        """JxJ as a complex-linear matrix."""
        return self.conj_kernel @ np.conj(x) @ np.conj(self.conj_kernel)


def modular_data(g: GnsTriple, method: str = "polar") -> ModularData:
    if method == "closed_form":
        return _modular_closed_form(g)
    if method != "polar":
        raise ValueError(f"unknown method {method!r}")

    n = g.dim
    L = g.basis_matrix()
    P = g.adjoint_permutation()
    # S Λ(a) = Λ(a*) pins the antilinear kernel: S v = M_s · conj(v)
    m_s = L @ P @ np.conj(np.linalg.inv(L))

    # realify ℂ^N ≅ ℝ^{2N}; an antilinear map v ↦ M conj(v) becomes
    # [[Re M, Im M], [Im M, -Re M]]
    s_real = np.block([[m_s.real, m_s.imag], [m_s.imag, -m_s.real]])
    delta_real = s_real.T @ s_real

    a = delta_real[:n, :n]
    b = delta_real[n:, :n]
    lin_resid = max(float(np.max(np.abs(delta_real[:n, n:] + b))),
                    float(np.max(np.abs(delta_real[n:, n:] - a))))
    delta = a + 1j * b

    w, v = np.linalg.eigh(delta_real)
    if w[0] <= 0:
        raise InternalFault("polar route produced a non-positive quadratic form")
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    j_real = s_real @ inv_sqrt

    ja = j_real[:n, :n]
    jb = j_real[:n, n:]
    anti_resid = max(float(np.max(np.abs(j_real[n:, :n] - jb))),
                     float(np.max(np.abs(j_real[n:, n:] + ja))))
    m_j = ja + 1j * jb
    return ModularData(delta=delta, conj_kernel=m_j, method="polar",
                       linear_structure_residual=lin_resid,
                       antilinear_structure_residual=anti_resid)


def _modular_closed_form(g: GnsTriple) -> ModularData:
    """Δ acts on m ∈ H by d·m·d⁻¹ and J by m ↦ m*; no polar step involved."""
    n = g.dim
    delta = np.zeros((n, n), dtype=complex)
    for d, (w, u), nb, off in zip(g.state.density.blocks, g.density_eigs,
                                  g.algebra.block_dims, g._offsets):
        dinv = (u / w) @ u.conj().T
        delta[off:off + nb * nb, off:off + nb * nb] = np.kron(d, dinv.T)
    return ModularData(delta=delta, conj_kernel=g.adjoint_permutation().astype(complex),
                       method="closed_form",
                       linear_structure_residual=0.0, antilinear_structure_residual=0.0)


@dataclass
class ModularFlowReport:
    passed: bool
    max_residual: float
    beta: float
    samples: tuple[float, ...]

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] Δ^it vs flow at -βt: max residual {self.max_residual:.3e}"


DEFAULT_T_SAMPLES = (-2.7, -1.0, -0.3, 0.3, 1.0, 2.7)

#: unit-image entries (N³ per sample time) in one chunk of ``verify_modular_flow``: all
#: six default samples fit at N ≤ 13, and a chunk holds one sample at N = MAX_GNS_DIM
_FLOW_CHUNK_ENTRIES = 2 ** 20


def _unit_images(g: GnsTriple, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left·π(e)·right for every matrix unit e, as a (..., N, N, N) stack in basis order
    over the leading axes that left and right share: π(E_kl) = E_kl ⊗ 1 on its block,
    so this is Σ_r left[..., :, (k,r)]·right[..., (l,r), :]."""
    big = g.dim
    lead = left.shape[:-2]
    out = np.empty(lead + (big, big, big), dtype=complex)
    for n, off in zip(g.algebra.block_dims, g._offsets):
        sl = slice(off, off + n * n)
        cols = left[..., sl].reshape(lead + (big, n, n)).swapaxes(-3, -2)[..., None, :, :]
        np.matmul(cols, right[..., sl, :].reshape(lead + (1, n, n, big)),
                  out=out[..., sl, :, :].reshape(lead + (n, n, big, big)))
    return out


def _off_commutant(g: GnsTriple, x: np.ndarray) -> np.ndarray:
    """x minus its Hilbert–Schmidt projection onto π(A)′ = ⊕ 1 ⊗ M_n, which drops the
    cross-block parts and keeps Y = Tr₁(x_bb)/n down the n×n diagonal of each block b."""
    off_part = x.copy()
    for n, off in zip(g.algebra.block_dims, g._offsets):
        diag = [slice(off + i * n, off + (i + 1) * n) for i in range(n)]
        part = sum(x[..., d, d] for d in diag) / n
        for d in diag:
            off_part[..., d, d] -= part
    return off_part


def verify_modular_flow(flow: InnerFlow, psi: KmsState,
                        t_samples=DEFAULT_T_SAMPLES, tol: float = 1e-8) -> ModularFlowReport:
    """Check Δ^{it} π(e) Δ^{-it} = π(σ_{-βt}(e)) = W π(e) W*, W = π(e^{-iβth}), on the units."""
    g = gns(flow.algebra, psi.functional)
    ts = tuple(float(t) for t in t_samples)
    worst = _flow_residual(g, modular_data(g), flow, psi.beta, ts)
    return ModularFlowReport(passed=bool(worst <= tol), max_residual=worst,
                             beta=psi.beta, samples=ts)


def _flow_residual(g: GnsTriple, md: ModularData, flow: InnerFlow, beta: float,
                   ts: tuple[float, ...]) -> float:
    """max |Δ^{it} π(e) Δ^{-it} − W π(e) W*| over the units e and the sample times ts.

    The sample times go through as stacks, at most ``_FLOW_CHUNK_ENTRIES`` // N³ of them
    per chunk: Δ^{±it} from one stacked power, and π(W) block by block from the flow's
    eigensystem, so the unit images of a chunk take one batched product per block."""
    per_chunk = max(1, _FLOW_CHUNK_ENTRIES // g.dim ** 3)
    worst = 0.0
    for start in range(0, len(ts), per_chunk):
        chunk = ts[start:start + per_chunk]
        powers = md.delta_powers([1j * t for t in chunk] + [1j * -t for t in chunk])
        diff = _unit_images(g, powers[:len(chunk)], powers[len(chunk):])
        del powers                        # two N³ stacks are the peak at N = MAX_GNS_DIM
        s = np.array([-beta * t for t in chunk])[:, None]
        w = _block_kron(g, [(u * np.exp(1j * s * lam)[:, None, :]) @ u.conj().T
                            for lam, u in zip(flow.eigenvalues, flow.eigenvectors)],
                        eye_first=False)
        diff -= _unit_images(g, w, w.conj().swapaxes(-1, -2))
        worst = float(np.max((worst, np.max(np.abs(diff)))))     # keeps a NaN
    return worst


def commutant_gap(g: GnsTriple, md: ModularData) -> tuple[int, int, float]:
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


def verify_commutant_theorem(g: GnsTriple, md: ModularData, tol: float = 1e-8) -> bool:
    """Does J π(A) J equal the commutant π(A)′ as a linear subspace?"""
    dim_rep, dim_comm, gap = commutant_gap(g, md)
    return bool(dim_rep == dim_comm and gap <= tol)


def center_dimension(g: GnsTriple) -> int:
    """dim(π(A) ∩ π(A)′), the nullity of c ↦ Σ c_e·(π(e) off π(A)′) under a 1e-9
    relative rank cut; 1 means the GNS von Neumann algebra is a factor."""
    eye = np.eye(g.dim)
    off = _off_commutant(g, _unit_images(g, eye, eye)).reshape(g.dim, -1)
    s = np.linalg.svd(off, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    return g.dim - int(np.sum(s > 1e-9 * scale))


def intertwining_unitary(p: Projection, q: Projection) -> AlgElement:
    """A unitary v with v q v* = p, built from x = qp + (1-q)(1-p).

    x intertwines (xp = qx), and ‖p - q‖ < 1 makes x invertible, so the
    unitary part of its polar decomposition does the job. Fails loudly at
    ‖p - q‖ ≥ 1 (e.g. orthogonal rank-one projections), where no such
    canonical choice exists.
    """
    if p.algebra != q.algebra:
        raise ValueError("projections live in different algebras")
    dist = (p.element - q.element).norm()
    if dist >= 1.0 - 1e-12:
        raise ValueError(f"‖p - q‖ = {dist:.6g} ≥ 1; projections are too far apart "
                         "for the canonical intertwiner")
    alg = p.algebra
    one = alg.identity()
    x = q.element @ p.element + (one - q.element) @ (one - p.element)
    # v = (x*x)^{-1/2} x* maps range(q) onto range(p)
    blocks = []
    for xb in x.blocks:
        w, u = np.linalg.eigh(xb.conj().T @ xb)
        if w[0] <= 1e-14:
            raise ValueError("intertwiner degenerate despite norm gap; projections "
                             "are numerically inconsistent")
        inv_sqrt = (u / np.sqrt(w)) @ u.conj().T
        blocks.append(inv_sqrt @ xb.conj().T)
    v = AlgElement(alg, blocks)
    resid = (v @ q.element @ v.adjoint() - p.element).norm()
    if resid > 1e-10:
        raise ValueError(f"intertwiner failed its own check (residual {resid:.3e})")
    return v
