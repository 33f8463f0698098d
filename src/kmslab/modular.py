"""GNS representations and modular structure for faithful states.

The GNS space of a faithful density d is the algebra itself with
⟨a, b⟩ = Tr(d b* a), realized concretely as vectors Λ(a) = vec(a·d^{1/2}).
Two routes to the modular operator coexist on purpose:

* ``polar`` builds the conjugation S from its defining property
  S Λ(a) = Λ(a*) as S v = M_s·conj(v), and reads J and log Δ off the one
  complex SVD M_s = U Σ V*: S = J Δ^{1/2} with J v = U V*·conj(v) and
  log Δ = conj(V)·2 log Σ·Vᵀ;
* ``closed_form`` writes down log Δ = log d ⊗ 1 − 1 ⊗ (log d)ᵀ through its
  eigensystem and J = adjoint directly.

Both hold log Δ as one eigensystem, so Δ^z keeps relative accuracy at every
eigenvalue. They are compared — never merged — in the test-suite.

In Λ coordinates π(A) = ⊕ M_n ⊗ 1, so π(A)′ = ⊕ 1 ⊗ M_n in closed form. The checks read this
structure, meet no N above ``MAX_GNS_DIM``, and keep their SVD and dense routes as test oracles.

Each object is built once per state: :func:`gns` keeps the triple on the functional, and
:func:`modular_data` keeps each route's ``ModularData`` on the triple, by
:func:`~kmslab.algebra._keep`.
"""

from __future__ import annotations

import numpy as np

from .algebra import (AlgElement, BlockAlgebra, Functional, InternalFault, Projection, _keep,
                      _read_only, _Record)
from .flow import InnerFlow
from .kms import KmsState

#: largest GNS dimension a triple is built at (≈ 0.25 s, 134 MB max RSS for ``kmslab modular``)
MAX_GNS_DIM = 144


class GnsTriple:
    """Hilbert space ℂ^N (N = Σ n_i²), representation, and cyclic vector. Each density
    block's one ``eigh`` is kept in ``density_eigs``: faithfulness, d^{1/2} and d⁻¹ read it.
    ``density_eigs`` and ``sqrt_blocks`` are read-only, and :func:`modular_data` keeps each
    route's result in its slot, ``_kept_polar`` or ``_kept_closed_form``. A direct call
    builds a fresh triple; :func:`gns` keeps one on the functional."""

    def __init__(self, algebra: BlockAlgebra, state: Functional):
        if state.algebra != algebra:
            raise ValueError("state lives in a different algebra")
        self.dim = algebra.coord_dim
        if self.dim > MAX_GNS_DIM:
            raise ValueError(f"GNS dimension {self.dim} exceeds the desk-scale cap {MAX_GNS_DIM}")
        self.density_eigs = tuple(tuple(map(_read_only, np.linalg.eigh(d)))
                                  for d in state.density.blocks)
        if not all(w[0] > 1e-12 for w, _ in self.density_eigs):
            raise ValueError("density not strictly positive; the GNS inner product "
                             "would be degenerate (compress to the support first)")
        self.algebra = algebra
        self.sqrt_blocks = tuple(_read_only((u * np.sqrt(w)) @ u.conj().T)
                                 for w, u in self.density_eigs)
        self._kept_polar = self._kept_closed_form = None
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
    """The GNS triple of ``omega``, kept on it by :func:`~kmslab.algebra._keep` with key
    ``(omega.density, algebra)``: the density element by identity, the algebra by equality.
    A refusal raises as :class:`GnsTriple` does."""
    return _keep(omega, "_gns", (omega.density, algebra), lambda: GnsTriple(algebra, omega))


def _block_kron(g: GnsTriple, mats, eye_first: bool) -> np.ndarray:
    """⊕ 1 ⊗ m_b (``eye_first``) or ⊕ m_b ⊗ 1 over the blocks, as an (N, N) array.
    Entries are copied into place, not multiplied."""
    out = np.zeros((g.dim, g.dim), dtype=complex)
    for m, n, off in zip(mats, g.algebra.block_dims, g._offsets):
        sl = slice(off, off + n * n)
        # the block as [(i, p), (k, r)]; the identity factor pins one index pair equal
        block = out[sl, sl].reshape(n, n, n, n)
        p = np.arange(n)
        if eye_first:
            block[p, :, p, :] = m
        else:
            block[:, p, :, p] = m
    return out


class ModularData(_Record):
    """The eigensystem log Δ = V·diag(λ)·V* (``log_eigenvalues`` λ, ``log_eigenvectors`` V)
    and J (as J v = conj_kernel · conj v). Δ, Δ^z and log Δ are formed from it on demand.
    The polar route's λ are 2 log σ in descending order, the closed form's are unsorted."""

    log_eigenvalues: np.ndarray
    log_eigenvectors: np.ndarray
    conj_kernel: np.ndarray
    method: str

    def _spectral(self, values: np.ndarray) -> np.ndarray:
        v = self.log_eigenvectors
        return (v * values) @ v.conj().T

    @property
    def log_delta(self) -> np.ndarray:
        return self._spectral(self.log_eigenvalues)

    @property
    def delta(self) -> np.ndarray:
        return self.delta_power(1.0)

    def delta_power(self, z: complex) -> np.ndarray:
        """Δ^z = V·e^{zλ}·V* (z may be complex)."""
        return self._spectral(np.exp(complex(z) * self.log_eigenvalues))

    def flow_unitary(self, t: float) -> np.ndarray:
        return self.delta_power(1j * float(t))

    def apply_j(self, v: np.ndarray) -> np.ndarray:
        return self.conj_kernel @ np.conj(v)


def modular_data(g: GnsTriple, method: str = "polar") -> ModularData:
    """Δ and J of the triple's state by ``method`` ("polar" or "closed_form"), with
    read-only arrays, kept on the triple by :func:`~kmslab.algebra._keep` in one slot per
    route. An unknown method or a polar fault raises."""
    if method not in ("polar", "closed_form"):
        raise ValueError(f"unknown method {method!r}")
    route = _modular_polar if method == "polar" else _modular_closed_form
    return _keep(g, f"_kept_{method}", (), lambda: route(g))


def _modular_polar(g: GnsTriple) -> ModularData:
    L = g.basis_matrix()
    P = g.adjoint_permutation()
    # S Λ(a) = Λ(a*) pins the antilinear kernel: S v = M_s · conj(v), M_s = L P conj(L)⁻¹
    m_s = np.linalg.solve(L.conj().T, (L @ P).T).T

    # S v = M_s conj(v) with M_s = U Σ V* gives S = J Δ^{1/2}: J v = U V* conj(v) and
    # Δ = S*S = conj(V) Σ² Vᵀ, straight from the SVD; S*S itself would square the condition
    u, sv, vh = np.linalg.svd(m_s)
    if not (np.all(np.isfinite(sv)) and sv[-1] > 0):
        raise InternalFault(f"polar route: S has a non-positive or non-finite singular "
                            f"value ({sv[-1]:.3e})")
    return ModularData(log_eigenvalues=_read_only(2.0 * np.log(sv)),
                       log_eigenvectors=_read_only(vh.T), conj_kernel=_read_only(u @ vh),
                       method="polar")


def _modular_closed_form(g: GnsTriple) -> ModularData:
    """log Δ acts on m ∈ H by log d·m − m·log d and J by m ↦ m*; no polar step involved.
    Per block log Δ = log d ⊗ 1 − 1 ⊗ (log d)ᵀ, whose eigenvectors are u_k ⊗ ū_r with
    eigenvalues log w_k − log w_r, read off the triple's density eigensystems."""
    lam = np.empty(g.dim)
    vecs = np.zeros((g.dim, g.dim), dtype=complex)
    for (w, u), n, off in zip(g.density_eigs, g.algebra.block_dims, g._offsets):
        sl = slice(off, off + n * n)
        log_w = np.log(w)
        lam[sl] = (log_w[:, None] - log_w[None, :]).ravel()
        vecs[sl, sl] = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(n * n, n * n)
    return ModularData(log_eigenvalues=_read_only(lam), log_eigenvectors=_read_only(vecs),
                       conj_kernel=_read_only(g.adjoint_permutation().astype(complex)),
                       method="closed_form")


class ModularFlowReport(_Record):
    passed: bool
    max_residual: float
    beta: float
    samples: tuple[float, ...]

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] Δ^it vs flow at -βt: max residual {self.max_residual:.3e}"


DEFAULT_T_SAMPLES = (-2.7, -1.0, -0.3, 0.3, 1.0, 2.7)


def _unit_images(g: GnsTriple, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left·π(e)·right for every matrix unit e, as an (N, N, N) stack in basis order:
    π(E_kl) = E_kl ⊗ 1 on its block, so this is Σ_r left[:, (k,r)]·right[(l,r), :]."""
    big = g.dim
    out = np.empty((big, big, big), dtype=complex)
    for n, off in zip(g.algebra.block_dims, g._offsets):
        sl = slice(off, off + n * n)
        cols = left[:, sl].reshape(big, n, n).swapaxes(0, 1)[:, None, :, :]
        np.matmul(cols, right[sl, :].reshape(1, n, n, big),
                  out=out[sl].reshape(n, n, big, big))
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
    """Check Δ^{it} π(e) Δ^{-it} = π(σ_{-βt}(e)) on the units e at the sample times t.
    ``max_residual`` is ``_flow_residual``'s bound on the largest entrywise residual."""
    g = gns(flow.algebra, psi.functional)
    ts = tuple(float(t) for t in t_samples)
    worst = _flow_residual(g, modular_data(g), flow, psi.beta, ts)
    return ModularFlowReport(passed=bool(worst <= tol), max_residual=worst,
                             beta=psi.beta, samples=ts)


def _flow_residual(g: GnsTriple, md: ModularData, flow: InnerFlow, beta: float,
                   ts: tuple[float, ...]) -> float:
    """2·max|t|·‖R‖₂ over the sample times ts (0 for none), R = Y off π(A)′ for the
    generator Y = log Δ + β·π(h).

    Split Y = Y′ + R with Y′ ∈ π(A)′. Y′ commutes with π(h) and π(A), so e^{it(Y′ − βπ(h))}
    conjugates π(e) to W π(e) W*, W = π(e^{-iβth}), and Duhamel puts Δ^{it} = e^{it·log Δ} within
    |t|·‖R‖₂ of it. Hence every entry of Δ^{it} π(e) Δ^{-it} − π(σ_{-βt}(e)) is at most
    2|t|·‖R‖₂ (‖π(e)‖ = 1 for a unit), and R = 0 exactly when the theorem holds for all t.
    A non-finite R gives NaN."""
    if not ts:
        return 0.0
    y = md.log_delta + beta * _block_kron(g, flow.generator.blocks, eye_first=False)
    r = _off_commutant(g, y)
    norm = float(np.linalg.norm(r, 2)) if np.all(np.isfinite(r)) else np.nan
    return 2.0 * max(abs(t) for t in ts) * norm


def commutant_gap(g: GnsTriple, md: ModularData) -> tuple[int, int, float]:
    """(dim π(A), dim J π(A) J, a bound on the gap ‖P′ − P_J‖₂ between J π(A) J and π(A)′).

    With Q the images J π(e) J/√n of the orthonormal units π(e)/√n, G = QQ* and F the Gram
    matrix of Q off π(A)′, dim J π(A) J counts G's eigenvalues above 1e-10·λ_max(G) and the
    gap min(1, √(λ_max(F)/λ_min(G))) ≥ ‖P′ − P_J‖₂ = max_c √(c*Fc / c*Gc), equal for antiunitary J
    (G = 1); 1.0 if the dimensions differ, as when cond(G) > 1e10. Non-finite J: LinAlgError."""
    q = _unit_images(g, md.conj_kernel, md.conj_kernel.conj()).reshape(g.dim, -1)
    q /= np.concatenate([np.full(n * n, np.sqrt(n)) for n in g.algebra.block_dims])[:, None]
    gram = q @ q.conj().T
    if not np.all(np.isfinite(gram)):
        raise np.linalg.LinAlgError("commutant_gap: J's unit images are not finite")
    lam = np.linalg.eigvalsh(gram)
    rank = int(np.sum(lam > 1e-10 * lam[-1]))
    if rank != g.dim:
        return g.dim, rank, 1.0
    q = _off_commutant(g, q.reshape(-1, g.dim, g.dim)).reshape(g.dim, -1)   # frees the images
    return g.dim, rank, min(1.0, float(np.sqrt(np.linalg.eigvalsh(q @ q.conj().T)[-1] / lam[0])))


def verify_commutant_theorem(g: GnsTriple, md: ModularData) -> bool:
    """Does J π(A) J equal the commutant π(A)′ as a linear subspace (gap ≤ 1e-8)?"""
    dim_rep, dim_comm, gap = commutant_gap(g, md)
    return bool(dim_rep == dim_comm and gap <= 1e-8)


def center_dimension(g: GnsTriple) -> int:
    """dim(π(A) ∩ π(A)′), the block count: π(A) = ⊕ M_n ⊗ 1 and π(A)′ = ⊕ 1 ⊗ M_n meet
    exactly in the span of the block identities. 1 means the GNS algebra is a factor."""
    return g.algebra.num_blocks


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
