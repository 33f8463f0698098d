"""Inner one-parameter flows t ↦ e^{ith}·e^{-ith} and their analytic extension.

In the eigenbasis of the generator everything is entrywise: evolving by
z ∈ ℂ multiplies entry (j,k) by e^{iz(λ_j-λ_k)}, so the analytic
continuation is exact and the Gaussian smoothing has a closed form next
to its quadrature definition. Both routes are kept and compared in the
tests; neither is derived from the other.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import (TOL, AlgElement, BlockAlgebra, InternalFault, _fro_norm, _hermitian_part,
                      _read_only)

#: refuse analytic continuation beyond this strip half-width; the entry
#: factors reach e^{|Im z|·spread} and silently clamping would corrupt results
IM_CAP = 50.0

GH_NODES_DEFAULT = 64
#: numpy's ``hermgauss`` returns NaN weights from 512 nodes on
GH_NODES_MAX = 256
#: positive nodes × distinct gaps of one slab of the Gauss–Hermite cosine sum
_GH_CHUNK_ENTRIES = 2 ** 16
#: relative (Frobenius) convergence tolerance of every quadrature route
QUAD_TOL = 1e-8


@functools.lru_cache(maxsize=32)
def _gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``hermgauss(nodes)``, computed once per node count and shared read-only. A
    function of its argument alone, so a function-level cache, not a ``_keep``.

    The quadrature pairs node x with −x, so the rule must be exactly symmetric
    (Golub & Welsch): ascending nodes with x_k = −x_{K−1−k}, the upper half
    positive, and w_k = w_{K−1−k}. A rule that is not is an ``InternalFault``."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    if not (np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            and (x[(nodes + 1) // 2:] > 0).all()):
        raise InternalFault(f"Gauss–Hermite rule of {nodes} nodes is not symmetric")
    return _read_only(x), _read_only(w)


class AnalyticRangeError(ValueError):
    """|Im z| exceeds the supported strip."""


def _check_strip(z: complex) -> complex:
    """z as a complex number, refused outside the strip |Im z| ≤ IM_CAP."""
    z = complex(z)
    if abs(z.imag) > IM_CAP:
        raise AnalyticRangeError(
            f"|Im z| = {abs(z.imag):.3g} exceeds the supported strip |Im z| ≤ {IM_CAP:g}")
    return z


class QuadratureError(RuntimeError):
    """Gauss–Hermite sum failed its self-consistency estimate."""


class InnerFlow:
    """The flow σ_t = Ad e^{ith} attached to a self-adjoint generator h."""

    def __init__(self, algebra: BlockAlgebra, generator: AlgElement):
        if generator.algebra != algebra:
            raise ValueError("generator lives in a different algebra")
        # the eigensystem is that of the Hermitian part; TOL alone decides self-adjointness,
        # and the residual, taken against the same part, catches only a faulty eigh
        parts, eigen, scale = _hermitian_part(generator, "generator", TOL,
                                              "generator must be self-adjoint", vectors=True)
        for h, (w, u) in zip(parts, eigen):
            err = (u * w) @ u.conj().T
            err -= h
            resid = float(np.max(np.abs(err)))
            if not resid <= 1e-10 * scale:
                raise ValueError(f"eigendecomposition residual {resid:.3e} too large")
        self.algebra = algebra
        self.generator = generator
        self.eigenvalues: list[np.ndarray] = [w for w, _ in eigen]
        self.eigenvectors: list[np.ndarray] = [u for _, u in eigen]
        #: the slot of ``kms._boltzmann_at``'s ``_keep``
        self._kept_boltzmann = None

    @classmethod
    def _certified(cls, algebra: BlockAlgebra, generator: AlgElement,
                   eigenvalues: list[np.ndarray], eigenvectors: list[np.ndarray]) -> "InnerFlow":
        """The flow of ``generator`` with an eigensystem its caller has certified: one
        (w, u) per block, w ascending, installed as given. Nothing is diagonalized or
        checked here; the caller answers for the bounds ``__init__`` applies."""
        flow = cls.__new__(cls)
        flow.algebra, flow.generator = algebra, generator
        flow.eigenvalues, flow.eigenvectors = eigenvalues, eigenvectors
        flow._kept_boltzmann = None
        return flow

    @property
    def generator_norm(self) -> float:
        """max|λ| over the certified eigenvalues: ‖(h + h*)/2‖₂, which is ‖h‖₂ when h is
        exactly Hermitian."""
        return max(float(np.abs(w).max()) for w in self.eigenvalues)

    @property
    def spectral_spread(self) -> float:
        """Largest gap max λ − min λ within a single block."""
        return max(float(w[-1] - w[0]) if w.size else 0.0 for w in self.eigenvalues)

    # -- basis transport ------------------------------------------------------

    def to_eigenbasis(self, a: AlgElement) -> list[np.ndarray]:
        return [u.conj().T @ blk @ u for u, blk in zip(self.eigenvectors, a.blocks)]

    def from_eigenbasis(self, blocks) -> AlgElement:
        mats = [u @ blk @ u.conj().T for u, blk in zip(self.eigenvectors, blocks)]
        return AlgElement(self.algebra, mats)

    def _entrywise(self, a: AlgElement, factor) -> AlgElement:
        """Apply entry (j,k) ↦ factor(λ_j − λ_k)·entry in the eigenbasis."""
        out = []
        for w, blk in zip(self.eigenvalues, self.to_eigenbasis(a)):
            diff = w[:, None] - w[None, :]
            out.append(factor(diff) * blk)
        return self.from_eigenbasis(out)

    # -- the flow and its analytic extension ----------------------------------

    def evolve(self, a: AlgElement, t: float) -> AlgElement:
        """σ_t(a) = e^{ith} a e^{-ith}."""
        t = float(t)
        return self._entrywise(a, lambda d: np.exp(1j * t * d))

    def unitary(self, t: float) -> AlgElement:
        """e^{ith} as dense blocks (u·e^{itw})u* built from the eigensystem."""
        t = float(t)
        return AlgElement(self.algebra, [(u * np.exp(1j * t * w)) @ u.conj().T
                                         for w, u in zip(self.eigenvalues, self.eigenvectors)])

    def continue_analytic(self, a: AlgElement, z: complex) -> AlgElement:
        """σ_z(a) for complex z; exact on matrices, guarded by IM_CAP."""
        z = _check_strip(z)
        return self._entrywise(a, lambda d: np.exp(1j * z * d))

    # -- Gaussian smoothing, two independent routes ---------------------------

    def smooth(self, a: AlgElement, n: float, method: str = "closed_form",
               nodes: int = GH_NODES_DEFAULT) -> AlgElement:
        """√(n/π) ∫ e^{-nt²} σ_t(a) dt.

        ``closed_form`` damps entry (j,k) by e^{-(λ_j-λ_k)²/(4n)};
        ``quadrature`` sums σ at Gauss–Hermite nodes, doubling the rule from
        ``nodes`` until halving it moves the answer by at most ``QUAD_TOL``
        (relative, Frobenius), and raises :class:`QuadratureError` if that never
        happens below ``GH_NODES_MAX``. Every rule is one entrywise factor in the
        eigenbasis, where a is transported once per call; the rule returned is
        transported back. A ``nodes`` outside [2, ``GH_NODES_MAX``] is refused with
        ``ValueError`` before any rule is built.
        """
        return self.smooth_shifted(a, n, 0.0, method=method, nodes=nodes)

    def smooth_shifted(self, a: AlgElement, n: float, z: complex, method: str = "closed_form",
                       nodes: int = GH_NODES_DEFAULT) -> AlgElement:
        """σ_z applied to the n-smoothing of a; entire in z.

        Substituting t = z + x/√n turns the quadrature route's integral into
        (1/√π) Σ_k w_k σ_{z + x_k/√n}(a) over the Hermite nodes x_k. In the eigenbasis
        that multiplies entry (j,l) by e^{iz(λ_j−λ_l)}·g(λ_j−λ_l), where pairing the
        symmetric nodes ±x_k makes g(d) = Σ_{x_k>0} (2w_k/√π)·cos(x_k d/√n), plus
        w/√π of the zero node of an odd rule, real and even. The phase is applied
        once per call, g is evaluated on each block's distinct gaps only, and the
        half-rule estimate is judged on the eigenbasis blocks: Frobenius norms are
        unitarily invariant.
        """
        n = float(n)
        if n <= 0:
            raise ValueError("smoothing index must be positive")
        k = int(nodes)
        if not 2 <= k <= GH_NODES_MAX:
            raise ValueError(f"Gauss–Hermite rule of {k} nodes is outside [2, {GH_NODES_MAX}]")
        z = _check_strip(z)
        if method == "closed_form":
            return self._entrywise(a, lambda d: np.exp(1j * z * d) * np.exp(-d * d / (4.0 * n)))
        if method == "quadrature":
            eig = self._gh_eigenbasis(a, n, z)
            half = None
            while True:
                full = self._gh_blocks(eig, k)
                if half is None:
                    half = self._gh_blocks(eig, k // 2)
                denom = max(_fro_norm(full), 1e-300)
                est = _fro_norm([f - h for f, h in zip(full, half)]) / denom
                if est <= QUAD_TOL:
                    return self.from_eigenbasis(full)
                if k >= GH_NODES_MAX:
                    raise QuadratureError(
                        f"Gauss–Hermite rule with {k} nodes has not converged "
                        f"(achieved error estimate {est:.3e} > {QUAD_TOL:.3e})")
                k_next = min(GH_NODES_MAX, 2 * k)
                # the doubled rule's half is the rule just summed, unless the cap clamped it
                half = full if k_next // 2 == k else None
                k = k_next
        raise ValueError(f"unknown method {method!r}")

    def _gh_eigenbasis(self, a: AlgElement, n: float, z: complex) -> list[tuple]:
        """What every rule of one quadrature call shares, per block: a in the eigenbasis
        times the phase e^{iz(λ_j−λ_l)}, the mask of its strict upper triangle, and the
        gaps λ_l − λ_j there over √n, which are ≥ 0 because each block's w ascends."""
        eig = []
        for lam, blk in zip(self.eigenvalues, self.to_eigenbasis(a)):
            row = np.arange(lam.size)
            upper = row[:, None] < row
            diff = lam[:, None] - lam[None, :]
            eig.append((np.exp(1j * z * diff) * blk, upper, -diff[upper] / np.sqrt(n)))
        return eig

    @staticmethod
    def _gh_blocks(eig, nodes: int) -> list[np.ndarray]:
        """The ``nodes``-point rule in the eigenbasis: each block of ``_gh_eigenbasis``
        times g(|λ_j − λ_l|) entrywise, g summed over the positive nodes in slabs of at
        most ``_GH_CHUNK_ENTRIES`` and mirrored from the upper triangle."""
        x, w = _gauss_hermite(nodes)
        pos = x[(nodes + 1) // 2:]
        coef = 2.0 * w[(nodes + 1) // 2:] / np.sqrt(np.pi)
        mid = float(w[nodes // 2]) / np.sqrt(np.pi) if nodes % 2 else 0.0
        out = []
        for blk, upper, gaps in eig:
            step = max(1, _GH_CHUNK_ENTRIES // max(1, gaps.size))     # a 1×1 block has none
            g = sum((coef[i:i + step] @ np.cos(np.multiply.outer(pos[i:i + step], gaps))
                     for i in range(0, pos.size, step)), mid)
            fac = np.full(blk.shape, mid + float(coef.sum()))          # g(0) on the diagonal
            fac[upper] = g
            fac.T[upper] = g
            out.append(fac * blk)
        return out
