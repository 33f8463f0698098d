"""Inner one-parameter flows t ↦ e^{ith}·e^{-ith} and their analytic extension.

In the eigenbasis of the generator everything is entrywise: evolving by
z ∈ ℂ multiplies entry (j,k) by e^{iz(λ_j-λ_k)}, so the analytic
continuation is exact and the Gaussian smoothing has a closed form next
to its quadrature definition. Both routes are kept and compared in the
tests; neither is derived from the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import TOL, AlgElement, BlockAlgebra, Functional

#: refuse analytic continuation beyond this strip half-width; the entry
#: factors reach e^{|Im z|·spread} and silently clamping would corrupt results
IM_CAP = 50.0

GH_NODES_DEFAULT = 64
#: numpy's ``hermgauss`` returns NaN weights from 512 nodes on
GH_NODES_MAX = 256
#: nodes × block entries of one slab of Gauss–Hermite phases
_GH_CHUNK_ENTRIES = 2 ** 16
#: relative (Frobenius) convergence tolerance of every quadrature route
QUAD_TOL = 1e-8


@functools.lru_cache(maxsize=32)
def _gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``hermgauss(nodes)``, computed once per node count and shared read-only."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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


@dataclass
class StripCheckReport:
    """Boundary residuals of z ↦ ω(b σ_z(a)) on the closed strip of height β."""

    beta: float
    max_residual_lower: float
    max_residual_upper: float
    samples: int

    @property
    def max_residual(self) -> float:
        return max(self.max_residual_lower, self.max_residual_upper)


class InnerFlow:
    """The flow σ_t = Ad e^{ith} attached to a self-adjoint generator h."""

    def __init__(self, algebra: BlockAlgebra, generator: AlgElement):
        if generator.algebra != algebra:
            raise ValueError("generator lives in a different algebra")
        scale = generator.tol_scale()
        if not generator.is_hermitian(TOL * scale):
            raise ValueError("generator must be self-adjoint")
        self.algebra = algebra
        self.generator = generator
        self.eigenvalues: list[np.ndarray] = []
        self.eigenvectors: list[np.ndarray] = []
        for h in generator.blocks:
            w, u = np.linalg.eigh(h)
            err = (u * w) @ u.conj().T
            err -= h
            resid = float(np.max(np.abs(err)))
            if not resid <= 1e-10 * scale:
                raise ValueError(f"eigendecomposition residual {resid:.3e} too large")
            self.eigenvalues.append(w)
            self.eigenvectors.append(u)

    @classmethod
    def _certified(cls, algebra: BlockAlgebra, generator: AlgElement,
                   eigenvalues: list[np.ndarray], eigenvectors: list[np.ndarray]) -> "InnerFlow":
        """The flow of ``generator`` with an eigensystem its caller has certified: one
        (w, u) per block, w ascending, installed as given. Nothing is diagonalized or
        checked here; the caller answers for the bounds ``__init__`` applies."""
        flow = cls.__new__(cls)
        flow.algebra, flow.generator = algebra, generator
        flow.eigenvalues, flow.eigenvectors = eigenvalues, eigenvectors
        return flow

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
        ``quadrature`` sums σ at Gauss–Hermite nodes (as one entrywise factor
        between a single transport to the eigenbasis and back), doubling the
        rule from ``nodes`` until halving it moves the answer by at most
        ``QUAD_TOL`` (relative, Frobenius), and raises :class:`QuadratureError`
        if that never happens below ``GH_NODES_MAX``. A ``nodes`` outside
        [2, ``GH_NODES_MAX``] is refused with ``ValueError`` before any rule is built.
        """
        return self.smooth_shifted(a, n, 0.0, method=method, nodes=nodes)

    def smooth_shifted(self, a: AlgElement, n: float, z: complex, method: str = "closed_form",
                       nodes: int = GH_NODES_DEFAULT) -> AlgElement:
        """σ_z applied to the n-smoothing of a; entire in z."""
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
            half = None
            while True:
                full = self._gh_sum(a, n, z, k)
                if half is None:
                    half = self._gh_sum(a, n, z, k // 2)
                denom = max(full.fro_norm(), 1e-300)
                est = (full - half).fro_norm() / denom
                if est <= QUAD_TOL:
                    return full
                if k >= GH_NODES_MAX:
                    raise QuadratureError(
                        f"Gauss–Hermite rule with {k} nodes has not converged "
                        f"(achieved error estimate {est:.3e} > {QUAD_TOL:.3e})")
                k_next = min(GH_NODES_MAX, 2 * k)
                # the doubled rule's half is the rule just summed, unless the cap clamped it
                half = full if k_next // 2 == k else None
                k = k_next
        raise ValueError(f"unknown method {method!r}")

    def _gh_sum(self, a: AlgElement, n: float, z: complex, nodes: int) -> AlgElement:
        # substituting t = z + x/√n turns the Gaussian integral into
        # (1/√π) Σ_k w_k σ_{z + x_k/√n}(a) over Hermite nodes x_k; each σ is
        # entrywise in the eigenbasis, so the sum is one entrywise factor
        # Σ_k (w_k/√π)·e^{i(z + x_k/√n)(λ_j−λ_l)} between one transport each way
        x, w = _gauss_hermite(nodes)
        izt = 1j * (z + x / np.sqrt(n))
        coef = w / np.sqrt(np.pi)
        out = []
        for lam, blk in zip(self.eigenvalues, self.to_eigenbasis(a)):
            diff = (lam[:, None] - lam[None, :]).ravel()
            step = max(1, _GH_CHUNK_ENTRIES // diff.size)
            fac = sum(coef[i:i + step] @ np.exp(np.multiply.outer(izt[i:i + step], diff))
                      for i in range(0, len(x), step))
            out.append(fac.reshape(blk.shape) * blk)
        return self.from_eigenbasis(out)

    # -- strip boundary check --------------------------------------------------

    def strip_check(self, omega: Functional, a: AlgElement, b: AlgElement,
                    beta: float) -> StripCheckReport:
        """Compare f(z) = ω(b σ_z(a)) against its stated boundary values at
        Re z ∈ {−2, −0.75, 0, 0.75, 2}.

        The references use σ_t(a) = U a U* with the dense U = ``unitary(t)``,
        not the entrywise route that ``continue_analytic`` takes: on Im z = 0
        the reference is ω(b σ_t(a)), on Im z = β it is ω(σ_t(a) b). Both
        residual maxima are reported.
        """
        ts = (-2.0, -0.75, 0.0, 0.75, 2.0)
        lower = upper = 0.0
        for t in ts:
            x = self.unitary(t)
            a_t = x @ a @ x.adjoint()
            f_low = omega(b @ self.continue_analytic(a, t))
            lower = max(lower, abs(f_low - omega(b @ a_t)))
            f_up = omega(b @ self.continue_analytic(a, t + 1j * beta))
            upper = max(upper, abs(f_up - omega(a_t @ b)))
        return StripCheckReport(beta=float(beta), max_residual_lower=lower,
                                max_residual_upper=upper, samples=len(ts))
