"""Finite direct sums of full complex matrix algebras.

Everything downstream works over ``M_{n_1} ⊕ … ⊕ M_{n_m}``: elements are
stored block-diagonally (never densified unless a representation demands
it), positive functionals are densities, and the only spectral primitive
is the Hermitian eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: default tolerance for every predicate in the package, overridable per call
TOL = 1e-9


@dataclass(frozen=True)
class BlockAlgebra:
    """A direct sum of full matrix algebras, identified by its block sizes."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise ValueError("block dims must be a nonempty list of positive integers")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def coord_dim(self) -> int:
        """N = Σ n_i², the length of a flattened coordinate vector."""
        return sum(n * n for n in self.block_dims)

    @property
    def rep_dim(self) -> int:
        """Dimension Σ n_i of the defining representation."""
        return sum(self.block_dims)

    def element(self, blocks: Sequence[np.ndarray]) -> "AlgElement":
        return AlgElement(self, blocks)

    def zero(self) -> "AlgElement":
        return AlgElement(self, [np.zeros((n, n), dtype=complex) for n in self.block_dims])

    def identity(self) -> "AlgElement":
        return AlgElement(self, [np.eye(n, dtype=complex) for n in self.block_dims])

    def from_coords(self, v: np.ndarray) -> "AlgElement":
        """Inverse of ``AlgElement.coords`` (row-major per block)."""
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.size != self.coord_dim:
            raise ValueError(f"coordinate vector has length {v.size}, expected {self.coord_dim}")
        blocks, off = [], 0
        for n in self.block_dims:
            blocks.append(v[off:off + n * n].reshape(n, n))
            off += n * n
        return AlgElement(self, blocks)

    def basis(self) -> list["AlgElement"]:
        """Matrix units e_ij of every block, in block/row-major order."""
        return [e for e, _ in self.indexed_basis()]

    def indexed_basis(self) -> list[tuple["AlgElement", tuple[int, int, int]]]:
        out = []
        for b, n in enumerate(self.block_dims):
            for i in range(n):
                for j in range(n):
                    blocks = [np.zeros((d, d), dtype=complex) for d in self.block_dims]
                    blocks[b][i, j] = 1.0
                    out.append((AlgElement(self, blocks), (b, i, j)))
        return out


class AlgElement:
    """An element of a :class:`BlockAlgebra`, one complex matrix per block."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: BlockAlgebra, blocks: Sequence[np.ndarray]):
        if len(blocks) != algebra.num_blocks:
            raise ValueError("wrong number of blocks")
        mats = []
        for n, blk in zip(algebra.block_dims, blocks):
            m = np.array(blk, dtype=complex)
            if m.shape != (n, n):
                raise ValueError(f"block of shape {m.shape}, expected {(n, n)}")
            m.flags.writeable = False
            mats.append(m)
        self.algebra = algebra
        self.blocks = tuple(mats)

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other: "AlgElement"):
        if self.algebra != other.algebra:
            raise ValueError("algebra mismatch")

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._check_same(other)
        return AlgElement(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        self._check_same(other)
        return AlgElement(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.algebra, [-a for a in self.blocks])

    def __mul__(self, scalar) -> "AlgElement":
        return AlgElement(self.algebra, [scalar * a for a in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgElement") -> "AlgElement":
        self._check_same(other)
        return AlgElement(self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "AlgElement":
        return AlgElement(self.algebra, [a.conj().T for a in self.blocks])

    # -- metrics and predicates ----------------------------------------------

    def norm(self) -> float:
        """Operator norm (largest singular value over the blocks)."""
        return max(float(np.linalg.norm(a, 2)) if a.size else 0.0 for a in self.blocks)

    def fro_norm(self) -> float:
        return float(np.sqrt(sum(np.linalg.norm(a) ** 2 for a in self.blocks)))

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.blocks))

    def is_hermitian(self, tol: float = TOL) -> bool:
        return all(np.max(np.abs(a - a.conj().T)) <= tol if a.size else True for a in self.blocks)

    def coords(self) -> np.ndarray:
        """Row-major flattening, block after block; length N = Σ n_i²."""
        return np.concatenate([a.reshape(-1) for a in self.blocks])

    def dense(self) -> np.ndarray:
        """Block-diagonal matrix on ℂ^{Σ n_i}. Used only where a concrete
        representation is needed (corners, commutants)."""
        d = self.algebra.rep_dim
        out = np.zeros((d, d), dtype=complex)
        off = 0
        for a, n in zip(self.blocks, self.algebra.block_dims):
            out[off:off + n, off:off + n] = a
            off += n
        return out

    def __repr__(self):
        return f"AlgElement(dims={self.algebra.block_dims})"


class Functional:
    """A positive linear functional a ↦ Σ_i Tr(d_i a_i), stored by its density."""

    __slots__ = ("algebra", "density")

    def __init__(self, algebra: BlockAlgebra, density: AlgElement, check: bool = True):
        if density.algebra != algebra:
            raise ValueError("density lives in a different algebra")
        if check:
            if not density.is_hermitian(1e-8 * max(1.0, density.norm())):
                raise ValueError("density not self-adjoint")
            lo = min(_min_eig(a) for a in density.blocks)
            if lo < -1e-8 * max(1.0, density.norm()):
                raise ValueError(f"density not positive semidefinite (min eigenvalue {lo:.3e})")
        self.algebra = algebra
        self.density = density

    def value(self, a: AlgElement) -> complex:
        if a.algebra != self.algebra:
            raise ValueError("algebra mismatch")
        return complex(sum(np.trace(d @ x) for d, x in zip(self.density.blocks, a.blocks)))

    __call__ = value

    @property
    def total_mass(self) -> float:
        return float(np.real(self.density.trace()))

    def is_state(self, tol: float = TOL) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def is_faithful(self, tol: float = 1e-12) -> bool:
        return all(_min_eig(d) > tol for d in self.density.blocks)

    def scaled(self, c: float) -> "Functional":
        return Functional(self.algebra, c * self.density, check=False)

    def __repr__(self):
        return f"Functional(dims={self.algebra.block_dims}, mass={self.total_mass:.6g})"


@dataclass(frozen=True)
class Projection:
    """An AlgElement p with p = p* = p², validated at construction."""

    element: AlgElement

    def __post_init__(self):
        p = self.element
        scale = max(1.0, p.norm())
        if not p.is_hermitian(1e-8 * scale):
            raise ValueError("projection not self-adjoint")
        resid = max(np.max(np.abs(a @ a - a)) if a.size else 0.0 for a in p.blocks)
        if resid > 1e-8 * scale:
            raise ValueError(f"p² ≠ p (residual {resid:.3e})")

    @property
    def algebra(self) -> BlockAlgebra:
        return self.element.algebra

    def block_ranks(self) -> tuple[int, ...]:
        return tuple(int(round(float(np.real(np.trace(a))))) for a in self.element.blocks)

    def is_full(self) -> bool:
        """Nonzero compression in every block."""
        return all(r >= 1 for r in self.block_ranks())


def _min_eig(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2.0)[0])


def is_positive(a: AlgElement, tol: float = TOL) -> bool:
    """Positivity by spectral test. Non-Hermitian input is an error, not False."""
    if not a.is_hermitian(tol * max(1.0, a.norm())):
        raise ValueError("not self-adjoint")
    return all(_min_eig(b) >= -tol for b in a.blocks)


def _exchange_residual(d: np.ndarray, fac=None, mask=None) -> tuple[float, tuple[int, ...]]:
    """max |δ_lm d_nk − fac_kl δ_nk d_lm| over unit pairs a = E_kl, b = E_mn with mask[k, l]
    and mask[m, n] (fac ≡ 1, every pair by default), and the first (k, l, m, n) in C order
    attaining it. Only n = k (|δ_lm d_kk − fac_kl d_lm|) and l = m, n ≠ k (|d_nk|) can be
    nonzero, so one n×n slice of each per k keeps memory at O(n²)."""
    n = d.shape[0]
    ok = np.ones((n, n), dtype=bool) if mask is None else mask
    eye = np.eye(n, dtype=bool)
    l, m = np.indices((n, n))
    best, where = 0.0, 0
    for k in range(n):
        rhs = d if fac is None else fac[k][:, None] * d
        side = np.where(ok[k][:, None] & ok[:, k], np.abs(np.where(eye, d[k, k] - rhs, rhs)), 0.0)
        col = np.where(ok[k][:, None] & ok & ~eye[k], np.abs(d[:, k]), 0.0)   # [l, n], l = m
        vals = np.concatenate((side, col)).ravel()
        if (top := vals.max()) > best:
            pos = np.concatenate(((l * n + m) * n + k, (l * n + l) * n + m)).ravel()
            best, where = float(top), k * n ** 3 + int(pos[vals == top].min())
    return best, tuple(int(i) for i in np.unravel_index(where, (n,) * 4))


def is_trace(phi: Functional, tol: float = TOL) -> bool:
    """Trace property on all matrix-unit pairs, in closed form and O(n²) memory:
    φ(E_kl E_mn) = δ_lm d_nk against φ(E_mn E_kl) = δ_nk d_lm, block by block,
    since cross-block products vanish identically and impose nothing."""
    return all(_exchange_residual(d)[0] <= tol for d in phi.density.blocks)


def center_projections(algebra: BlockAlgebra) -> list[Projection]:
    """The minimal central projections (block identities), summing to 1."""
    out = []
    for b in range(algebra.num_blocks):
        blocks = [
            np.eye(n, dtype=complex) if i == b else np.zeros((n, n), dtype=complex)
            for i, n in enumerate(algebra.block_dims)
        ]
        out.append(Projection(AlgElement(algebra, blocks)))
    return out


def commutant_basis(operators: Iterable, dim: int | None = None, tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal (Hilbert–Schmidt) basis of {x : [x, s] = 0 for all s}.

    ``operators`` may be square ndarrays or AlgElements (densified). The
    commutation constraints are stacked as a linear system on vec(x) and
    the nullspace is read off an SVD, so the returned basis is orthonormal
    for free.
    """
    mats = []
    for s in operators:
        mats.append(s.dense() if isinstance(s, AlgElement) else np.asarray(s, dtype=complex))
    if not mats:
        if dim is None:
            raise ValueError("empty operator list needs an explicit dimension")
        return [m for m in np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)]
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("operators act on different spaces")
    eye = np.eye(n)
    rows = [np.kron(s, eye) - np.kron(eye, s.T) for s in mats]  # [x,s]=0 ⇔ (s⊗I − I⊗sᵀ)vec(x)=0
    system = np.vstack(rows)
    _, sing, vh = np.linalg.svd(system, full_matrices=False)
    scale = sing[0] if sing.size and sing[0] > 0 else 1.0
    null_mask = np.zeros(vh.shape[0], dtype=bool)
    null_mask[: sing.size] = sing <= tol * scale
    null_mask[sing.size:] = True
    return [vh[k].conj().reshape(n, n) for k in np.nonzero(null_mask)[0]]


# -- random samples, used throughout the test-suite --------------------------

def random_element(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> AlgElement:
    blocks = [
        scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        for n in algebra.block_dims
    ]
    return AlgElement(algebra, blocks)


def random_hermitian(algebra: BlockAlgebra, rng: np.random.Generator, scale: float = 1.0) -> AlgElement:
    a = random_element(algebra, rng, scale)
    return 0.5 * (a + a.adjoint())


def random_state(algebra: BlockAlgebra, rng: np.random.Generator, faithful: bool = True) -> Functional:
    """A random density; faithful by default (eigenvalues bounded away from 0)."""
    blocks = []
    for n in algebra.block_dims:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = g @ g.conj().T
        if faithful:
            d = d + 0.1 * np.trace(d).real / n * np.eye(n)
        blocks.append(d)
    raw = AlgElement(algebra, blocks)
    return Functional(algebra, (1.0 / np.real(raw.trace())) * raw)
