"""Finite direct sums of full complex matrix algebras.

Everything downstream works over ``M_{n_1} ⊕ … ⊕ M_{n_m}``: elements are
stored block-diagonally (never densified unless a representation demands
it), positive functionals are densities, and the only spectral primitive
is the Hermitian eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: default tolerance for every predicate in the package, overridable per call
TOL = 1e-9
_EPS = float(np.finfo(float).eps)
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))      # math.exp overflows above it


def _fro_norm(blocks) -> float:
    """The Frobenius norm of a list of blocks."""
    return float(np.sqrt(sum(np.linalg.norm(a) ** 2 for a in blocks)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _keep(owner, slot: str, key, build):
    """``build()``, stored on ``owner`` as the one pair ``(key, value)`` in attribute ``slot``
    (None until then) and returned again while the key is equal: the one rule for results
    kept on an object (Michie, "Memo functions and machine learning", Nature 218, 1968).
    Kept arrays are read-only. The key names everything the value reads; ``==`` decides,
    so an element in it compares by identity. A raising build keeps nothing. The pair is
    replaced whole, so threads with different keys each get their own value. The value
    holds no reference to its owner, so it dies with the owner by reference counting.
    Results of arguments alone (``lru_cache``) or of a frozen object (``cached_property``)
    need no key and stay on those rules."""
    kept = getattr(owner, slot)
    if kept is not None and kept[0] == key:
        return kept[1]
    value = build()
    setattr(owner, slot, (key, value))
    return value


class InternalFault(RuntimeError):
    """A computation broke an invariant that holds for every valid input: a fault of
    the library, not of its input (CLI exit 3)."""


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
        out = []
        for b, n in enumerate(self.block_dims):
            for i in range(n):
                for j in range(n):
                    blocks = [np.zeros((d, d), dtype=complex) for d in self.block_dims]
                    blocks[b][i, j] = 1.0
                    out.append(AlgElement(self, blocks))
        return out


class AlgElement:
    """An element of a :class:`BlockAlgebra`, one complex matrix per block."""

    __slots__ = ("algebra", "blocks", "_norm")

    def __init__(self, algebra: BlockAlgebra, blocks: Sequence[np.ndarray]):
        if len(blocks) != algebra.num_blocks:
            raise ValueError("wrong number of blocks")
        mats = []
        for n, blk in zip(algebra.block_dims, blocks):
            m = np.array(blk, dtype=complex)
            if m.shape != (n, n):
                raise ValueError(f"block of shape {m.shape}, expected {(n, n)}")
            mats.append(_read_only(m))
        self.algebra = algebra
        self.blocks = tuple(mats)
        self._norm = None

    @classmethod
    def _adopt(cls, algebra: BlockAlgebra, blocks: Sequence[np.ndarray]) -> "AlgElement":
        """The element with these blocks, taken over as they are: for fresh complex
        arrays of the right shapes that no one else holds, or read-only arrays that
        elements may share. They are made read-only, but neither copied nor checked."""
        el = cls.__new__(cls)
        el.algebra, el.blocks, el._norm = algebra, tuple(map(_read_only, blocks)), None
        return el

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
        """Operator norm: the largest singular value over the blocks, from the
        singular values that ``np.linalg.norm(a, 2)`` takes, so equal to it bit for
        bit, NaN and ``LinAlgError`` included; an all-zero block needs no SVD. The
        blocks are read-only, so the value is kept on the element by :func:`_keep`."""
        return _keep(self, "_norm", (), lambda: max(float(np.linalg.svdvals(a).max())
                                                    if np.count_nonzero(a) else 0.0
                                                    for a in self.blocks))

    def tol_scale(self) -> float:
        """max(1, ‖a‖₂), the scale of the package's relative tolerances. Since
        ‖a‖₂ ≤ ‖a‖_F, below 1 (with room for rounding) it is exactly 1 and the
        SVD behind ‖a‖₂ is skipped."""
        return 1.0 if self.fro_norm() <= 1.0 - 1e-9 else max(1.0, self.norm())

    def fro_norm(self) -> float:
        return _fro_norm(self.blocks)

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
    """A positive linear functional a ↦ Σ_i Tr(d_i a_i), stored by its density.
    ``_gns`` is the slot where :func:`kmslab.modular.gns` keeps its triple by :func:`_keep`."""

    __slots__ = ("algebra", "density", "_gns")

    def __init__(self, algebra: BlockAlgebra, density: AlgElement, check: bool = True):
        if density.algebra != algebra:
            raise ValueError("density lives in a different algebra")
        if check:
            _, spectra, scale = _hermitian_part(density, "density", 1e-8,
                                                "density not self-adjoint")
            lo = min(w[0] for w in spectra)
            if lo < -1e-8 * scale:
                raise ValueError(f"density not positive semidefinite (min eigenvalue {lo:.3e})")
        self.algebra = algebra
        self.density = density
        self._gns = None

    def value(self, a: AlgElement) -> complex:
        if a.algebra != self.algebra:
            raise ValueError("algebra mismatch")
        return complex(sum(np.trace(d @ x) for d, x in zip(self.density.blocks, a.blocks)))

    __call__ = value

    @property
    def total_mass(self) -> float:
        return float(np.real(self.density.trace()))

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
        _, _, scale = _hermitian_part(p, "projection", 1e-8, "projection not self-adjoint")
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


def _hermitian_part(a: AlgElement, name: str, tol: float, refusal: str,
                    vectors: bool = False) -> tuple[list[np.ndarray], list, float]:
    """The one self-adjointness check of the package: a's blocks are refused if any entry
    is not finite ("<name> has non-finite entries"); each block's Hermitian part
    (b + b*)/2, b itself when b is exactly Hermitian, is decomposed once, by ``eigh`` if ``vectors`` (pairs (w, u)), else by
    ``eigvalsh`` (w), eigenvalues ascending; the scale max(1, max|λ|) is read off that
    decomposition; and an asymmetry max|b − b*| above tol·scale is refused with
    ``refusal``. Returns the Hermitian parts, their decompositions and the scale."""
    if not all(np.isfinite(b).all() for b in a.blocks):
        raise ValueError(f"{name} has non-finite entries")
    parts = []
    for b in a.blocks:
        bh = b.conj().T                 # b + b* overflows for entries past 8.9e307
        parts.append(b if (b == bh).all() else (b + bh) / 2.0)
    decomps = [np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h) for h in parts]
    scale = max(1.0, *(float(np.abs(d[0] if vectors else d).max()) for d in decomps))
    if not a.is_hermitian(tol * scale):
        raise ValueError(refusal)
    return parts, decomps, scale


def is_positive(a: AlgElement, tol: float = TOL) -> bool:
    """Positivity up to ``tol``: λ_min ≥ −tol in every block, after the self-adjointness
    check of :func:`_hermitian_part` at the same tol. Non-finite or non-Hermitian input
    is an error, not False."""
    _, spectra, _ = _hermitian_part(a, "element", tol, "not self-adjoint")
    return all(w[0] >= -tol for w in spectra)


def _exchange_sheets(d: np.ndarray, fac: np.ndarray) -> tuple[float, np.ndarray]:
    """max |δ_lm d_nk − fac_kl δ_nk d_lm| over all unit pairs a = E_kl, b = E_mn, for a
    positive finite factor fac, and the three n×n sheets it is read from; a NaN value makes
    the maximum NaN. This is ``verify_kms``'s route one on one eigenbasis block.

    Only three kinds of pair can be nonzero, and each kind is one n×n sheet in closed form:
    (k, l, l, k) gives |d_kk − fac_kl d_ll|; (k, l, l, n), n ≠ k, gives |d_nk|; (k, l, m, k),
    l ≠ m, gives |fac_kl d_lm|, which is largest at F_l = max_k fac_kl, since rounding is
    monotone. Memory stays O(n²)."""
    n = d.shape[0]
    dg = d.diagonal()
    # the three kinds, indexed [k, l], [k, n] and [l, m]
    sheets = np.abs(np.array((dg[:, None] - fac * dg, d.T, fac.max(axis=0)[:, None] * d)))
    sheets[1:, np.eye(n, dtype=bool)] = 0.0
    return float(sheets.max()), sheets      # NaN if any value is NaN


def _exchange_witness(d: np.ndarray, fac: np.ndarray, sheets: np.ndarray,
                      best: float) -> tuple[int, ...]:
    """The first (k, l, m, n) in C order at which the pair of :func:`_exchange_sheets`
    attains its maximum ``best`` (a NaN when ``best`` is NaN), or (0, 0, 0, 0) when it is 0.

    The first k that attains it is read off the sheets; only the tied (l, m) of the third
    kind need a check across k. The pair within that k comes from the n×n slice of
    a = E_k·. Memory stays O(n²)."""
    if best == 0:
        return 0, 0, 0, 0
    n = d.shape[0]
    off = ~np.eye(n, dtype=bool)
    hit = np.isnan if math.isnan(best) else (lambda v: v == best)
    hits = hit(sheets)
    rows = hits[:2].any(axis=(0, 2))
    ls, ms = np.nonzero(hits[2])
    for j in range(0, ls.size, n):          # n tied pairs at a time keeps memory O(n²)
        l, m = ls[j:j + n], ms[j:j + n]
        rows |= hit(np.abs(fac[:, l] * d[l, m])).any(axis=1)
    k = int(rows.argmax())
    rhs = fac[k][:, None] * d
    side = np.abs(np.where(off, rhs, d[k, k] - rhs))              # [l, m]: pair (k, l, m, k)
    col = np.where(off[k], np.abs(d[:, k]), 0.0)                   # [n]: first pair (k, 0, 0, n)
    l, m = np.indices((n, n))
    pos = np.concatenate((((l * n + m) * n + k).ravel(), np.arange(n)))
    where = k * n ** 3 + int(pos[hit(np.concatenate((side.ravel(), col)))].min())
    return tuple(int(i) for i in np.unravel_index(where, (n,) * 4))


def _trace_residual(d: np.ndarray, same: np.ndarray | None = None) -> float:
    """The trace property's residual on one block: the maximum of |d_kk − d_ll| and of
    |d_kl|, k ≠ l, over the (k, l) with same[k, l] (all of them by default); NaN propagates.

    Over the unit pairs a = E_kl, b = E_mn of the subalgebra spanned by the E_kl with
    same[k, l], φ(ab) − φ(ba) = δ_lm d_nk − δ_nk d_lm takes exactly these values when same
    is an equivalence relation, as it is for the whole block and for a periodic flow's
    degree-zero units: a nonzero pair lies inside one class."""
    dg = d.diagonal()
    sheets = np.abs(np.array((dg[:, None] - dg, d)))     # [k, l]: d_kk − d_ll, then d_kl
    np.fill_diagonal(sheets[1], 0.0)                      # a diagonal NaN still reaches sheet 0
    return float((sheets if same is None else np.where(same, sheets, 0.0)).max())


def is_trace(phi: Functional, tol: float = TOL) -> bool:
    """Trace property on all matrix-unit pairs, in closed form (see
    :func:`_trace_residual`), block by block, since cross-block products vanish
    identically and impose nothing."""
    return all(_trace_residual(d) <= tol for d in phi.density.blocks)


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


def random_state(algebra: BlockAlgebra, rng: np.random.Generator) -> Functional:
    """A random faithful density (eigenvalues bounded away from 0)."""
    blocks = []
    for n in algebra.block_dims:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = g @ g.conj().T
        blocks.append(d + 0.1 * np.trace(d).real / n * np.eye(n))
    raw = AlgElement(algebra, blocks)
    return Functional(algebra, (1.0 / np.real(raw.trace())) * raw)
