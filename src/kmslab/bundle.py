"""Simplex bundles: which β admit equilibrium, and what the fiber is.

For a dimension-group style specification (a cone-preserving rational
matrix ρ with an order unit u) the fiber over β is the polytope

    { c ≥ 0 : ρᵀc = s·c, ⟨c, u⟩ = 1 },    s = e^{-β},

read off the class graph of ρᵀ (i → j when ρ_ji > 0) by the Frobenius–Victory
theorem (Victory 1985; Schneider 1986). With S_α the indices that have access
to the class α, α gives a vertex exactly when the null space of (ρᵀ − s·1) on
S_α is one-dimensional and spanned by some c > 0; the vertex is c (0 off S_α)
over ⟨c, u⟩, and these are all the vertices. Why:

* rows outside S_α vanish on c, since ρᵀ_ij > 0 with j in S_α puts i in S_α;
  so c is an eigenvector of ρᵀ;
* c > 0 on a class γ ≠ α with access to α makes γ strictly subinvariant
  (ρᵀ_γγ c_γ ≤ s·c_γ, strictly where γ leaves itself), so its radius is below
  s, while α, which reaches nothing else in S_α, has radius s;
* for such a (distinguished) α, s is a simple eigenvalue of ρᵀ on S_α, so the
  null space is one-dimensional and holds α's positive eigenvector.

Two distinguished classes α ≠ α′ at one s have α outside S_α′ (else α would be
subinvariant too), so each vertex is the only one nonzero on its own class: the
vertices are affinely independent and the fiber is a simplex of dimension one less
than their number.

Ordered by access, ρᵀ is block-triangular over its classes, so
det(ρᵀ − s) = Π_α det(ρᵀ_αα − s), and α gives a vertex only where its own block
ρᵀ_αα − s is singular (the rows of α in S_α reach only α, so c_α > 0 is null there).
The exact lane decides class by class: ρ's singularity (s = 0), whether e^{-β} is
(certifiably) a rational eigenvalue, and which classes need a null space at all. A
class {a} is singular where ρ_aa = s, a larger one by fraction-free integer
elimination of its own rows; the null vectors come from the same elimination on S_α
and the vertices are exact fractions. Otherwise every class takes an SVD with a
relative singular-value cut. Diagonal specifications admit a one-line support rule,
the cross-check.

The same file holds the degenerate one-point bundles (Dirac simplices on
level sets), self-similar measures on the half-line with their scaling
check, and the brute finite-dimensional bundle certificate.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .algebra import _LOG_FLOAT_MAX, InternalFault, _FrozenRecord, _read_only, _Record
from .flow import InnerFlow
from .kms import (KmsSimplex, _boltzmann_factors, _check_vertex_masses, _column_norms,
                  _simplex_at)

MAX_RANK = 12
FLOAT_ZERO_TOL = 1e-11


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{x!r} is not finite")
        fr = Fraction(x).limit_denominator(10 ** 9)
        if abs(float(fr) - x) > 1e-12 * max(1.0, abs(x)):
            raise ValueError(f"{x!r} is not recognizably rational; pass a Fraction or string")
        return fr
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


class DimensionGroupSpec(_FrozenRecord):
    """A cone-preserving rational matrix with a strictly positive unit. What it derives
    is kept by ``cached_property``, not ``_keep``: a frozen spec has nothing to key on."""

    matrix: tuple[tuple[Fraction, ...], ...]
    order_unit: tuple[Fraction, ...]

    def __post_init__(self):
        mat = tuple(tuple(_as_fraction(x) for x in row) for row in self.matrix)
        unit = tuple(_as_fraction(x) for x in self.order_unit)
        r = len(mat)
        if r == 0 or any(len(row) != r for row in mat):
            raise ValueError("matrix must be square")
        if len(unit) != r:
            raise ValueError("unit has the wrong length")
        if r > MAX_RANK:
            raise ValueError(f"rank {r} exceeds the desk-scale cap {MAX_RANK}")
        if any(x < 0 for row in mat for x in row):
            raise ValueError("matrix must preserve the positive cone (no negative entries)")
        if any(u <= 0 for u in unit):
            raise ValueError("order unit must be strictly positive")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "order_unit", unit)
        try:                            # the float lane reads every entry as a float
            self.matrix_float, self.unit_float
        except OverflowError as e:
            raise ValueError("an entry of ρ or of the unit is beyond the float range") from e
        # det ρ is the product of det ρ_αα over the classes α
        if any(_class_singular(self, alpha, Fraction(0)) for alpha, _ in self._classes):
            raise ValueError("matrix is singular")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @functools.cached_property
    def matrix_float(self) -> np.ndarray:
        """ρ in floats, made once and read-only."""
        return _read_only(np.array([[float(x) for x in row] for row in self.matrix]))

    @functools.cached_property
    def unit_float(self) -> np.ndarray:
        return _read_only(np.array([float(u) for u in self.order_unit]))

    @functools.cached_property
    def _scaled_transpose(self) -> tuple[int, np.ndarray]:
        """L, the lcm of ρ's denominators, and L·ρᵀ: Python ints in an object array."""
        lcm = math.lcm(*(x.denominator for row in self.matrix for x in row))
        r = self.rank
        cols = [[self.matrix[i][j].numerator * (lcm // self.matrix[i][j].denominator)
                 for i in range(r)] for j in range(r)]
        return lcm, np.array(cols, dtype=object)

    @functools.cached_property
    def _classes(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """(α, S_α) for each class α of ρᵀ's graph (i → j when ρ_ji > 0), by increasing
        S_α, the indices with access to α: a boolean transitive closure. Squaring k times
        reaches paths of length up to 2^k, and none needs more than r − 1."""
        r = self.rank
        # the entries are never negative, so those that are true are the positive ones
        reach = np.array(self.matrix, dtype=bool).T | np.eye(r, dtype=bool)
        for _ in range((r - 1).bit_length()):
            reach = reach @ reach
        # S_a = S_b exactly when a and b share a class
        classes = {}
        for a in range(r):
            classes.setdefault(tuple(np.flatnonzero(reach[:, a]).tolist()), []).append(a)
        return tuple((tuple(alpha), sup) for sup, alpha in sorted(classes.items()))

    @property
    def _access_sets(self) -> tuple[tuple[int, ...], ...]:
        """S_α for each class α, in the order of ``_classes``."""
        return tuple(sup for _, sup in self._classes)


# -- exact linear algebra: rationals become integers once --------------------------

def _primitive(v: np.ndarray) -> np.ndarray:
    """An integer object array divided by its entries' gcd, as is when that is 0 or 1."""
    g = math.gcd(*v)
    return v // g if g > 1 else v


def _echelon(rows, dim: int) -> list[tuple[int, np.ndarray]]:
    """Fraction-free elimination of integer rows over ℚ, combined rows made primitive:
    the pivot rows with their pivot columns, each row zero left of its column.
    Their number is the rank."""
    mat, pivots = list(rows), []
    for col in range(dim):
        piv = next((r for r in mat if r[col]), None)
        if piv is not None:
            pivots.append((col, piv))
            p = piv[col]
            mat = [_primitive(p * r - r[col] * piv) if r[col] else r for r in mat if r is not piv]
    return pivots


def _integer_null(rows, dim: int) -> np.ndarray | None:
    """A primitive integer vector spanning the kernel of integer rows when that is
    one-dimensional, by back substitution through their echelon form; else None."""
    pivots = _echelon(rows, dim)
    if len(pivots) != dim - 1:
        return None
    x = np.zeros(dim, dtype=object)
    x[(set(range(dim)) - {col for col, _ in pivots}).pop()] = 1
    for col, row in reversed(pivots):
        num, den = -(row @ x), row[col]
        g = math.gcd(num, den)
        x *= den // g
        x[col] = num // g
    return _primitive(x)


# -- fibers and the β-spectrum ----------------------------------------------------

class SimplexFiber(_Record):
    """Vertex description of one fiber; exact vertices when available."""

    beta: float
    vertices: list[np.ndarray]
    dimension: int
    exact: bool = False
    vertices_exact: list[tuple[Fraction, ...]] | None = None

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


def _eigen_rows(spec: DimensionGroupSpec, s: Fraction, support) -> list[np.ndarray]:
    """The primitive integer rows of ρᵀ − s·1 on the indices in support, made as
    q·Lρᵀ − p·L·1 for s = p/q from the spec's integer scaling: no Fraction arithmetic."""
    lcm, scaled = spec._scaled_transpose
    idx = np.asarray(support)
    mat = s.denominator * scaled[idx[:, None], idx]
    mat.flat[::len(idx) + 1] -= s.numerator * lcm
    return [_primitive(row) for row in mat]


def _class_singular(spec: DimensionGroupSpec, alpha: tuple[int, ...], s: Fraction) -> bool:
    """Whether the class α's own block ρᵀ_αα − s·1 is singular, exactly: ρ_aa = s for
    a class {a}, else by elimination of its rows."""
    if len(alpha) == 1:
        return spec.matrix[alpha[0]][alpha[0]] == s
    return len(_echelon(_eigen_rows(spec, s, alpha), len(alpha))) < len(alpha)


def _rational_eigenvalue(spec: DimensionGroupSpec, s_float: float) -> Fraction | None:
    """Promote a float eigenvalue candidate to an exact rational root of
    det(ρᵀ − s) = Π_α det(ρᵀ_αα − s) when that holds exactly: ρᵀ is block-triangular
    over its classes once they are ordered by access."""
    if s_float <= 0:
        return None
    for cand in {Fraction(s_float).limit_denominator(cap) for cap in (10 ** 3, 10 ** 6)}:
        if abs(float(cand) - s_float) > 1e-9 * max(1.0, s_float):
            continue
        if any(_class_singular(spec, alpha, cand) for alpha, _ in spec._classes):
            return cand
    return None


def _class_vertex(spec: DimensionGroupSpec, support: tuple[int, ...], s) -> np.ndarray | None:
    """The vertex that the class with access set ``support`` gives at s, or None:
    c > 0 spanning the null space of ρᵀ − s·1 on ``support``, 0 elsewhere, over ⟨c, u⟩.

    For a Fraction s, c is the primitive integer null vector and the vertex holds
    Fractions. For a float s, singular values ≤ 1e-9·max(1, max|M|) of the block M
    count as null, c is the last right singular vector, and that unit vector is
    positive when every entry exceeds ``FLOAT_ZERO_TOL``."""
    idx = np.asarray(support)
    if isinstance(s, Fraction):
        c = _integer_null(_eigen_rows(spec, s, idx), len(idx))
        floor, v, unit = 0, np.full(spec.rank, Fraction(0)), np.array(spec.order_unit)
    else:
        m = spec.matrix_float.T[idx[:, None], idx] - s * np.eye(len(idx))
        _, sv, vt = np.linalg.svd(m)
        null = np.count_nonzero(sv <= 1e-9 * max(1.0, float(np.max(np.abs(m)))))
        c = vt[-1] if null == 1 else None
        floor, v, unit = FLOAT_ZERO_TOL, np.zeros(spec.rank), spec.unit_float
    if c is None:
        return None
    c = -c if c[0] < 0 else c
    if not np.all(c > floor):
        return None
    v[idx] = c / (c @ unit[idx])
    return v


def fiber_simplex(spec: DimensionGroupSpec, beta: float) -> SimplexFiber:
    """The polytope of normalized positive left eigenvectors at e^{-β}: one vertex
    for each class of ρᵀ's graph that gives one (see the module docstring)."""
    if -float(beta) > _LOG_FLOAT_MAX:
        raise ValueError(f"beta = {float(beta):g}: the eigenvalue e^-β is beyond the float range")
    return _fiber_at(spec, float(beta), math.exp(-float(beta)))


def _fiber_at(spec: DimensionGroupSpec, beta: float, s_float: float) -> SimplexFiber:
    """:func:`fiber_simplex` over β, computed at the eigenvalue s_float = e^{-β} as given,
    so an eigenvalue of ρᵀ is not moved off by a round trip through its logarithm."""
    s_exact = _rational_eigenvalue(spec, s_float)
    if s_exact is None:
        s, supports = s_float, spec._access_sets
    else:   # a class gives a vertex only where its own block is singular (c_α > 0 is null there)
        s = s_exact
        supports = [sup for alpha, sup in spec._classes if _class_singular(spec, alpha, s)]
    verts = [v for v in (_class_vertex(spec, sup, s) for sup in supports) if v is not None]
    verts_exact = None
    if s_exact is None:
        verts.sort(key=lambda v: tuple(np.round(v, 9)))
    else:
        verts_exact = sorted(tuple(v) for v in verts)
        verts = [np.array([float(x) for x in v]) for v in verts_exact]
    fiber = SimplexFiber(beta=beta, vertices=verts, dimension=len(verts) - 1,
                         exact=s_exact is not None, vertices_exact=verts_exact)
    _check_fiber(spec, fiber, float(s))
    return fiber


def _check_fiber(spec: DimensionGroupSpec, fiber: SimplexFiber, s: float):
    """The vertices, stacked, against the cone, vᵀρ = s·vᵀ and ⟨v, u⟩ = 1; the first
    vertex that fails one raises the first check it fails."""
    if not fiber.vertices:
        return
    v, m, u = np.array(fiber.vertices), spec.matrix_float, spec.unit_float
    cone = (v < -1e-10).any(axis=1)
    eigen = np.abs(v @ m - s * v).max(axis=1) > 1e-9 * np.maximum(1.0, np.abs(v).max(axis=1))
    unit = np.abs(v @ u - 1.0) > 1e-9
    bad = np.flatnonzero(cone | eigen | unit)
    if bad.size:
        i = bad[0]
        raise InternalFault("fiber vertex " + ("leaves the positive cone" if cone[i] else
                                               "is not a left eigenvector" if eigen[i] else
                                               "is not normalized against the unit"))


def _spectrum_fibers(spec: DimensionGroupSpec) -> list[SimplexFiber]:
    """The nonempty fibers over positive eigenvalues s of ρᵀ, by increasing β."""
    eigs = np.linalg.eigvals(spec.matrix_float.T)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    cands = []
    for s in eigs:
        if abs(s.imag) > 1e-9 * scale or s.real <= 1e-12:
            continue
        if any(abs(s.real - c) <= 1e-9 * scale for c in cands):
            continue
        cands.append(float(s.real))
    fibers = [_fiber_at(spec, -math.log(s) + 0.0, s) for s in cands]   # + 0.0: no -0.0 at s = 1
    return sorted((f for f in fibers if not f.is_empty), key=lambda f: f.beta)


def beta_spectrum(spec: DimensionGroupSpec) -> list[float]:
    """All β = -log s over positive eigenvalues s of ρᵀ with nonempty fiber."""
    return [f.beta for f in _spectrum_fibers(spec)]


def diagonal_fiber(spec: DimensionGroupSpec, s: Fraction) -> list[tuple[Fraction, ...]]:
    """Support rule for diagonal specifications: the fiber at a diagonal
    value s is the simplex on {i : ρ_ii = s}, vertices e_i/u_i. Exact, and
    independent of the class graph and its null spaces."""
    r = spec.rank
    for i in range(r):
        for j in range(r):
            if i != j and spec.matrix[i][j] != 0:
                raise ValueError("support rule applies to diagonal matrices only")
    s = _as_fraction(s)
    verts = []
    for i in range(r):
        if spec.matrix[i][i] == s:
            v = tuple(Fraction(1, 1) / spec.order_unit[i] if j == i else Fraction(0)
                      for j in range(r))
            verts.append(v)
    return sorted(verts)


# -- one-point bundles over a finite level map ------------------------------------

class PointBundleSpec(_FrozenRecord):
    """Finitely many abstract points with a real level attached to each."""

    labels: tuple
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.levels):
            raise ValueError("labels and levels differ in length")
        if not self.labels:
            raise ValueError("need at least one point")
        object.__setattr__(self, "levels", tuple(float(t) for t in self.levels))

    @classmethod
    def from_pairs(cls, pairs) -> "PointBundleSpec":
        labels, levels = zip(*pairs)
        return cls(labels=tuple(labels), levels=tuple(levels))


def bundle_from_points(spec: PointBundleSpec, t: float) -> SimplexFiber:
    """Fiber at t: the probability simplex on the level set {f = t} (within
    1e-9·max(1, |t|)), with Dirac masses (indicator vectors) as vertices."""
    n = len(spec.labels)
    sel = [i for i, lv in enumerate(spec.levels) if abs(lv - float(t)) <= 1e-9 * max(1.0, abs(t))]
    verts_exact = [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in sel]
    verts = [np.array([float(x) for x in v]) for v in verts_exact]
    return SimplexFiber(beta=float(t), vertices=verts, dimension=len(sel) - 1,
                        exact=True, vertices_exact=verts_exact)


# -- self-similar measures on the half-line ----------------------------------------

class Atom(_FrozenRecord):
    point: float


class Interval(_FrozenRecord):
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise ValueError("need 0 ≤ lo ≤ hi")


def as_set(b):
    """Coerce a plain (lo, hi) pair or number into Interval/Atom."""
    if isinstance(b, (Atom, Interval)):
        return b
    if isinstance(b, (int, float)):
        return Atom(float(b))
    lo, hi = b
    return Interval(float(lo), float(hi))


def scale_set(b, factor: float):
    b = as_set(b)
    if isinstance(b, Atom):
        return Atom(b.point * factor)
    return Interval(b.lo * factor, b.hi * factor)


class ScalingMeasure(_FrozenRecord):
    """A measure on [0, ∞) with μ(λB) = e^{-β} μ(B).

    kinds: "density" t^α dt with α = -β/log λ - 1 (needs β ≤ 0);
    "atomic" with atoms e^{kβ} at λ^{-k}x over a finite window |k| ≤ K;
    "dirac0", the β = 0 collapse of the atomic family. Atomic queries that
    leave the window return None — an explicit out-of-window marker, never
    a silent 0. With exact λ and e^β supplied as fractions the atomic
    arithmetic is exact.
    """

    kind: str
    lam: float
    beta: float
    x: float = 1.0
    window: int = 0
    lam_exact: Fraction | None = None
    base_exact: Fraction | None = None      # e^β as an exact rational, if any
    x_exact: Fraction | None = None

    @property
    def alpha(self) -> float:
        return -self.beta / math.log(self.lam) - 1.0

    def measure_of(self, b) -> float | Fraction | None:
        b = as_set(b)
        if self.kind == "density":
            return self._density_measure(b)
        if self.kind == "dirac0":
            if isinstance(b, Atom):
                return 1.0 if b.point == 0.0 else 0.0
            return 1.0 if b.lo == 0.0 else 0.0
        return self._atomic_measure(b)

    def _density_measure(self, b) -> float:
        if isinstance(b, Atom):
            return 0.0
        a, c, al = b.lo, b.hi, self.alpha
        if a == c:
            return 0.0
        if al <= -1.0 and a == 0.0:
            raise ValueError("density t^α is not integrable at 0 for α ≤ -1")
        if abs(al + 1.0) < 1e-14:
            return math.log(c / a)
        try:
            mass = (c ** (al + 1.0) - a ** (al + 1.0)) / (al + 1.0)
        except OverflowError:
            mass = math.inf
        if not math.isfinite(mass):
            raise ValueError(f"sets: the t^α mass of [{a:g}, {c:g}] is beyond the float range")
        return mass

    def _exact_mode(self) -> bool:
        return (self.lam_exact is not None and self.base_exact is not None
                and self.x_exact is not None)

    def _atom_positions(self):
        x, lam = (self.x_exact, self.lam_exact) if self._exact_mode() else (self.x, self.lam)
        return {k: x * lam ** (-k) for k in range(-self.window, self.window + 1)}

    def _weight(self, k: int):
        return self.base_exact ** k if self._exact_mode() else math.exp(k * self.beta)

    def _coverage(self) -> tuple[float, float]:
        lo = self.x * self.lam ** (-self.window)
        hi = self.x * self.lam ** self.window
        guard = math.sqrt(self.lam)
        return lo / guard, hi * guard

    def _atomic_measure(self, b) -> float | Fraction | None:
        cov_lo, cov_hi = self._coverage()
        pos = self._atom_positions()
        if isinstance(b, Atom):
            p = b.point
            if not (cov_lo <= p <= cov_hi):
                return None
            for k, q in pos.items():
                qf = float(q)
                if abs(p - qf) <= 1e-12 * max(1.0, qf):
                    return self._weight(k)
            return Fraction(0) if self._exact_mode() else 0.0
        if b.lo < cov_lo or b.hi > cov_hi:
            return None
        total = Fraction(0) if self._exact_mode() else 0.0
        for k, q in pos.items():
            if b.lo <= float(q) <= b.hi:
                total += self._weight(k)
        return total


def scaling_measure(lam: float, beta: float, kind: str = "density", x: float = 1.0,
                    window: int = 8, lam_exact=None, base_exact=None,
                    x_exact=None) -> ScalingMeasure:
    """Construct the self-similar measure; see :class:`ScalingMeasure`.

    λ must exceed 1 (flip λ → 1/λ, β → -β otherwise). Densities require
    β < 0, except β = 0 which is the scale-invariant dt/t away from the
    origin; β > 0 forces pure point mass at 0, so asking for a density
    there is an error. Atomic measures at β = 0 collapse to the Dirac
    mass at 0 and are returned as such.
    """
    lam, beta = float(lam), float(beta)
    if lam <= 1.0:
        raise ValueError("need λ > 1 (substitute λ → 1/λ, β → -β to normalize)")
    if kind == "density":
        if beta > 0:
            raise ValueError("no density on (0, ∞) satisfies the scaling relation "
                             "at β > 0; the only candidates concentrate at 0")
        if -beta > _LOG_FLOAT_MAX:
            raise ValueError(f"beta = {beta:g}: the scaling factor e^-β is beyond the float range")
        return ScalingMeasure(kind="density", lam=lam, beta=beta)
    if kind == "atomic":
        if x <= 0:
            raise ValueError("base point x must be positive")
        if window < 0:
            raise ValueError("window must be ≥ 0")
        if beta == 0.0:
            return ScalingMeasure(kind="dirac0", lam=lam, beta=0.0)
        log_lam = math.log(lam)
        if max(window * log_lam, math.log(x) + (window + 0.5) * log_lam) >= _LOG_FLOAT_MAX:
            raise ValueError(f"window {window} at lam = {lam:g}: the atoms x·λ^k and their "
                             "coverage are beyond the float range")
        if max(window, 1) * abs(beta) > _LOG_FLOAT_MAX:
            raise ValueError(f"beta = {beta:g} over window {window}: the atom weights e^(kβ) "
                             "are beyond the float range")
        le, be, xe = (None if v is None else _as_fraction(v)
                      for v in (lam_exact, base_exact, x_exact))
        # compared in logs to a relative 1e-12, so no exact value is turned into a float
        for name, exact, log_value, what in (("lam_exact", le, log_lam, "lam"),
                                             ("base_exact", be, beta, "e^β"),
                                             ("x_exact", xe, math.log(x), "x")):
            if exact is not None and not (exact > 0 and abs(
                    math.log(exact.numerator) - math.log(exact.denominator) - log_value) <= 1e-12):
                raise ValueError(f"{name} disagrees with {what}")
        return ScalingMeasure(kind="atomic", lam=lam, beta=beta, x=float(x),
                              window=int(window), lam_exact=le, base_exact=be, x_exact=xe)
    raise ValueError(f"unknown kind {kind!r}")


class ScalingCheckReport(_Record):
    max_residual: float
    checked: int
    out_of_window: int
    exact: bool


def verify_scaling(mu: ScalingMeasure, test_sets) -> ScalingCheckReport:
    """Max |μ(λB) − e^{-β} μ(B)| over the given sets; out-of-window queries
    are counted separately rather than folded into the maximum."""
    factor_exact = (1 / mu.base_exact) if mu._exact_mode() else None
    factor = math.exp(-mu.beta)
    worst = Fraction(0) if mu._exact_mode() else 0.0
    checked = skipped = 0
    for b in test_sets:
        lhs = mu.measure_of(scale_set(b, mu.lam))
        rhs = mu.measure_of(b)
        if lhs is None or rhs is None:
            skipped += 1
            continue
        checked += 1
        if factor_exact is not None and isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            worst = max(worst, abs(lhs - factor_exact * rhs))
        else:
            worst = max(float(worst), abs(float(lhs) - factor * float(rhs)))
    return ScalingCheckReport(max_residual=float(worst), checked=checked,
                              out_of_window=skipped, exact=mu._exact_mode())


# -- brute finite-dimensional bundle over a β grid ----------------------------------

class BundleCertificate(_Record):
    all_nonempty: bool
    vertex_counts: list[int]
    lipschitz_bound: float          # 2‖h‖₂ = 2·max|λ| over the flow's eigenvalues
    max_step_deviation: float       # worst ‖ρ(β')-ρ(β)‖₂ / (bound·|β'-β|) over the vertices
    ok: bool


class _BundleFibers(Sequence):
    """:func:`kms_bundle_fd`'s fibers, read-only: fiber s is built on its first read, by
    :func:`~kmslab.kms._simplex_at` from the call's Boltzmann factors e_s and traces t_s,
    vertex i's block being (u_i·diag(e_s))·u_i*/t_s — the block :func:`kms_simplex` makes
    at β_s, bit for bit — and kept here; nothing is kept on the flow. Threads that read one
    fiber first at once may each build it; the builds are equal, and one of them is kept."""

    def __init__(self, flow: InnerFlow, betas: list[float], factors: list[np.ndarray],
                 traces: np.ndarray):
        self._flow, self._betas, self._factors, self._traces = flow, betas, factors, traces
        self._built = [None] * len(betas)

    def __len__(self) -> int:
        return len(self._betas)

    def __getitem__(self, s):
        if isinstance(s, slice):
            return [self[i] for i in range(*s.indices(len(self)))]
        fiber = self._built[s]                  # an index out of range raises here
        if fiber is None:
            flow = self._flow
            blocks = [(u * e[s]) @ u.conj().T / t
                      for u, e, t in zip(flow.eigenvectors, self._factors, self._traces[s])]
            fiber = self._built[s] = _simplex_at(flow, self._betas[s], blocks)
        return fiber


def kms_bundle_fd(flow: InnerFlow, beta_grid) -> tuple[Sequence[KmsSimplex], BundleCertificate]:
    """Equilibrium simplices over a β grid plus a properness certificate:
    every fiber nonempty with the expected vertex count, and vertex
    densities moving no faster than the mean-value bound 2‖h‖₂ allows.

    The call reads only the (S, n) Boltzmann weights of :func:`_boltzmann_factors`; it
    builds no block and no state. Vertex i at β is u·diag(p_β)·u* on block i, p_β its
    normalized Boltzmann weights, so its mass is Σ_j p_j·‖u_j‖² (tested by β, then by
    block, as :func:`~kmslab.kms.simplex_sweep` does), its step deviation is
    max_k |p_β'(λ_k) − p_β(λ_k)|, and ‖h‖₂ is max|λ|: no SVD is taken (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 3). Every fiber has B vertices,
    one per block. The fibers come back as a read-only sequence whose fiber s is built
    when it is first read, equal bit for bit to ``kms_simplex(flow, β_s)``.
    """
    betas = [float(b) for b in beta_grid]
    if len(betas) < 2:
        raise ValueError("need at least two grid points")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("grid must be strictly increasing")
    factors, traces, weights = _boltzmann_factors(flow, betas)
    _check_vertex_masses(weights, _column_norms(flow))
    bound = 2.0 * flow.generator_norm
    worst = 0.0
    if bound > 0:
        steps = np.diff(betas)[:, None]
        dists = np.stack([np.abs(p[:-1] - p[1:]).max(axis=1) for p in weights], axis=1)
        worst = float(np.max(dists / (bound * steps)))     # NaN propagates
    counts = [flow.algebra.num_blocks] * len(betas)
    return _BundleFibers(flow, betas, factors, traces), BundleCertificate(
        all_nonempty=True, vertex_counts=counts, lipschitz_bound=bound,
        max_step_deviation=worst, ok=worst <= 1.0 + 1e-9)
