"""Simplex bundles: which β admit equilibrium, and what the fiber is.

For a dimension-group style specification (a cone-preserving rational
matrix ρ with an order unit u) the fiber over β is the polytope

    { c ≥ 0 : cᵀρ = e^{-β} cᵀ, ⟨c, u⟩ = 1 },

enumerated by a double-description sweep: start from the orthant's
extreme rays, intersect one equality at a time combining opposite-sign
ray pairs, and keep exactly the rays whose tight constraints have rank
dim−1. When e^{-β} is (certifiably) a rational eigenvalue the whole sweep
runs in integers (primitive rows, coprime rays) and the vertices come out
as exact fractions; otherwise it runs in floats with relative tolerances.
Diagonal specifications admit a one-line support rule, the cross-check.

The same file holds the degenerate one-point bundles (Dirac simplices on
level sets), self-similar measures on the half-line with their scaling
check, and the brute finite-dimensional bundle certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .flow import InnerFlow
from .kms import KmsSimplex, _boltzmann_stack, _simplex_at

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
        fr = Fraction(x).limit_denominator(10 ** 9)
        if abs(float(fr) - x) > 1e-12 * max(1.0, abs(x)):
            raise ValueError(f"{x!r} is not recognizably rational; pass a Fraction or string")
        return fr
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


@dataclass(frozen=True)
class DimensionGroupSpec:
    """A cone-preserving rational matrix with a strictly positive unit."""

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
        if _rank_exact(mat, r) < r:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "order_unit", unit)

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def matrix_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.matrix])

    def unit_float(self) -> np.ndarray:
        return np.array([float(u) for u in self.order_unit])

    @functools.cached_property
    def _scaled_transpose(self) -> tuple[int, np.ndarray]:
        """L, the lcm of ρ's denominators, and [L·ρᵀ | 0]: Python ints in an
        r × (r + 1) object array, row j being L times column j of ρ."""
        lcm = math.lcm(*(x.denominator for row in self.matrix for x in row))
        r = self.rank
        cols = [[self.matrix[i][j].numerator * (lcm // self.matrix[i][j].denominator)
                 for i in range(r)] + [0] for j in range(r)]
        return lcm, np.array(cols, dtype=object)


# -- exact linear algebra: rationals become integers once --------------------------

def _primitive(v: np.ndarray) -> np.ndarray:
    """An integer object array divided by its entries' gcd, as is when that is 0 or 1."""
    g = math.gcd(*v)
    return v // g if g > 1 else v


def _integer_row(xs) -> np.ndarray:
    """A rational row (ints, Fractions or exact floats) scaled by the lcm of its
    denominators: a primitive integer row on the same hyperplane."""
    ratios = [x.as_integer_ratio() if isinstance(x, float)
              else (int(x.numerator), int(x.denominator)) for x in xs]
    lcm = math.lcm(*(d for _, d in ratios))
    return _primitive(np.array([n * (lcm // d) for n, d in ratios], dtype=object))


def _integer_rank(rows, dim: int) -> int:
    """Rank of integer rows over ℚ: fraction-free elimination, combined rows made primitive."""
    mat, rank = list(rows), 0
    for col in range(dim):
        piv = next((r for r in mat if r[col]), None)
        if piv is not None:
            rank += 1
            p = piv[col]
            mat = [_primitive(p * r - r[col] * piv) if r[col] else r for r in mat if r is not piv]
    return rank


def _rank_exact(rows, dim: int) -> int:
    """Rank of rational rows over ℚ."""
    return _integer_rank([_integer_row(r) for r in rows], dim)


# -- double description: one sweep, an exact and a float lane ---------------------

def _tight_rank_exact(rows, zeros: list[int], dim: int) -> int:
    """Rank of the integer rows with the unit rows e_i, i in zeros: each e_i adds one
    and clears column i, so only the other columns of the rows are eliminated."""
    keep = [j for j in range(dim) if j not in zeros]
    return len(zeros) + _integer_rank([row[keep] for row in rows], len(keep))


class _Lane(NamedTuple):
    """What the exact and float sweeps do differently; the rest is shared."""

    zero: float             # a coordinate x counts as zero when |x| ≤ zero
    vector: Callable        # numbers → a row or ray
    tol: Callable           # row → a ray g lies on the row's hyperplane when |row·g| ≤ tol
    is_zero: Callable       # ray → whether it vanishes
    normalize: Callable     # ray → the same ray at its canonical scale
    key: Callable           # normalized ray → its dedupe key
    rank: Callable          # (rows, zeroed coordinates i, dim) → rank of the rows and the e_i


# exact: Python ints in object arrays, primitive rows and coprime rays, every test exact
_EXACT = _Lane(zero=0, vector=_integer_row, tol=lambda row: 0,
               is_zero=lambda ray: not any(ray), normalize=_primitive, key=tuple,
               rank=_tight_rank_exact)
# float: unit-norm rays, tolerances relative to the row, rays that agree to
# 8 decimals at max-norm 1 are one
_FLOAT = _Lane(zero=FLOAT_ZERO_TOL, vector=lambda xs: np.array(xs, dtype=float),
               tol=lambda row: FLOAT_ZERO_TOL * max(1.0, float(np.max(np.abs(row)))),
               is_zero=lambda ray: np.linalg.norm(ray) < FLOAT_ZERO_TOL,
               normalize=lambda v: v / np.linalg.norm(v),
               key=lambda ray: tuple(np.round(ray / np.max(np.abs(ray)), 8)),
               rank=lambda rows, zeros, dim: np.linalg.matrix_rank(
                   np.vstack([*rows, np.eye(dim)[zeros]]), tol=1e-9))


def _dd_cone(rows: list[np.ndarray], dim: int, lane: _Lane) -> list[np.ndarray]:
    """Extreme rays of {x ≥ 0 : row·x = 0 for every row}, one row at a time.

    Rays on the new hyperplane stay; each pair of rays on opposite sides
    (values vp > 0 at g₊, vm < 0 at g₋) gives the candidate vp·g₋ − vm·g₊
    on it. A ray survives when its tight constraints, the rows so far plus
    the coordinates it zeroes, have rank dim − 1.
    """
    rays = [lane.vector(e) for e in np.eye(dim)]
    seen: list[np.ndarray] = []
    for row in rows:
        tol = lane.tol(row)
        vals = [row @ g for g in rays]
        zero = [g for g, v in zip(rays, vals) if abs(v) <= tol]
        plus = [(g, v) for g, v in zip(rays, vals) if v > tol]
        minus = [(g, v) for g, v in zip(rays, vals) if v < -tol]
        fresh = [lane.normalize(vp * gm - vm * gp) for gp, vp in plus for gm, vm in minus]
        seen.append(row)
        kept: dict[tuple, np.ndarray] = {}
        for ray in zero + fresh:
            if lane.is_zero(ray):
                continue
            # a no-op on exact rays; float rays and their keys take their bits from it
            ray = lane.normalize(ray)
            key = lane.key(ray)
            if key in kept:
                continue
            zeros = [i for i in range(dim) if abs(ray[i]) <= lane.zero]
            if lane.rank(seen, zeros, dim) == dim - 1:
                kept[key] = ray
        rays = list(kept.values())
        if not rays:
            return []
    return rays


# -- fibers and the β-spectrum ----------------------------------------------------

@dataclass
class SimplexFiber:
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


def _eigen_rows(spec: DimensionGroupSpec, s: Fraction) -> list[np.ndarray]:
    """The primitive integer rows of [ρᵀ − s·1 | 0], made as q·[Lρᵀ | 0] − p·L·1
    for s = p/q from the spec's integer scaling: no Fraction arithmetic."""
    lcm, scaled = spec._scaled_transpose
    mat = s.denominator * scaled
    mat[np.diag_indices(spec.rank)] -= s.numerator * lcm
    return [_primitive(row) for row in mat]


def _rational_eigenvalue(spec: DimensionGroupSpec, s_float: float) -> Fraction | None:
    """Promote a float eigenvalue candidate to an exact rational root of
    det(ρᵀ − s) when that holds exactly."""
    if s_float <= 0:
        return None
    for cand in {Fraction(s_float).limit_denominator(cap) for cap in (10 ** 3, 10 ** 6)}:
        if abs(float(cand) - s_float) > 1e-9 * max(1.0, s_float):
            continue
        # the rows' last column is 0, so the rank over the first r is the rank of ρᵀ − s
        if _integer_rank(_eigen_rows(spec, cand), spec.rank) < spec.rank:
            return cand
    return None


def _fiber_rows(spec: DimensionGroupSpec, s, lane: _Lane) -> list[np.ndarray]:
    """The fiber as the cone {(c, t) ≥ 0} cut by (cᵀρ)_j = s·c_j and ⟨c, u⟩ = t;
    on the exact lane s is a Fraction and the rows primitive integer rows."""
    if lane is _EXACT:
        rows = _eigen_rows(spec, s)
    else:
        r = spec.rank
        rows = list(np.hstack([spec.matrix_float().T - s * np.eye(r), np.zeros((r, 1))]))
    return rows + [lane.vector(list(spec.order_unit) + [-1])]


def fiber_simplex(spec: DimensionGroupSpec, beta: float) -> SimplexFiber:
    """The polytope of normalized positive left eigenvectors at e^{-β}."""
    s_float = math.exp(-float(beta))
    s_exact = _rational_eigenvalue(spec, s_float)
    lane, s = (_FLOAT, s_float) if s_exact is None else (_EXACT, s_exact)
    # bounded polytope: only rays with t > 0 can appear
    rays = [ray for ray in _dd_cone(_fiber_rows(spec, s, lane), spec.rank + 1, lane)
            if ray[-1] > lane.zero]
    if s_exact is None:
        verts = [ray[:-1] / ray[-1] for ray in rays]
        verts.sort(key=lambda v: tuple(np.round(v, 9)))
        fiber = SimplexFiber(beta=float(beta), vertices=verts,
                             dimension=_affine_dim(verts), exact=False)
    else:
        verts_exact = sorted(tuple(Fraction(x, ray[-1]) for x in ray[:-1]) for ray in rays)
        verts = [np.array([float(x) for x in v]) for v in verts_exact]
        fiber = SimplexFiber(beta=float(beta), vertices=verts,
                             dimension=_affine_dim(verts), exact=True,
                             vertices_exact=verts_exact)
    _check_fiber(spec, fiber, s_float)
    return fiber


def _affine_dim(verts: list[np.ndarray]) -> int:
    if not verts:
        return -1
    if len(verts) == 1:
        return 0
    diffs = np.array([v - verts[0] for v in verts[1:]])
    return int(np.linalg.matrix_rank(diffs, tol=1e-9))


def _check_fiber(spec: DimensionGroupSpec, fiber: SimplexFiber, s: float):
    m = spec.matrix_float()
    u = spec.unit_float()
    for v in fiber.vertices:
        if np.any(v < -1e-10):
            raise AssertionError("fiber vertex leaves the positive cone")
        if np.max(np.abs(v @ m - s * v)) > 1e-9 * max(1.0, float(np.max(np.abs(v)))):
            raise AssertionError("fiber vertex is not a left eigenvector")
        if abs(float(v @ u) - 1.0) > 1e-9:
            raise AssertionError("fiber vertex is not normalized against the unit")


def _spectrum_fibers(spec: DimensionGroupSpec) -> list[SimplexFiber]:
    """The nonempty fibers over positive eigenvalues s of ρᵀ, by increasing β."""
    eigs = np.linalg.eigvals(spec.matrix_float().T)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    cands = []
    for s in eigs:
        if abs(s.imag) > 1e-9 * scale or s.real <= 1e-12:
            continue
        if any(abs(s.real - c) <= 1e-9 * scale for c in cands):
            continue
        cands.append(float(s.real))
    fibers = [fiber_simplex(spec, -math.log(s) + 0.0) for s in cands]   # + 0.0: no -0.0 at s = 1
    return sorted((f for f in fibers if not f.is_empty), key=lambda f: f.beta)


def beta_spectrum(spec: DimensionGroupSpec) -> list[float]:
    """All β = -log s over positive eigenvalues s of ρᵀ with nonempty fiber."""
    return [f.beta for f in _spectrum_fibers(spec)]


def diagonal_fiber(spec: DimensionGroupSpec, s: Fraction) -> list[tuple[Fraction, ...]]:
    """Support rule for diagonal specifications: the fiber at a diagonal
    value s is the simplex on {i : ρ_ii = s}, vertices e_i/u_i. Exact, and
    entirely independent of the double-description sweep."""
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

@dataclass(frozen=True)
class PointBundleSpec:
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


def bundle_from_points(spec: PointBundleSpec, t: float, tol: float = 1e-9) -> SimplexFiber:
    """Fiber at t: the probability simplex on the level set {f = t},
    with Dirac masses (indicator vectors) as vertices."""
    n = len(spec.labels)
    sel = [i for i, lv in enumerate(spec.levels) if abs(lv - float(t)) <= tol * max(1.0, abs(t))]
    verts_exact = [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in sel]
    verts = [np.array([float(x) for x in v]) for v in verts_exact]
    return SimplexFiber(beta=float(t), vertices=verts, dimension=len(sel) - 1,
                        exact=True, vertices_exact=verts_exact)


# -- self-similar measures on the half-line ----------------------------------------

@dataclass(frozen=True)
class Atom:
    point: float


@dataclass(frozen=True)
class Interval:
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


@dataclass(frozen=True)
class ScalingMeasure:
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
        return (c ** (al + 1.0) - a ** (al + 1.0)) / (al + 1.0)

    def _exact_mode(self) -> bool:
        return (self.lam_exact is not None and self.base_exact is not None
                and self.x_exact is not None)

    def _atom_positions(self):
        if self._exact_mode():
            return {k: self.x_exact * self.lam_exact ** (-k)
                    for k in range(-self.window, self.window + 1)}
        return {k: self.x * self.lam ** (-k)
                for k in range(-self.window, self.window + 1)}

    def _weight(self, k: int):
        if self._exact_mode():
            return self.base_exact ** k
        return math.exp(k * self.beta)

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
        return ScalingMeasure(kind="density", lam=lam, beta=beta)
    if kind == "atomic":
        if x <= 0:
            raise ValueError("base point x must be positive")
        if window < 0:
            raise ValueError("window must be ≥ 0")
        if beta == 0.0:
            return ScalingMeasure(kind="dirac0", lam=lam, beta=0.0)
        le = _as_fraction(lam_exact) if lam_exact is not None else None
        be = _as_fraction(base_exact) if base_exact is not None else None
        xe = _as_fraction(x_exact) if x_exact is not None else None
        if le is not None and abs(float(le) - lam) > 1e-12 * lam:
            raise ValueError("lam_exact disagrees with lam")
        if be is not None and abs(float(be) - math.exp(beta)) > 1e-12 * math.exp(beta):
            raise ValueError("base_exact disagrees with e^β")
        return ScalingMeasure(kind="atomic", lam=lam, beta=beta, x=float(x),
                              window=int(window), lam_exact=le, base_exact=be, x_exact=xe)
    raise ValueError(f"unknown kind {kind!r}")


@dataclass
class ScalingCheckReport:
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

@dataclass
class BundleCertificate:
    all_nonempty: bool
    vertex_counts: list[int]
    lipschitz_bound: float          # 2‖h‖, a rigorous derivative bound
    max_step_deviation: float       # worst ‖ρ(β')-ρ(β)‖ / (bound·|β'-β|)
    ok: bool


def kms_bundle_fd(flow: InnerFlow, beta_grid) -> tuple[list[KmsSimplex], BundleCertificate]:
    """Equilibrium simplices over a β grid plus a properness certificate:
    every fiber nonempty with the expected vertex count, and vertex
    densities moving no faster than the mean-value bound 2‖h‖ allows.

    The whole grid comes from one stack of Boltzmann blocks. Vertex i at β
    differs from vertex i at the next β in block i only, so each block's step
    deviations are one batched spectral norm over its stack of differences.
    """
    betas = [float(b) for b in beta_grid]
    if len(betas) < 2:
        raise ValueError("need at least two grid points")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("grid must be strictly increasing")
    mats, traces = _boltzmann_stack(flow, betas)
    verts = [m / t[:, None, None] for m, t in zip(mats, traces.T)]
    simplices = [_simplex_at(flow, b, [v[s] for v in verts]) for s, b in enumerate(betas)]
    bound = 2.0 * flow.generator.norm()
    worst = 0.0
    if bound > 0:
        steps = np.diff(betas)[:, None]
        dists = np.stack([np.linalg.norm(v[:-1] - v[1:], 2, axis=(1, 2)) for v in verts], axis=1)
        worst = float(np.max(dists / (bound * steps)))     # NaN propagates
    counts = [len(s.vertices) for s in simplices]
    expected = flow.algebra.num_blocks
    ok = all(c == expected for c in counts) and worst <= 1.0 + 1e-9
    return simplices, BundleCertificate(all_nonempty=all(c > 0 for c in counts),
                                        vertex_counts=counts, lipschitz_bound=bound,
                                        max_step_deviation=worst, ok=ok)
