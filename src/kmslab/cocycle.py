"""Phase 2-cocycles on a uniform ℝ-grid and their trivialization.

A grid cocycle is a table λ(s, t) of unimodular values on
[-R, R]² ∩ δℤ², normalized along the axes and satisfying the associativity
identity λ(s,t)λ(s+t,u) = λ(t,u)λ(s,t+u) on in-range triples (up to a
declared defect). ``trivialize`` produces a 1-cochain μ with coboundary
∂μ(s,t) = μ(s)μ(t)·conj(μ(s+t)) matching λ up to O(δ):

1. rescale by the largest ε = 2^-m keeping λ within distance 2^-½ of 1 on
   the unit square (pure index relabeling; steps must be powers of 1/2);
2. develop a cochain μ⁰ segment by segment so λ¹ = ∂μ⁰·λ is 1-periodic in
   its first slot;
3. average the phase of λ¹ over one period (trapezoid rule) and absorb it
   into μ¹, flattening λ² = conj(∂μ¹)·λ¹ to 1 on half the square;
4. relabel the half square to a full one and develop once more (μ²).

Unwinding gives μ = conj(μ⁰)·μ¹·conj(μ²) at the original grid indices.
The usable window shrinks by roughly one rescaled unit per development
stage; pairs that fall outside are counted, never silently dropped.

A unimodularity failure is an error when the grid is built. The
associativity identity is checked after the stages, on the μ they return.
When μ spans the whole grid and the window is full or the ``coboundary_of``
mask, the errors |λ − ∂μ̃| of a triple's four pairs bound its residual, so an
O(K²) certificate covers every in-range triple at once; where that bound is
too loose, only the triples that read a pair beyond its reach are evaluated,
and a refusal is read off them (see ``trivialize``). Otherwise the exhaustive
O(K³) scan ``check_cocycle`` runs. A failure beyond the allowed defect is an
error on every route, and it takes precedence over a stage's own error — a
near-(-1) value of λ¹, for one, since the principal phase branch would be
meaningless there.

At the K the grids here reach, the stages cost numpy calls more than arithmetic, so
each does its table work in a fixed handful of array operations (see ``_stages``).
The local refusal reads the four lines of triples through each bad pair, cut by the
range test.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .algebra import InternalFault, _Fresh, _Record

BRANCH_MARGIN = 1e-6
MODULUS_TOL = 1e-12
DEFECT_FACTOR = 10.0
#: entries per tile of the associativity scan in ``check_cocycle`` and of the final table
#: of ``_stages``
TILE_ENTRIES = 2 ** 15
#: what one triple of the local refusal weighs against a scan triple: its line holds
#: out-of-range triples too, and it gathers four values through four index arrays
_CANDIDATE_COST = 4
#: unit roundoff of IEEE double precision
_U = 2.0 ** -53


def _axis_defect(values: np.ndarray, win: np.ndarray, k: int) -> float:
    """max |λ − 1| over the in-window entries of the axes λ(0,·) and λ(·,0)."""
    row = np.abs(values[k, :][win[k, :]] - 1.0)
    col = np.abs(values[:, k][win[:, k]] - 1.0)
    return float(max(row.max() if row.size else 0.0, col.max() if col.size else 0.0))


def _half_index(step: float, half_range: float) -> int:
    """K = half_range/step, refusing sizes that give no finite K: a step or half-range
    that is NaN, infinite, subnormal or an integer past the float range, a step that is
    not positive, and a ratio that overflows. A half-range that is no positive multiple
    of the step is refused last."""
    for name, value in (("step", step), ("half_range", half_range)):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if not math.isfinite(x) or 0.0 < abs(x) < sys.float_info.min:
            raise ValueError(f"{name} must be a finite normal number, got {value}")
    step, half_range = float(step), float(half_range)
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    ratio = half_range / step
    if not math.isfinite(ratio):
        raise ValueError(f"half_range/step overflows: {half_range}/{step}")
    k = round(ratio)
    if k < 1 or abs(k * step - half_range) > 1e-9:
        raise ValueError("half_range must be a positive multiple of step")
    return k


class CocycleGrid(_Record):
    """Unimodular λ on the index square [-K, K]², K = half_range/step."""

    step: float
    half_range: float
    values: np.ndarray
    in_window: np.ndarray | None = None

    def __post_init__(self):
        k = _half_index(self.step, self.half_range)
        self.step = float(self.step)
        self.half_range = float(self.half_range)
        self.half_index_count = k
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (2 * k + 1, 2 * k + 1):
            raise ValueError(f"values must be {(2 * k + 1, 2 * k + 1)}, got {vals.shape}")
        self.values = vals
        if self.in_window is None:
            self.in_window = win = np.ones(vals.shape, dtype=bool)
            where = True                            # a full window reduces unmasked
        else:
            self.in_window = win = where = np.asarray(self.in_window, dtype=bool)
            if win.shape != vals.shape:
                raise ValueError("window mask shape mismatch")
        dev = np.abs(vals)
        np.subtract(dev, 1.0, out=dev)
        bad = np.max(np.abs(dev, out=dev), where=where, initial=0.0)
        if not bad <= MODULUS_TOL:                  # NaN fails too
            raise ValueError(f"values are not unimodular (worst defect {bad:.3e})")
        norm_bad = _axis_defect(vals, win, k)
        if norm_bad > MODULUS_TOL:
            raise ValueError(f"cocycle not normalized: λ(·,0) or λ(0,·) differs "
                             f"from 1 by {norm_bad:.3e}")

    def lam(self, i: int, j: int) -> complex | None:
        k = self.half_index_count
        if abs(i) > k or abs(j) > k or not self.in_window[i + k, j + k]:
            return None
        return complex(self.values[i + k, j + k])


class Cochain(_Record):
    """Unimodular μ on [-R, R] ∩ δℤ with μ(0) = 1."""

    step: float
    half_range: float
    values: np.ndarray

    def __post_init__(self):
        k = _half_index(self.step, self.half_range)
        self.step = float(self.step)
        self.half_range = float(self.half_range)
        self.half_index_count = k
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (2 * k + 1,):
            raise ValueError(f"values must have length {2 * k + 1}")
        self.values = vals
        if not np.max(np.abs(np.abs(vals) - 1.0)) <= MODULUS_TOL:
            raise ValueError("cochain values are not unimodular")
        if abs(vals[k] - 1.0) > MODULUS_TOL:
            raise ValueError("cochain must satisfy μ(0) = 1")


class CocycleReport(_Record):
    """Associativity check of a grid. On the ``"scan"`` route the identity residual is
    the measured maximum; on ``"certificate"`` it is an upper bound (``trivialize``)."""

    max_identity_residual: float
    max_normalization_residual: float
    checked: int
    skipped: int
    step: float
    half_range: float
    route: str = "scan"


def check_cocycle(grid: CocycleGrid) -> CocycleReport:
    """Exhaustive associativity scan over all in-range triples.

    A triple (i, j, l) is in range when every entry the identity touches
    — (i,j), (i+j,l), (j,l), (i,j+l) — lies on the grid; triples that are
    in range but hit a masked entry are counted as skipped. The second
    residual measures the normalization λ(0,·) = λ(·,0) = 1.

    For fixed j the in-range pairs (i, l) form the square I×I with
    I = [max(-K, -K-j), min(K, K-j)], and each factor is a plain slice of
    the table: λ(i,j) a column, λ(j,l) a row, λ(i+j,l) and λ(i,j+l) row
    blocks. The scan takes the rows i in tiles of TILE_ENTRIES // (2K+1)
    (at least one) and runs every j over each tile, so the rows it reads
    stay in cache from one j to the next. Beyond the table it holds three
    tile buffers of max(TILE_ENTRIES, 2K+1) entries, at most (2K+1)² (two
    complex, one real; a fourth, boolean, for masked grids) and no
    per-triple temporaries.
    """
    k = grid.half_index_count
    v, win = grid.values, grid.in_window
    norm_bad = _axis_defect(v, win, k)
    full = bool(win.all())
    outside = ~win
    size = 2 * k + 1
    cap = min(max(TILE_ENTRIES, size), size * size)
    left, right = np.empty(cap, dtype=complex), np.empty(cap, dtype=complex)
    resid = np.empty(cap)
    skip = np.empty(cap, dtype=bool)
    worst = 0.0
    total = checked = 0
    rows = cap // size
    for t0 in range(0, size, rows):                      # tile of rows i + K
        for j in range(-k, k + 1):
            lo, hi = max(-k, -k - j) + k, min(k, k - j) + k + 1     # I + K, as a slice
            i0, i1 = max(t0, lo), min(t0 + rows, hi)
            if i0 >= i1:
                continue
            shape = (i1 - i0, hi - lo)
            n = shape[0] * shape[1]
            total += n
            a, b = left[:n].reshape(shape), right[:n].reshape(shape)
            r, m = resid[:n].reshape(shape), skip[:n].reshape(shape)
            # λ(i,j)·λ(i+j,l) − λ(j,l)·λ(i,j+l), in the operand order of the identity
            np.multiply(v[i0:i1, j + k, None], v[i0 + j:i1 + j, lo:hi], out=a)
            np.multiply(v[j + k, lo:hi], v[i0:i1, lo + j:hi + j], out=b)
            np.subtract(a, b, out=a)
            np.abs(a, out=r)
            if not full:
                np.logical_or(outside[i0:i1, j + k, None], outside[i0 + j:i1 + j, lo:hi], out=m)
                np.logical_or(m, outside[j + k, lo:hi], out=m)
                np.logical_or(m, outside[i0:i1, lo + j:hi + j], out=m)
                np.copyto(r, 0.0, where=m)
                checked += n - int(np.count_nonzero(m))
            worst = max(worst, float(r.max()))
    if full:
        checked = total
    return CocycleReport(max_identity_residual=worst, max_normalization_residual=norm_bad,
                         checked=checked, skipped=total - checked,
                         step=grid.step, half_range=grid.half_range)


def coboundary_of(chain: Cochain) -> CocycleGrid:
    """∂μ(s,t) = μ(s)μ(t)·conj(μ(s+t)); entries with s+t off the grid are
    masked out-of-window, not invented."""
    k = chain.half_index_count
    mu = chain.values
    i = np.arange(-k, k + 1)
    s = i[:, None] + i[None, :]
    ok = np.abs(s) <= k
    sc = np.clip(s, -k, k)
    vals = mu[i + k][:, None] * mu[i + k][None, :] * np.conj(mu[sc + k])
    vals = np.where(ok, vals, 1.0)
    return CocycleGrid(step=chain.step, half_range=chain.half_range,
                       values=vals, in_window=ok)


# -- trivialization ---------------------------------------------------------------

class TrivializationResult(_Record):
    chain: Cochain
    achieved_residual: float
    pairs_checked: int
    pairs_skipped: int
    rescale_exponent: int
    precheck: CocycleReport
    stage_windows: dict = _Fresh(dict)
    stage_chains: dict = _Fresh(dict)


def _cmul(a, b) -> np.ndarray:
    """a·b with the real and imaginary parts rounded term by term, as scalar
    complex arithmetic does; numpy's vector complex loops may fuse them into
    FMAs, which would make the stage tables depend on the CPU. Both factors
    are numpy arrays or scalars."""
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _chain_at(mu: np.ndarray, i, k: int) -> np.ndarray:
    """μ(i) over an index array; NaN where i leaves [-k, k] or μ is unreachable."""
    return np.where(np.abs(i) <= k, mu[np.minimum(np.maximum(i, -k), k) + k], np.nan)


def _grid_at(grid: CocycleGrid, i, j) -> np.ndarray:
    """λ(i, j) over broadcast index arrays; NaN off the grid or the window."""
    k = grid.half_index_count
    ic = np.minimum(np.maximum(i, -k), k) + k
    jc = np.minimum(np.maximum(j, -k), k) + k
    ok = (np.abs(i) <= k) & (np.abs(j) <= k) & grid.in_window[ic, jc]
    return np.where(ok, grid.values[ic, jc], np.nan)


def _segments(k: int, unit: int):
    """Index arrays (n·unit, o) for |n| ≤ k // unit, 0 ≤ o ≤ unit: row n + k // unit
    of a table built on them holds the lookups of segment n in ``_develop``."""
    top = k // unit
    return unit * np.arange(-top, top + 1)[:, None], np.arange(unit + 1)[None, :]


def _develop(table: np.ndarray, k: int, unit: int) -> np.ndarray:
    """Solve μ(n+t) = μ(n)·λ(n,t) outward from μ ≡ 1 on [0,1].

    ``unit`` is the number of grid steps per 1.0 in the current
    coordinates and ``table`` holds λ on ``_segments(k, unit)``, NaN where
    the lookup leaves the window. Entries past the first such lookup stay
    NaN and shrink the usable window; those before it stay filled.

    Segment n > 0 fills (n·unit, n·unit + unit] from its anchor μ(n·unit), segment
    −n fills [−n·unit, −n·unit + unit) from μ(−n·unit + unit). Only the anchors
    depend on the segment before, so they are chained one scalar at a time, with the
    roundings of the table products; every other entry is one product of its anchor
    and its λ, taken over all segments at once. Each row's first NaN is found once.
    """
    mu = np.full(2 * k + 1, np.nan + 0j, dtype=complex)
    mu[k:k + unit + 1] = 1.0
    top = k // unit
    nan = np.isnan(table[:, 1:]).tolist()
    filled = [row.index(True) if True in row else unit for row in nan]
    ends = table[:, unit].tolist()
    # positive direction: the anchor of segment n + 1 is the last entry of segment n,
    # rounded as ``_cmul`` rounds it
    anchors, rows = [], []
    re, im = 1.0, 0.0
    for n in range(1, top + 1):
        anchors.append(complex(re, im))
        rows.append(top + n)
        last = min(filled[top + n], k - n * unit)
        if last < unit:
            break
        z = ends[top + n]
        re, im = re * z.real - im * z.imag, re * z.imag + im * z.real
    up = len(rows)
    # negative direction: μ(−n·unit) = μ(−n·unit + unit)·conj λ(−n·unit, unit)
    first = mu[k]
    for n in range(1, top + 1):
        if nan[top - n][-1]:
            break
        first = first * table[top - n, unit].conjugate()
        anchors.append(first)
        rows.append(top - n)
        if filled[top - n] < unit - 1:
            break
    prod = _cmul(np.array(anchors)[:, None], table[rows, 1:])
    mu[k + unit + 1:k + up * unit + last + 1] = prod[:up].ravel()[:(up - 1) * unit + last]
    down = len(rows) - up
    if down:
        block = mu[k - down * unit:k].reshape(down, unit)[::-1]      # row n - 1: segment -n
        block[:, 0] = anchors[up:]
        block[:, 1:] = prod[up:, :-1]
        block[-1, 1 + min(filled[rows[-1]], unit - 1):] = np.nan
    return mu


def _in_range_triples(k: int) -> int:
    """Triples the scan visits on [-K, K]: Σ_j (2K+1−|j|)² = (2K+1)² + 2·Σ_{m=K+1}^{2K} m²."""
    def squares(n):
        return n * (n + 1) * (2 * n + 1) // 6
    return (2 * k + 1) ** 2 + 2 * (squares(2 * k) - squares(k))


def _extended(mu: np.ndarray, lam: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """μ on [-k, k] extended to μ̃ on [-2k, 2k] by μ̃(±(k+ρ)) = μ(±k)·μ(±ρ)·conj λ(±k, ±ρ),
    ρ = 1..k, which makes ∂μ̃(±k, ±ρ) = λ(±k, ±ρ); a masked λ is taken as 1. The new
    entries are renormalized like μ. Any unimodular extension serves the certificate."""
    k = (mu.size - 1) // 2
    up = mu[2 * k] * mu[k + 1:] * np.conj(np.where(ok[2 * k, k + 1:], lam[2 * k, k + 1:], 1.0))
    down = mu[0] * mu[:k] * np.conj(np.where(ok[0, :k], lam[0, :k], 1.0))
    return np.concatenate([down / np.abs(down), mu, up / np.abs(up)])


def _hankel(x: np.ndarray, m: int) -> np.ndarray:
    """The (m, m) view of a contiguous 1-D ``x`` whose row a is x[a:a + m], so entry
    (a, b) reads x[a + b]: ``sliding_window_view(x, m)`` without its per-call cost.
    Its rows overlap in memory, so it is for reading only."""
    return np.ndarray((m, m), dtype=x.dtype, buffer=x, strides=(x.itemsize, x.itemsize))


def _bound(r):
    """The most the scan reads on a triple whose four pairs each have |λ − ∂μ̃| ≤ r,
    as derived in ``_certificate``; it rounds monotonically in r. An array of errors
    takes the same float operations entry by entry."""
    return 4.0 * (1.0 + MODULUS_TOL) * r + 96.0 * _U


def _certificate(grid: CocycleGrid, r: float, full: bool) -> CocycleReport:
    """The precheck certified from r = max |λ − ∂μ̃| over the in-window pairs.

    The bound holds triple by triple: a triple whose four pairs each have
    |λ − ∂μ̃| ≤ r reads at most ``_bound(r)`` in the scan, whatever the other pairs
    hold. Let ν = μ̃/|μ̃| exactly; ∂ν is an exact cocycle. For a triple the scan checks,
    all four pairs are in window, so with A..D the ∂ν values (AB = CD, |·| = 1) and
    |λ| ≤ 1 + τ (τ = ``MODULUS_TOL``) its residual is
    |ab − cd| ≤ |a||b − B| + |a − A| + |c||d − D| + |c − C| ≤ (4 + 2τ)·r', with r' the
    exact max |λ − ∂ν| over its four pairs. Rounding, with u = 2⁻⁵³ and a complex
    product off by at most √2·γ₂·|x||y| (Higham, Lemma 3.5; less with FMA):

    * μ and μ̃ are stored as z/|z|, within 4u of ν, so the exact product
      μ̃(s)μ̃(t)conj μ̃(s+t) is within (1+4u)³ − 1 ≤ 13u of ∂ν, and its two rounded
      products add 2√2·γ₂(1+4u)³ ≤ 6u;
    * the difference from λ and its modulus are rounded, so r' ≤ (1+4u)·r + 19u;
    * the scan's own value of a residual E is at most (1+4u)·E + 6u.

    So the scan reads at most (4 + 2τ)(1+4u)²·r + 83u, which 4(1+τ)·r + 96u covers with
    room for rounding the bound itself. With r the maximum over all in-window pairs it
    covers every triple. The counts are the scan's, in closed form: on a full window
    every in-range triple; on the mask {|s+t| ≤ K} the triples whose partial sums
    0, i, i+j, i+j+l span at most K, Σ_{d≤K} #{range exactly d} = (K+1)⁴ − K⁴.
    """
    k = grid.half_index_count
    total = _in_range_triples(k)
    checked = total if full else (k + 1) ** 4 - k ** 4
    return CocycleReport(
        max_identity_residual=_bound(r),
        max_normalization_residual=_axis_defect(grid.values, grid.in_window, k),
        checked=checked, skipped=total - checked,
        step=grid.step, half_range=grid.half_range, route="certificate")


def _pairs(i, j, l):
    """The pairs the identity of (i, j, l) reads, in the scan's operand order:
    λ(i,j)·λ(i+j,l) − λ(j,l)·λ(i,j+l)."""
    return (i, j), (i + j, l), (j, l), (i, j + l)


def _range_forms(i, j, l):
    """The indices a triple keeps within [-K, K] to be in range."""
    return i, j, l, i + j, j + l


def _touched_triples(bad: np.ndarray, k: int):
    """The in-range triples (i, j, l) that read a pair of ``bad``, a (2K+1)² mask.

    A bad pair (a, b) read in role r of ``_pairs`` fixes a line of triples over
    f ∈ [-K, K]: (a, b, f), (f, a−f, b), (f, a, b) and (a, f, b−f). Returns
    (count, chunks): ``count``, in closed form, is the number of in-range triples on
    all the lines, a triple counting once per line it lies on; ``chunks`` yields them
    as a (3, m) array of i, j and l rows, for the lines of
    max(1, TILE_ENTRIES/(``_CANDIDATE_COST``·4(2K+1))) bad pairs at a time."""
    n = 2 * k + 1
    a, b = np.divmod(np.flatnonzero(bad), n)
    a, b = a[:, None] - k, b[:, None] - k
    z = 0 * a
    # roles' lengths: n − |b| and n − |a| if |a+b| ≤ K, n − the spread of 0, a, a+b and of 0, b, −a
    count = int(np.sum((2 * n - np.abs(a) - np.abs(b)) * (np.abs(a + b) <= k) + 2 * n
                       - np.ptp([z, a, a + b], axis=0) - np.ptp([z, b, -a], axis=0)))
    # (i, j, l) of role r's line through bad pair p at f: origin[:, r, p] + moves[:, r, f]
    origin = np.array([(a, z, z, a), (b, a, a, z), (z, b, b, b)])
    moves = np.multiply.outer([(0, 1, 1, 0), (0, -1, 0, 1), (1, 0, 0, -1)], np.arange(-k, k + 1))
    per = max(1, TILE_ENTRIES // (_CANDIDATE_COST * 4 * n))

    def chunks():
        for p in range(0, a.size, per):
            lines = (origin[:, :, p:p + per] + moves[:, :, None]).reshape(3, -1)
            reach = np.abs(lines[0])
            for form in _range_forms(*lines)[1:]:
                np.maximum(reach, np.abs(form), out=reach)
            yield lines.take(np.flatnonzero(reach <= k), axis=1)

    return count, chunks()


def _touched_maximum(grid: CocycleGrid, bad: np.ndarray) -> float | None:
    """The scan's maximum residual over the triples that read a pair of ``bad``, each
    evaluated as the scan does; masked triples are skipped. None when the triples
    ``_touched_triples`` counts, each weighed at ``_CANDIDATE_COST`` scan triples, are
    not fewer than the scan's triples."""
    k = grid.half_index_count
    count, chunks = _touched_triples(bad, k)
    if _CANDIDATE_COST * count >= _in_range_triples(k):
        return None
    n = 2 * k + 1
    v, win = grid.values.ravel(), grid.in_window.ravel()
    full = bool(win.all())
    worst, seen = 0.0, True
    for triples in chunks:
        pairs = [s * n + t + k * (n + 1) for s, t in _pairs(*triples)]     # flat indices
        if not full:
            seen = np.logical_and.reduce([win[q] for q in pairs])
        p0, p1, p2, p3 = (v[q] for q in pairs)
        r = np.abs(np.multiply(p0, p1) - np.multiply(p2, p3))
        worst = float(np.max(r, where=seen, initial=worst))
    return worst


def _identity_failure(residual: float, allowed: float) -> ValueError:
    return ValueError(f"cocycle identity fails: residual {residual:.3e} "
                      f"exceeds the allowed defect {allowed:.3e}")


def trivialize(grid: CocycleGrid) -> TrivializationResult:
    """Produce μ with ∂μ ≈ λ; see the module docstring for the stages.

    The associativity precheck comes after the stages. Its certificate window holds
    when the window is full, or exactly the ``coboundary_of`` mask {|s+t| ≤ K}, and μ
    spans the whole grid (``stage_windows["final_half_index"] == K``). Then the errors
    |λ − ∂μ̃| are known on every pair, and one of three routes decides:

    * certificate: the bound 4·r + c·u of :func:`_certificate`, r the largest error,
      is at most the allowed defect ``DEFECT_FACTOR``·δ, and the precheck is certified
      in O(K²), with ``precheck.route == "certificate"``;
    * local refusal: a pair is bad when the bound of its error exceeds the allowed
      defect. The bound is monotone, so a triple whose four pairs are not bad is within
      the allowed defect, and only the triples reading a bad pair can fail; they are
      evaluated as the scan evaluates them, and if their maximum M exceeds the allowed
      defect, M is the scan's maximum and the grid is refused with it;
    * scan: otherwise, and whenever the certificate window fails or the stages raise,
      ``check_cocycle`` scans every triple: a residual above the allowed defect is
      refused, then a stage's error is raised, and else the scan's report is the
      precheck. The local check gives way to the scan when the in-range triples on
      its bad pairs' lines, at ``_CANDIDATE_COST`` scan triples each, are not fewer
      than the scan's triples, and when M is within the allowed defect, so an
      accepted grid reports the measured maximum.

    Every route refuses a grid exactly when the scan-first order refuses it, with the
    same message. An ``InternalFault`` from the stages is no refusal and propagates
    at once.
    """
    delta = grid.step
    log_inv = math.log2(1.0 / delta)
    k_exp = round(log_inv)
    if abs(log_inv - k_exp) > 1e-9 or k_exp < 1:
        raise ValueError("step must be a power of 1/2 for the halving stage")

    allowed = DEFECT_FACTOR * delta
    try:
        result, errors = _stages(grid, k_exp)
    except ValueError as err:
        result, failure = None, err
    else:
        if result.precheck is not None:
            if result.precheck.max_identity_residual <= allowed:
                return result
            worst = _touched_maximum(grid, (_bound(errors) > allowed) & grid.in_window)
            if worst is not None and worst > allowed:
                raise _identity_failure(worst, allowed)
    pre = check_cocycle(grid)
    if pre.max_identity_residual > allowed:
        raise _identity_failure(pre.max_identity_residual, allowed)
    if result is None:
        raise failure
    result.precheck = pre
    return result


def _stages(grid: CocycleGrid, k_exp: int):
    """The stages of ``trivialize`` on a grid of step 2^-k_exp, as (result, errors).
    Where the certificate's window conditions hold, the precheck is the certificate
    and ``errors`` the table |λ − ∂μ̃| on [-K, K]² (meaningless on masked pairs);
    elsewhere both are None.

    Stage 1 is the only lookup of λ that can leave the window (``_grid_at``); stage 2's
    table of λ¹ on [0, unit]² is plain gathers, and stage 3 gathers λ¹(i mod unit, j)
    from it. The final table reads conj μ̃(s + t) through a Hankel view whose rows are
    windows of conj μ̃, so it takes O(K²) time with one real (2K+1)² array and a complex
    tile of at most max(TILE_ENTRIES, 2K+1) entries; the maxima over the pairs with
    |s + t| ≤ kf and over all of them come from one segmented pass over it."""
    delta = grid.step
    k = grid.half_index_count

    # rescale: largest ε = 2^-m with |λ-1| ≤ 2^-1/2 on [0, ε]², leaving an
    # even number of grid steps per rescaled unit
    m = None
    for cand in range(0, k_exp):
        unit_c = 2 ** (k_exp - cand)
        if 2 * unit_c > k or unit_c < 2:        # window must hold two rescaled units
            continue
        sub = grid.values[k:k + unit_c + 1, k:k + unit_c + 1]
        subw = grid.in_window[k:k + unit_c + 1, k:k + unit_c + 1]
        if not subw.all():
            continue
        if np.max(np.abs(sub - 1.0)) <= 2 ** -0.5:
            m = cand
            break
    if m is None:
        raise ValueError("no admissible rescale: λ stays too far from 1 on every "
                         "dyadic square this grid resolves; refine the grid")
    unit = 2 ** (k_exp - m)

    # stage 1: develop μ⁰ against λ itself
    mu0 = _develop(_grid_at(grid, *_segments(k, unit)), k, unit)
    v0 = ~np.isnan(mu0)

    # stage 2: phase average of λ¹ = ∂μ⁰·λ over one period. Its first slot is taken
    # mod unit, so row unit of the table on [0, unit]² repeats row 0.
    a = np.arange(unit + 1)
    a_mod = a % unit
    table = _cmul(_cmul(_cmul(mu0[k + a_mod][:, None], mu0[k:k + unit + 1]),
                        np.conj(mu0[k + a_mod[:, None] + a])),
                  grid.values[k + a_mod, k:k + unit + 1])
    # The rescale took a unit with [0, unit]² in the window and 2·unit ≤ K, so
    # stage 1 filled μ⁰ on [0, 2·unit] and every λ¹ on the square is defined;
    # a NaN here is a fault of the stages, not of the grid.
    if np.isnan(table).any():
        raise InternalFault("rescaled unit square leaves the window after the rescale "
                            "admitted it")
    if np.min(np.abs(table + 1.0)) < BRANCH_MARGIN:
        raise ValueError("branch margin violated — refine grid")
    phases = np.angle(table)
    dprime = 1.0 / unit
    alpha = dprime * (0.5 * phases[0, :] + phases[1:-1, :].sum(axis=0) + 0.5 * phases[-1, :])

    # μ¹(n·unit + o) = seg[o]·seg[-1]^n, each power taken once as a scalar
    seg = np.exp(1j * alpha)                     # μ¹ on [0, 1]
    n, o = np.divmod(np.arange(-k, k + 1), unit)
    powers = np.array([seg[-1] ** p for p in range(int(n[0]), int(n[-1]) + 1)])
    mu1 = _cmul(seg[o], powers[n - n[0]])

    # stage 3: halve coordinates (pure relabeling) and develop once more
    # against λ² = conj(∂μ¹)·λ¹. Of the lookups only μ¹(i + j) can leave the grid;
    # λ¹(i mod unit, j) is row 0 or row unit/2 of the stage-2 table.
    unit2 = unit // 2
    i, j = _segments(k, unit2)
    lam2 = _cmul(_cmul(np.conj(_cmul(mu1[k + i], mu1[k + j])), _chain_at(mu1, i + j, k)),
                 table[i % unit, j])
    mu2 = _develop(lam2, k, unit2)
    v2 = ~np.isnan(mu2)

    valid = v0 & v2 & ~np.isnan(mu1)
    mu_total = np.where(valid, np.conj(mu0) * mu1 * np.conj(mu2), np.nan + 0j)

    # largest symmetric window of valid entries around 0
    gaps = np.flatnonzero(~(valid[k + 1:] & valid[k - 1::-1]))
    kf = int(gaps[0]) if gaps.size else k
    if kf == 0:
        raise ValueError("empty final window: a window hole next to 0 stops the stages")
    mu_win = mu_total[k - kf:k + kf + 1]
    mu_win = mu_win / np.abs(mu_win)             # renormalize fp drift in modulus
    chain = Cochain(step=delta, half_range=kf * delta, values=mu_win)

    # final residual over pairs staying inside the window. The same table holds
    # λ − ∂μ̃ on every other pair, through the extension μ̃ of μ to [-2kf, 2kf]: with
    # kf = K its maximum over the in-window pairs is the certificate's r.
    lam_tab = grid.values[k - kf:k + kf + 1, k - kf:k + kf + 1]
    lam_ok = grid.in_window[k - kf:k + kf + 1, k - kf:k + kf + 1]
    # row s + kf of this Hankel view is conj μ̃ on [s - kf, s + kf]: column t + kf reads
    # conj μ̃(s + t)
    side = 2 * kf + 1
    conj_sum = _hankel(np.conj(_extended(mu_win, lam_tab, lam_ok)), side)
    # |λ − ∂μ̃| a tile of rows at a time, as the scan tiles its rows, so the complex
    # products stay in cache
    per = max(1, TILE_ENTRIES // side)
    tile = np.empty((min(per, side), side), dtype=complex)
    diff = np.empty((side, side))
    for a0 in range(0, side, per):
        t = tile[:min(per, side - a0)]
        np.multiply(mu_win[a0:a0 + per, None], mu_win[None, :], out=t)
        np.multiply(t, conj_sum[a0:a0 + per], out=t)
        np.subtract(lam_tab[a0:a0 + per], t, out=t)
        np.abs(t, out=diff[a0:a0 + per])
    # Row a of the table holds the pairs with |s + t| ≤ kf in one stretch, columns
    # max(kf - a, 0) to min(3kf - a, 2kf). Cut at those bounds, the flat table falls
    # into the stretches (odd segments) and the pairs between them (even segments; an
    # empty one reads the next pair, which changes no maximum), so one pass takes the
    # maxima over both. Masked pairs count as -inf. kf ≥ 1, so the last cut, side² - kf,
    # lies inside the table.
    rows = np.arange(side)
    cuts = np.zeros(2 * side + 1, dtype=np.intp)
    cuts[1::2] = side * rows + np.maximum(kf - rows, 0)
    cuts[2::2] = side * rows + np.minimum(3 * kf - rows, 2 * kf) + 1
    near = side * side - kf * (kf + 1)                 # pairs with |s + t| ≤ kf
    full = bool(lam_ok.all())
    if full:
        peaks, checked = np.maximum.reduceat(diff.ravel(), cuts), near
    else:
        peaks = np.maximum.reduceat(np.where(lam_ok, diff, -np.inf).ravel(), cuts)
        checked = int(np.add.reduceat(lam_ok.ravel(), cuts, dtype=np.intp)[1::2].sum())
    resid = float(peaks[1::2].max()) if checked else float("nan")

    precheck = errors = None
    # a window is the mask {|s + t| ≤ kf} when it holds all of those pairs and no more
    if kf == k and (full or checked == near == np.count_nonzero(lam_ok)):
        r = float(peaks.max()) if full else resid          # else lam_ok is that mask
        precheck, errors = _certificate(grid, r, full), diff

    return TrivializationResult(
        chain=chain, achieved_residual=resid,
        pairs_checked=checked, pairs_skipped=(2 * k + 1) ** 2 - checked,
        rescale_exponent=m, precheck=precheck,
        stage_windows={"mu0_valid": int(v0.sum()), "mu2_valid": int(v2.sum()),
                       "final_half_index": kf, "unit": unit},
        stage_chains={"mu0": mu0, "mu1": mu1, "mu2": mu2}), errors


# -- ready-made families and comparison helpers ------------------------------------

def bilinear_cocycle(c: float, step: float, half_range: float) -> CocycleGrid:
    """λ(s,t) = e^{-i·c·s·t}, an exact cocycle with closed-form trivializer
    μ(t) = e^{i·c·t²/2}."""
    k = _half_index(step, half_range)
    x = np.arange(-k, k + 1) * step
    vals = np.exp(-1j * c * np.outer(x, x))
    return CocycleGrid(step=step, half_range=half_range, values=vals)


def bilinear_trivializer(c: float, step: float, half_range: float) -> Cochain:
    k = _half_index(step, half_range)
    x = np.arange(-k, k + 1) * step
    return Cochain(step=step, half_range=half_range, values=np.exp(0.5j * c * x * x))


def character_quotient_gap(a: Cochain, b: Cochain) -> tuple[float, float]:
    """Distance between two cochains modulo characters t ↦ e^{iκt}.

    Returns (κ̂, max |a·conj(b) − e^{iκ̂t}|) on the common window: two
    trivializers of the same cocycle should differ by a character only.
    """
    if abs(a.step - b.step) > 1e-12:
        raise ValueError("cochains live on different grids")
    kc = min(a.half_index_count, b.half_index_count)
    ka, kb = a.half_index_count, b.half_index_count
    r = a.values[ka - kc:ka + kc + 1] * np.conj(b.values[kb - kc:kb + kc + 1])
    incr = np.angle(r[1:] * np.conj(r[:-1]))
    kappa = float(np.mean(incr)) / a.step
    x = np.arange(-kc, kc + 1) * a.step
    gap = float(np.max(np.abs(r - np.exp(1j * kappa * x))))
    return kappa, gap
