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
stage; pairs that fall outside are counted, never silently dropped. A
unimodularity or associativity failure beyond the allowed defect is an
error before any stage runs — a near-(-1) value of λ¹ as well, since the
principal phase branch would be meaningless there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BRANCH_MARGIN = 1e-6
MODULUS_TOL = 1e-12
DEFECT_FACTOR = 10.0
#: entries per tile of the associativity scan in ``check_cocycle``
TILE_ENTRIES = 2 ** 15


def _half_index(step: float, half_range: float) -> int:
    k = round(half_range / step)
    if k < 1 or abs(k * step - half_range) > 1e-9:
        raise ValueError("half_range must be a positive multiple of step")
    return k


@dataclass
class CocycleGrid:
    """Unimodular λ on the index square [-K, K]², K = half_range/step."""

    step: float
    half_range: float
    values: np.ndarray
    in_window: np.ndarray | None = None

    def __post_init__(self):
        self.step = float(self.step)
        self.half_range = float(self.half_range)
        k = _half_index(self.step, self.half_range)
        self.half_index_count = k
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (2 * k + 1, 2 * k + 1):
            raise ValueError(f"values must be {(2 * k + 1, 2 * k + 1)}, got {vals.shape}")
        self.values = vals
        if self.in_window is None:
            self.in_window = np.ones(vals.shape, dtype=bool)
        else:
            self.in_window = np.asarray(self.in_window, dtype=bool)
            if self.in_window.shape != vals.shape:
                raise ValueError("window mask shape mismatch")
        win = self.in_window
        bad = np.max(np.abs(np.abs(vals[win]) - 1.0)) if win.any() else 0.0
        if not bad <= MODULUS_TOL:                  # NaN fails too
            raise ValueError(f"values are not unimodular (worst defect {bad:.3e})")
        # normalization along the axes through 0
        row = np.abs(vals[k, :][win[k, :]] - 1.0)
        col = np.abs(vals[:, k][win[:, k]] - 1.0)
        norm_bad = max(row.max() if row.size else 0.0, col.max() if col.size else 0.0)
        if norm_bad > MODULUS_TOL:
            raise ValueError(f"cocycle not normalized: λ(·,0) or λ(0,·) differs "
                             f"from 1 by {norm_bad:.3e}")

    def lam(self, i: int, j: int) -> complex | None:
        k = self.half_index_count
        if abs(i) > k or abs(j) > k or not self.in_window[i + k, j + k]:
            return None
        return complex(self.values[i + k, j + k])


@dataclass
class Cochain:
    """Unimodular μ on [-R, R] ∩ δℤ with μ(0) = 1."""

    step: float
    half_range: float
    values: np.ndarray

    def __post_init__(self):
        self.step = float(self.step)
        self.half_range = float(self.half_range)
        k = _half_index(self.step, self.half_range)
        self.half_index_count = k
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (2 * k + 1,):
            raise ValueError(f"values must have length {2 * k + 1}")
        self.values = vals
        if not np.max(np.abs(np.abs(vals) - 1.0)) <= MODULUS_TOL:
            raise ValueError("cochain values are not unimodular")
        if abs(vals[k] - 1.0) > MODULUS_TOL:
            raise ValueError("cochain must satisfy μ(0) = 1")

    def mu(self, i: int) -> complex:
        return complex(self.values[i + self.half_index_count])


@dataclass
class CocycleReport:
    max_identity_residual: float
    max_normalization_residual: float
    checked: int
    skipped: int
    step: float
    half_range: float


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
    tile buffers of max(TILE_ENTRIES, 2K+1) entries (two complex, one
    real; a fourth, boolean, for masked grids) and no per-triple
    temporaries.
    """
    k = grid.half_index_count
    v, win = grid.values, grid.in_window
    row = np.abs(v[k, :][win[k, :]] - 1.0)
    col = np.abs(v[:, k][win[:, k]] - 1.0)
    norm_bad = float(max(row.max() if row.size else 0.0,
                         col.max() if col.size else 0.0))
    full = bool(win.all())
    outside = ~win
    size = 2 * k + 1
    cap = max(TILE_ENTRIES, size)
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

@dataclass
class TrivializationResult:
    chain: Cochain
    achieved_residual: float
    pairs_checked: int
    pairs_skipped: int
    rescale_exponent: int
    precheck: CocycleReport
    stage_windows: dict = field(default_factory=dict)
    stage_chains: dict = field(default_factory=dict)


def _cmul(a, b) -> np.ndarray:
    """a·b with the real and imaginary parts rounded term by term, as scalar
    complex arithmetic does; numpy's vector complex loops may fuse them into
    FMAs, which would make the stage tables depend on the CPU."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _chain_at(mu: np.ndarray, i, k: int) -> np.ndarray:
    """μ(i) over an index array; NaN where i leaves [-k, k] or μ is unreachable."""
    return np.where(np.abs(i) <= k, mu[np.clip(i, -k, k) + k], np.nan)


def _grid_at(grid: CocycleGrid, i, j) -> np.ndarray:
    """λ(i, j) over broadcast index arrays; NaN off the grid or the window."""
    k = grid.half_index_count
    ic, jc = np.clip(i, -k, k) + k, np.clip(j, -k, k) + k
    ok = (np.abs(i) <= k) & (np.abs(j) <= k) & grid.in_window[ic, jc]
    return np.where(ok, grid.values[ic, jc], np.nan)


def _lam1_at(grid: CocycleGrid, mu0: np.ndarray, unit: int, i, j) -> np.ndarray:
    """λ¹ = ∂μ⁰·λ with the first slot reduced to [0, unit) by its periodicity."""
    k = grid.half_index_count
    i = i % unit
    return _cmul(_cmul(_cmul(_chain_at(mu0, i, k), _chain_at(mu0, j, k)),
                       np.conj(_chain_at(mu0, i + j, k))), _grid_at(grid, i, j))


def _segments(k: int, unit: int):
    """Index arrays (n·unit, o) for |n| ≤ k // unit, 0 ≤ o ≤ unit: row n + k // unit
    of a table built on them holds the lookups of segment n in ``_develop``."""
    top = k // unit
    return unit * np.arange(-top, top + 1)[:, None], np.arange(unit + 1)[None, :]


def _filled(row: np.ndarray) -> int:
    """Length of the prefix of ``row`` free of NaN."""
    bad = np.flatnonzero(np.isnan(row))
    return int(bad[0]) if bad.size else row.size


def _develop(table: np.ndarray, k: int, unit: int) -> np.ndarray:
    """Solve μ(n+t) = μ(n)·λ(n,t) outward from μ ≡ 1 on [0,1].

    ``unit`` is the number of grid steps per 1.0 in the current
    coordinates and ``table`` holds λ on ``_segments(k, unit)``, NaN where
    the lookup leaves the window. Entries past the first such lookup stay
    NaN and shrink the usable window; those before it stay filled.
    """
    mu = np.full(2 * k + 1, np.nan + 0j, dtype=complex)
    mu[k:k + unit + 1] = 1.0
    top = k // unit
    # positive direction: segment n fills (n·unit, n·unit + unit] from μ(n·unit)
    for n in range(1, top + 1):
        base = n * unit
        lam = table[top + n, 1:min(unit, k - base) + 1]
        m = _filled(lam)
        mu[k + base + 1:k + base + 1 + m] = _cmul(mu[k + base], lam[:m])
        if m < unit:
            break
    # negative direction: segment −n fills [−n·unit, −n·unit + unit), starting
    # from μ(−n·unit + unit)
    for n in range(1, top + 1):
        base = -n * unit
        lam = table[top - n]
        if np.isnan(lam[unit]):
            break
        mu[k + base] = mu[k + base + unit] * np.conj(lam[unit])
        m = _filled(lam[1:unit])
        mu[k + base + 1:k + base + 1 + m] = _cmul(mu[k + base], lam[1:1 + m])
        if m < unit - 1:
            break
    return mu


def trivialize(grid: CocycleGrid, defect_factor: float = DEFECT_FACTOR) -> TrivializationResult:
    """Produce μ with ∂μ ≈ λ; see the module docstring for the stages."""
    delta = grid.step
    k = grid.half_index_count
    log_inv = math.log2(1.0 / delta)
    k_exp = round(log_inv)
    if abs(log_inv - k_exp) > 1e-9 or k_exp < 1:
        raise ValueError("step must be a power of 1/2 for the halving stage")

    pre = check_cocycle(grid)
    allowed = defect_factor * delta
    if pre.max_identity_residual > allowed:
        raise ValueError(f"cocycle identity fails: residual {pre.max_identity_residual:.3e} "
                         f"exceeds the allowed defect {allowed:.3e}")

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

    # stage 2: phase average of λ¹ over one period
    a = np.arange(unit + 1)
    table = _lam1_at(grid, mu0, unit, a[:, None], a[None, :])
    if np.isnan(table).any():
        raise ValueError("rescaled unit square leaves the window; grid too small")
    if np.min(np.abs(table + 1.0)) < BRANCH_MARGIN:
        raise ValueError("branch margin violated — refine grid")
    phases = np.angle(table)
    dprime = 1.0 / unit
    alpha = dprime * (0.5 * phases[0, :] + phases[1:-1, :].sum(axis=0) + 0.5 * phases[-1, :])

    mu1 = np.full(2 * k + 1, np.nan + 0j, dtype=complex)
    seg = np.exp(1j * alpha)                     # μ¹ on [0, 1]
    top = seg[-1]
    for n in range(-(k // unit) - 1, k // unit + 2):
        for o in range(unit):
            idxp = n * unit + o
            if -k <= idxp <= k:
                mu1[k + idxp] = seg[o] * top ** n

    # stage 3: halve coordinates (pure relabeling) and develop once more
    # against λ² = conj(∂μ¹)·λ¹
    unit2 = unit // 2
    i, j = _segments(k, unit2)
    lam2 = _cmul(_cmul(np.conj(_cmul(_chain_at(mu1, i, k), _chain_at(mu1, j, k))),
                       _chain_at(mu1, i + j, k)), _lam1_at(grid, mu0, unit, i, j))
    mu2 = _develop(lam2, k, unit2)
    v2 = ~np.isnan(mu2)

    valid = v0 & v2 & ~np.isnan(mu1)
    mu_total = np.where(valid, np.conj(mu0) * mu1 * np.conj(mu2), np.nan + 0j)

    # largest symmetric window of valid entries around 0
    kf = 0
    while kf + 1 <= k and valid[k + kf + 1] and valid[k - kf - 1]:
        kf += 1
    mu_win = mu_total[k - kf:k + kf + 1]
    mu_win = mu_win / np.abs(mu_win)             # renormalize fp drift in modulus
    chain = Cochain(step=delta, half_range=kf * delta, values=mu_win)

    # final residual over pairs staying inside the window
    ii = np.arange(-kf, kf + 1)
    s = ii[:, None] + ii[None, :]
    ok = np.abs(s) <= kf
    sc = np.clip(s, -kf, kf)
    bdry = mu_win[ii + kf][:, None] * mu_win[ii + kf][None, :] * np.conj(mu_win[sc + kf])
    lam_tab = grid.values[k - kf:k + kf + 1, k - kf:k + kf + 1]
    lam_ok = grid.in_window[k - kf:k + kf + 1, k - kf:k + kf + 1]
    usable = ok & lam_ok
    resid = float(np.max(np.abs(lam_tab - bdry)[usable])) if usable.any() else float("nan")
    skipped_pairs = int((~usable).sum()) + int((2 * k + 1) ** 2 - (2 * kf + 1) ** 2)

    return TrivializationResult(
        chain=chain, achieved_residual=resid,
        pairs_checked=int(usable.sum()), pairs_skipped=skipped_pairs,
        rescale_exponent=m, precheck=pre,
        stage_windows={"mu0_valid": int(v0.sum()), "mu2_valid": int(v2.sum()),
                       "final_half_index": kf, "unit": unit},
        stage_chains={"mu0": mu0, "mu1": mu1, "mu2": mu2})


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
