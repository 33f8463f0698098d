"""Circle-valued 2-cocycles on a grid: checking, coboundaries, trivialization."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

import kmslab.cocycle as cocycle_module
from kmslab import (
    Cochain,
    CocycleGrid,
    bilinear_cocycle,
    bilinear_trivializer,
    character_quotient_gap,
    check_cocycle,
    coboundary_of,
    trivialize,
)
from kmslab.cocycle import CocycleReport


def _indices(step, half_range):
    k = int(round(half_range / step))
    return step * np.arange(-k, k + 1)


def _smooth_chain(step, half_range, seed, modes=3, amp=1.0):
    """A random smooth unimodular cochain with μ(0) = 1."""
    rng = np.random.default_rng(seed)
    xs = _indices(step, half_range)
    phase = np.zeros_like(xs)
    for _ in range(modes):
        a, w, ph = rng.normal() * amp, rng.uniform(0.2, 1.5), rng.uniform(0, 2 * np.pi)
        phase = phase + a * np.sin(w * xs + ph)
    phase -= phase[len(xs) // 2]         # pin μ(0) = 1
    return Cochain(step, half_range, np.exp(1j * phase))


def test_grid_validation():
    with pytest.raises(ValueError, match="shape|must be"):
        CocycleGrid(0.25, 1.0, np.ones((4, 4), dtype=complex))
    vals = np.ones((9, 9), dtype=complex)
    vals[3, 4] = 1.5
    with pytest.raises(ValueError, match="unimodular"):
        CocycleGrid(0.25, 1.0, vals)
    vals = np.ones((9, 9), dtype=complex)
    vals[4, 2] = -1.0    # breaks λ(0, ·) = 1
    with pytest.raises(ValueError, match="normalized"):
        CocycleGrid(0.25, 1.0, vals)


def test_cochain_validation():
    with pytest.raises(ValueError, match="μ\\(0\\)|mu"):
        Cochain(0.5, 1.0, np.array([1, 1, -1, 1, 1], dtype=complex))
    with pytest.raises(ValueError, match="unimodular"):
        Cochain(0.5, 1.0, np.array([1, 1, 2, 1, 1], dtype=complex))


def test_coboundary_satisfies_cocycle_identity():
    for seed in range(3):
        chain = _smooth_chain(2.0 ** -4, 2.0, seed)
        grid = coboundary_of(chain)
        rep = check_cocycle(grid)
        assert rep.max_identity_residual < 1e-12
        assert rep.max_normalization_residual < 1e-12
        assert rep.checked > 0


def test_coboundary_masks_out_of_window_sums():
    chain = _smooth_chain(0.5, 1.0, seed=1)
    grid = coboundary_of(chain)
    k = grid.half_index_count
    # s = t = half_range: s + t leaves the window
    assert grid.in_window[2 * k, 2 * k] == False  # noqa: E712
    assert grid.lam(k, k) is None
    assert grid.lam(1, -1) is not None


def test_single_flipped_entry_is_caught():
    chain = _smooth_chain(0.25, 2.0, seed=7)
    grid = coboundary_of(chain)
    vals = grid.values.copy()
    k = grid.half_index_count
    vals[k + 3, k + 2] = -vals[k + 3, k + 2]     # flip one interior phase
    broken = CocycleGrid(grid.step, grid.half_range, vals, grid.in_window)
    rep = check_cocycle(broken)
    assert abs(rep.max_identity_residual - 2.0) < 1e-9


def test_trivial_cocycle_trivializes_exactly():
    step, half = 2.0 ** -4, 4.0
    n = 2 * int(round(half / step)) + 1
    grid = CocycleGrid(step, half, np.ones((n, n), dtype=complex))
    res = trivialize(grid)
    assert res.achieved_residual == 0.0
    assert np.allclose(res.chain.values, 1.0)


def test_trivialize_inverts_coboundary():
    """Defining contract: coboundary_of(trivialize(∂μ).chain) returns ∂μ."""
    for seed, step in [(11, 2.0 ** -5), (12, 2.0 ** -6)]:
        chain = _smooth_chain(step, 4.0, seed)
        grid = coboundary_of(chain)
        res = trivialize(grid)
        assert res.achieved_residual < 1e-8
        back = coboundary_of(res.chain)
        kb = back.half_index_count
        kg = grid.half_index_count
        off = kg - kb
        worst = 0.0
        for i in range(-kb, kb + 1):
            for j in range(-kb, kb + 1):
                b = back.lam(i, j)
                g = grid.lam(i, j)
                if b is None or g is None:
                    continue
                worst = max(worst, abs(b - g))
        assert worst <= max(res.achieved_residual, 1e-12)
        assert off >= 0


def test_trivializer_chain_differs_from_source_by_character_only():
    # any two trivializers of the same cocycle differ by a character; here the
    # recovered chain against the seed chain, restricted to the final window
    chain = _smooth_chain(2.0 ** -5, 2.0, seed=3)
    res = trivialize(coboundary_of(chain))
    kf = res.chain.half_index_count
    k0 = chain.half_index_count
    sub = Cochain(chain.step, res.chain.half_range,
                  chain.values[k0 - kf:k0 + kf + 1] / chain.values[k0])
    kappa, gap = character_quotient_gap(res.chain, sub)
    assert gap < 1e-7


def test_stage_zero_chain_is_one_on_unit_interval():
    chain = _smooth_chain(2.0 ** -5, 2.0, seed=21)
    res = trivialize(coboundary_of(chain))
    unit = res.stage_windows["unit"]
    k = res.stage_windows["final_half_index"]
    mu0 = res.stage_chains["mu0"]
    k_full = (mu0.size - 1) // 2
    seg = mu0[k_full:k_full + unit + 1]
    assert np.max(np.abs(seg - 1.0)) < 1e-12


def test_bilinear_family_trivializes_to_quadratic_phase():
    step, half = 2.0 ** -6, 2.0
    for c in (0.3, 0.7):
        grid = bilinear_cocycle(c, step, half)
        assert check_cocycle(grid).max_identity_residual < 1e-12
        res = trivialize(grid)
        assert res.achieved_residual < 1e-9
        ref = bilinear_trivializer(c, step, res.chain.half_range)
        kappa, gap = character_quotient_gap(res.chain, ref)
        assert gap < 1e-9


def test_character_quotient_recovers_slope():
    step, half = 2.0 ** -5, 2.0
    xs = _indices(step, half)
    base = _smooth_chain(step, half, seed=5)
    kappa_true = 0.8
    shifted = Cochain(step, half, base.values * np.exp(1j * kappa_true * xs))
    kappa, gap = character_quotient_gap(shifted, base)
    assert abs(kappa - kappa_true) < 1e-9
    assert gap < 1e-9


def test_trivialize_rejects_non_cocycle_noise():
    rng = np.random.default_rng(99)
    step, half = 2.0 ** -4, 1.0
    n = 2 * int(round(half / step)) + 1
    phases = rng.uniform(-math.pi, math.pi, size=(n, n))
    phases[n // 2, :] = 0.0
    phases[:, n // 2] = 0.0
    grid = CocycleGrid(step, half, np.exp(1j * phases))
    with pytest.raises(ValueError, match="identity fails"):
        trivialize(grid)


def test_trivialize_needs_dyadic_step():
    n = 2 * 5 + 1
    grid = CocycleGrid(0.2, 1.0, np.ones((n, n), dtype=complex))
    with pytest.raises(ValueError, match="power"):
        trivialize(grid)


def test_trivialize_needs_room_to_rescale():
    step = 2.0 ** -5
    n = 2 * 2 + 1     # half_range of only 2 steps
    grid = CocycleGrid(step, 2 * step, np.ones((n, n), dtype=complex))
    with pytest.raises(ValueError, match="rescale|refine"):
        trivialize(grid)


def test_residual_scales_linearly_in_step():
    # same smooth phase sampled at three dyadic resolutions
    def chain_at(step):
        half = 2.0
        xs = _indices(step, half)
        phase = 1.3 * np.sin(0.9 * xs) - 0.4 * np.sin(1.7 * xs + 0.2)
        phase -= phase[len(xs) // 2]
        return Cochain(step, half, np.exp(1j * phase))

    resid = {}
    for e in (4, 5, 6):
        step = 2.0 ** -e
        resid[e] = trivialize(coboundary_of(chain_at(step))).achieved_residual
    # exact coboundary data: the residual is noise-floor flat, far below the
    # linear-in-step envelope C·step that the algorithm guarantees
    for e in (4, 5, 6):
        assert resid[e] <= 1e-6 * (2.0 ** (8 - e))


# -- second routes for the production scan and stages -------------------------------

def _reference_check_cocycle(grid: CocycleGrid) -> CocycleReport:
    """The original per-i gather scan: four fancy-indexed tables per first index."""
    k = grid.half_index_count
    v, win = grid.values, grid.in_window
    row = np.abs(v[k, :][win[k, :]] - 1.0)
    col = np.abs(v[:, k][win[:, k]] - 1.0)
    norm_bad = float(max(row.max() if row.size else 0.0,
                         col.max() if col.size else 0.0))
    idx = np.arange(-k, k + 1)
    worst = 0.0
    checked = 0
    skipped = 0
    for i in idx:
        j_lo, j_hi = max(-k, -k - i), min(k, k - i)      # keep |i+j| ≤ k
        if j_lo > j_hi:
            continue
        j = np.arange(j_lo, j_hi + 1)[:, None]
        kk = idx[None, :]
        jk = j + kk
        valid = np.abs(jk) <= k
        jk_c = np.clip(jk, -k, k)
        lam_ij = v[i + k, j + k]
        lam_ijk = v[(i + j) + k, kk + k]
        lam_jk = v[j + k, kk + k]
        lam_ijk2 = v[i + k, jk_c + k]
        usable = (valid & win[i + k, j + k] & win[(i + j) + k, kk + k]
                  & win[j + k, kk + k] & win[i + k, jk_c + k])
        resid = np.abs(lam_ij * lam_ijk - lam_jk * lam_ijk2)
        if usable.any():
            worst = max(worst, float(resid[usable].max()))
        checked += int(usable.sum())
        skipped += int((valid & ~usable).sum())
    return CocycleReport(max_identity_residual=worst, max_normalization_residual=norm_bad,
                         checked=checked, skipped=skipped,
                         step=grid.step, half_range=grid.half_range)


ORACLE_STEP = 2.0 ** -4


def _oracle_grid(family, k):
    half = k * ORACLE_STEP
    rng = np.random.default_rng(1000 + k)
    if family == "bilinear":
        return bilinear_cocycle(0.7, ORACLE_STEP, half)
    base = coboundary_of(_smooth_chain(ORACLE_STEP, half, seed=k))
    if family == "coboundary":
        return base
    vals, win = base.values.copy(), base.in_window.copy()
    if family == "flip":
        i, j = (k + 1, k + 1) if k > 1 else (2 * k, 0)
        vals[i, j] = -vals[i, j]
    elif family == "perturbed":
        kick = np.exp(1j * rng.uniform(-0.1, 0.1, vals.shape))
        kick[k, :] = kick[:, k] = 1.0
        vals = vals * kick
    elif family == "holes":
        win = win & (rng.random(win.shape) > 0.2)
        win[k, rng.integers(0, 2 * k + 1)] = False      # a hole on each axis
        win[rng.integers(0, 2 * k + 1), k] = False
        win[rng.integers(0, 2 * k + 1), :] = False      # one fully masked row
        vals = np.where(win, vals, np.nan)              # masked values are never read
    return CocycleGrid(ORACLE_STEP, half, vals, win)


@pytest.mark.parametrize("tile", [None, 1, 200])
@pytest.mark.parametrize("k", [1, 2, 3, 16, 33])
@pytest.mark.parametrize("family", ["bilinear", "coboundary", "flip", "perturbed", "holes"])
def test_check_cocycle_matches_reference_scan(family, k, tile, monkeypatch):
    # tile=1: one row per tile; tile=200: 6 rows at K = 16 and 2 at K = 33,
    # neither dividing 2K+1, so the last tile is partial
    if tile is not None:
        monkeypatch.setattr(cocycle_module, "TILE_ENTRIES", tile)
    grid = _oracle_grid(family, k)
    got, ref = check_cocycle(grid), _reference_check_cocycle(grid)
    assert got.checked == ref.checked
    assert got.skipped == ref.skipped
    assert got.max_identity_residual == ref.max_identity_residual
    assert got.max_normalization_residual == ref.max_normalization_residual
    if family == "flip":
        assert got.max_identity_residual > 1.0
    if family == "holes":
        assert got.skipped > 0


def test_grid_rejects_nan_in_window():
    vals = np.ones((5, 5), dtype=complex)
    vals[3, 3] = np.nan
    with pytest.raises(ValueError, match="unimodular"):
        CocycleGrid(0.5, 1.0, vals)
    win = np.ones((5, 5), dtype=bool)
    win[3, 3] = False
    assert check_cocycle(CocycleGrid(0.5, 1.0, vals, win)).skipped > 0


def _reference_stages(grid: CocycleGrid, unit: int):
    """The original per-entry closure route of the trivializer's three stages,
    from the rescaled unit on: (μ⁰, μ¹, μ², final chain values)."""
    k = grid.half_index_count

    def develop(lam_lookup, unit):
        mu = np.full(2 * k + 1, np.nan + 0j, dtype=complex)
        mu[k:k + unit + 1] = 1.0
        n = 1
        while n * unit <= k:
            base = n * unit
            anchor = mu[k + base]
            if np.isnan(anchor):
                break
            stopped = False
            for o in range(1, unit + 1):
                if base + o > k:
                    stopped = True
                    break
                lam = lam_lookup(base, o)
                if lam is None:
                    stopped = True
                    break
                mu[k + base + o] = anchor * lam
            if stopped:
                break
            n += 1
        n = 1
        while n * unit <= k:
            base = -n * unit
            lam_unit = lam_lookup(base, unit)
            prev = mu[k + base + unit]
            if lam_unit is None or np.isnan(prev):
                break
            mu[k + base] = prev * np.conj(lam_unit)
            good = True
            for o in range(1, unit):
                lam = lam_lookup(base, o)
                if lam is None:
                    good = False
                    break
                mu[k + base + o] = mu[k + base] * lam
            if not good:
                break
            n += 1
        return mu

    mu0 = develop(grid.lam, unit)

    def lam1(i, j):
        i = i % unit
        for b in (i, j, i + j):
            if abs(b) > k or np.isnan(mu0[k + b]):
                return None
        lam = grid.lam(i, j)
        if lam is None:
            return None
        return complex(mu0[k + i] * mu0[k + j] * np.conj(mu0[k + i + j]) * lam)

    table = np.array([[lam1(a, b) for b in range(unit + 1)] for a in range(unit + 1)])
    phases = np.angle(table)
    alpha = (1.0 / unit) * (0.5 * phases[0, :] + phases[1:-1, :].sum(axis=0)
                            + 0.5 * phases[-1, :])
    mu1 = np.full(2 * k + 1, np.nan + 0j, dtype=complex)
    seg = np.exp(1j * alpha)
    top = seg[-1]
    for n in range(-(k // unit) - 1, k // unit + 2):
        for o in range(unit):
            idxp = n * unit + o
            if -k <= idxp <= k:
                mu1[k + idxp] = seg[o] * top ** n

    def lam2(i, j):
        for b in (i, j, i + j):
            if abs(b) > k:
                return None
        base = lam1(i, j)
        if base is None:
            return None
        return complex(np.conj(mu1[k + i] * mu1[k + j]) * mu1[k + i + j] * base)

    mu2 = develop(lam2, unit // 2)
    valid = ~np.isnan(mu0) & ~np.isnan(mu2) & ~np.isnan(mu1)
    mu_total = np.where(valid, np.conj(mu0) * mu1 * np.conj(mu2), np.nan + 0j)
    kf = 0
    while kf + 1 <= k and valid[k + kf + 1] and valid[k - kf - 1]:
        kf += 1
    mu_win = mu_total[k - kf:k + kf + 1]
    return mu0, mu1, mu2, mu_win / np.abs(mu_win)


def _holed_grid():
    """A coboundary with two window holes on the stage-1 segment rows ±32 (unit 8):
    _develop stops after 4 entries of segment 4 and after 2 entries of segment −4.
    K = 62 is no multiple of the stage-3 unit 4, so μ² ends on a partial segment."""
    grid = coboundary_of(_smooth_chain(2.0 ** -4, 3.875, seed=31))
    k = grid.half_index_count
    win = grid.in_window.copy()
    win[k + 32, k + 5] = False
    win[k - 32, k + 3] = False
    return CocycleGrid(grid.step, grid.half_range, grid.values, win)


def test_tabulated_stages_stop_partway_through_segments():
    grid = _holed_grid()
    res = trivialize(grid)
    k = grid.half_index_count
    # recorded with the per-entry closure route
    assert res.rescale_exponent == 1
    assert res.stage_windows == {"mu0_valid": 64, "mu2_valid": 123,
                                 "final_half_index": 24, "unit": 8}
    assert res.pairs_checked == 1801
    assert res.pairs_skipped == 13824
    reached = np.flatnonzero(~np.isnan(res.stage_chains["mu0"])) - k
    assert reached.max() == 36                            # 32 + 4, stopped at λ(32, 5)
    assert list(reached[:4]) == [-32, -31, -30, -24]      # stopped at λ(-32, 3)
    reached2 = np.flatnonzero(~np.isnan(res.stage_chains["mu2"])) - k
    assert (reached2.min(), reached2.max()) == (-60, 62)


@pytest.mark.parametrize("make", [
    _holed_grid,
    lambda: coboundary_of(_smooth_chain(2.0 ** -5, 2.0, seed=21)),
    lambda: bilinear_cocycle(0.4, 2.0 ** -5, 2.0),
])
def test_tabulated_stages_match_closure_route_bitwise(make):
    grid = make()
    res = trivialize(grid)
    mu0, mu1, mu2, chain = _reference_stages(grid, res.stage_windows["unit"])
    for name, ref in (("mu0", mu0), ("mu1", mu1), ("mu2", mu2)):
        assert res.stage_chains[name].tobytes() == ref.tobytes(), name
    assert res.chain.values.tobytes() == chain.tobytes()


# -- the certified precheck ---------------------------------------------------------

def _full_coboundary(step, half, freqs, amps, shifts):
    """φ(s) + φ(t) − φ(s+t) on the whole grid, for φ a sum of sines with φ(0) = 0."""
    x = _indices(step, half)

    def phi(t):
        return sum(a * (np.sin(f * t + s) - np.sin(s)) for a, f, s in zip(amps, freqs, shifts))

    return CocycleGrid(step, half, np.exp(1j * (phi(x)[:, None] + phi(x)[None, :]
                                                 - phi(x[:, None] + x[None, :]))))


def _with_defect(grid, eps, g):
    """λ·e^{iε·g} with g zero on the axes, so the grid stays normalized."""
    k = grid.half_index_count
    g = g.copy()
    g[k, :] = g[:, k] = 0.0
    return CocycleGrid(grid.step, grid.half_range, grid.values * np.exp(1j * eps * g),
                       grid.in_window)


@st.composite
def _certified_grids(draw):
    """Grids whose trivializer spans the whole grid: integer half-range, so K is a
    multiple of every rescaled unit. Smooth coboundaries on a full window and on the
    ``coboundary_of`` mask, the bilinear family, and a bilinear grid times e^{iε·g}
    with a smooth g, |g| ≤ 1, and ε ≤ DEFECT_FACTOR·δ/8."""
    family = draw(st.sampled_from(["full", "masked", "bilinear", "defect"]))
    step = 2.0 ** -draw(st.integers(3, 5))
    half = float(draw(st.integers(1, 2)))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if family == "full":
        return family, _full_coboundary(step, half, rng.uniform(0.2, 1.4, 3),
                                        rng.uniform(-0.5, 0.5, 3), rng.uniform(0, 2 * np.pi, 3))
    if family == "masked":
        return family, coboundary_of(_smooth_chain(step, half, seed))
    grid = bilinear_cocycle(draw(st.floats(0.1, 0.7)), step, half)
    if family == "bilinear":
        return family, grid
    eps = draw(st.floats(0.0, 1.0)) * cocycle_module.DEFECT_FACTOR * step / 8
    x = _indices(step, half)
    a, b = rng.uniform(0.2, 1.5, 2)
    g = np.sin(a * x[:, None] + rng.uniform(0, 2 * np.pi)) * np.sin(b * x[None, :])
    return family, _with_defect(grid, eps, g)


@given(_certified_grids())
def test_property_certificate_bound_covers_the_scan(drawn):
    family, grid = drawn
    res = trivialize(grid)
    scan = check_cocycle(grid)
    assert res.precheck.route == "certificate", family
    assert res.precheck.max_identity_residual >= scan.max_identity_residual
    assert (res.precheck.checked, res.precheck.skipped) == (scan.checked, scan.skipped)
    assert res.precheck.max_normalization_residual == scan.max_normalization_residual


def _off_stage_defects(grid, eps, signs):
    """``grid`` times e^{iε·sign} on the pairs of ``signs``; each pair lies off the
    λ entries the stages read (first index a multiple of 4, second in [0, 8]), so
    the trivializer's μ, and with it ∂μ̃, is that of ``grid``."""
    k = grid.half_index_count
    g = np.zeros(grid.values.shape)
    for (s, t), sign in signs.items():
        g[k + s, k + t] = sign
    return _with_defect(grid, eps, g)


# A triple (i, j, l) = (-3, 5, -7) whose four pairs carry errors that add:
# λ(i,j)λ(i+j,l) − λ(j,l)λ(i,j+l) = e^{2iε} − e^{-2iε}, nearly 4·r.
FOUR_AT_ONE = {(-3, 5): 1, (2, -7): 1, (5, -7): -1, (-3, -2): -1}
# One pair with s + t = 19 > K = 16, seen by the scan as (i+j, l) of (7, 3, 9).
PAST_THE_SUM = {(10, 9): 1}


@pytest.mark.parametrize("signs", [FOUR_AT_ONE, PAST_THE_SUM], ids=["four-at-one", "past-the-sum"])
def test_certificate_bound_covers_the_worst_triple(signs):
    step, half = 2.0 ** -4, 1.0
    eps = cocycle_module.DEFECT_FACTOR * step / 8
    grid = _off_stage_defects(bilinear_cocycle(0.4, step, half), eps, signs)
    res = trivialize(grid)
    scan = check_cocycle(grid)
    assert res.stage_windows["unit"] == 8
    assert res.precheck.route == "certificate"
    assert res.precheck.max_identity_residual >= scan.max_identity_residual
    if signs is FOUR_AT_ONE:                       # the bound is tight to within 1%
        assert scan.max_identity_residual >= 0.99 * res.precheck.max_identity_residual


def _holed(grid, pair):
    """``grid`` with one more masked pair."""
    k = grid.half_index_count
    win = grid.in_window.copy()
    win[k + pair[0], k + pair[1]] = False
    return CocycleGrid(grid.step, grid.half_range, grid.values, win)


def _kicked(grid, pairs, eps):
    """``grid`` times e^{iε} on ``pairs``, which may be read by the stages."""
    k = grid.half_index_count
    vals = grid.values.copy()
    for s, t in pairs:
        vals[k + s, k + t] *= np.exp(1j * eps)
    return CocycleGrid(grid.step, grid.half_range, vals, grid.in_window)


ROUTE_CASES = {
    # name: (grid, route, final window spans the grid, the grid is refused); a refused
    # grid's route is "local" when no scan runs
    "full": (lambda: bilinear_cocycle(0.4, 2.0 ** -4, 1.0), "certificate", True, False),
    "coboundary-mask": (lambda: coboundary_of(_smooth_chain(2.0 ** -4, 1.0, seed=3)),
                        "certificate", True, False),
    "other-mask": (lambda: _holed(bilinear_cocycle(0.4, 2.0 ** -4, 1.0), (-3, -2)),
                   "scan", True, False),
    "masked-and-holed": (lambda: _holed(coboundary_of(_smooth_chain(2.0 ** -4, 1.0, seed=3)),
                                        (-3, -2)), "scan", True, False),
    # K = 20 is no multiple of the unit 8: μ⁰ stops at -16
    "shrunken-window": (lambda: bilinear_cocycle(0.4, 2.0 ** -4, 1.25), "scan", False, False),
    # one pair off by e^{iε}, ε = DEFECT_FACTOR·δ/2: the bound ≈ 4ε fails, the scan's ε passes
    "bound-fails": (lambda: _off_stage_defects(bilinear_cocycle(0.4, 2.0 ** -4, 1.0),
                                               cocycle_module.DEFECT_FACTOR * 2.0 ** -4 / 2,
                                               {(-3, -2): 1}), "scan", True, False),
    "refused": (lambda: _off_stage_defects(bilinear_cocycle(0.4, 2.0 ** -4, 1.0), 2.0,
                                           {(-3, -2): 1}), "local", True, True),
    # λ(8, 3) is read by stage 1 (unit 4): μ moves, and 196 pairs lose the bound
    "refused-stage-read": (lambda: _kicked(bilinear_cocycle(0.4, 2.0 ** -5, 1.0), [(8, 3)], 2.0),
                           "local", True, True),
    "refused-under-mask": (lambda: _kicked(coboundary_of(_smooth_chain(2.0 ** -4, 1.0, seed=3)),
                                           [(5, -9)], 2.0), "local", True, True),
    # four pairs off by 0.3 of the allowed defect, each bad, add up at one triple
    "refused-four-at-one": (lambda: _off_stage_defects(
        bilinear_cocycle(0.4, 2.0 ** -4, 1.0), 0.3 * cocycle_module.DEFECT_FACTOR * 2.0 ** -4,
        FOUR_AT_ONE), "local", True, True),
    "refused-past-the-sum": (lambda: _off_stage_defects(bilinear_cocycle(0.4, 2.0 ** -4, 1.0),
                                                        2.0, PAST_THE_SUM), "local", True, True),
    # every off-axis pair with t < 0 kicked: more (triple, bad pair) incidences than
    # the scan has triples, so the cost rule takes the scan
    "refused-by-the-scan": (lambda: _kicked(bilinear_cocycle(0.4, 2.0 ** -4, 1.0),
                                            [(s, t) for s in range(-16, 17) for t in range(-16, 0)
                                             if s], 2.0), "scan", True, True),
}


@pytest.mark.parametrize("name", sorted(ROUTE_CASES))
def test_certificate_route_taken_exactly_when_its_conditions_hold(name, monkeypatch):
    make, route, spans, refused = ROUTE_CASES[name]
    grid = make()
    scans = []
    monkeypatch.setattr(cocycle_module, "check_cocycle",
                        lambda g: scans.append(g) or check_cocycle(g))
    if refused:
        with pytest.raises(ValueError, match="identity fails") as err:
            trivialize(grid)
        assert str(err.value) == _reference_scan_first(grid)[0]
        assert len(scans) == (route == "scan")
        return
    res = trivialize(grid)
    assert res.precheck.route == route
    assert (res.stage_windows["final_half_index"] == grid.half_index_count) == spans
    assert len(scans) == (route == "scan")
    if route == "scan":
        assert res.precheck == check_cocycle(grid)


def test_cost_rule_weighs_a_candidate_at_four_scan_triples(monkeypatch):
    """Odd s, t in [-15, -6] kicked: the (triple, bad pair) incidences lie between a
    quarter and all of the scan's triples. Evaluating a candidate costs more than
    scanning four triples, so the grid goes to exactly one scan, refused with the
    scan's message."""
    grid = _kicked(bilinear_cocycle(0.4, 2.0 ** -4, 1.0),
                   [(s, t) for s in range(-15, 16, 2) for t in range(-15, -5)], 2.0)
    counts, scans = [], []
    touched = cocycle_module._touched_triples

    def counted(bad, k):
        out = touched(bad, k)
        counts.append(out[0])
        return out

    monkeypatch.setattr(cocycle_module, "_touched_triples", counted)
    monkeypatch.setattr(cocycle_module, "check_cocycle",
                        lambda g: scans.append(g) or check_cocycle(g))
    with pytest.raises(ValueError, match="identity fails") as err:
        trivialize(grid)
    total = cocycle_module._in_range_triples(grid.half_index_count)
    assert len(counts) == 1 and total / 4 <= counts[0] < total
    assert len(scans) == 1
    assert str(err.value) == _reference_scan_first(grid)[0]


@pytest.mark.parametrize("k", range(1, 25))
def test_certificate_counts_match_the_scan(k):
    step = ORACLE_STEP
    full = bilinear_cocycle(0.3, step, k * step)
    masked = coboundary_of(_smooth_chain(step, k * step, seed=k))
    for grid, is_full in ((full, True), (masked, False)):
        cert = cocycle_module._certificate(grid, 0.0, is_full)
        scan = check_cocycle(grid)
        assert (cert.checked, cert.skipped) == (scan.checked, scan.skipped)


# -- refusals read off the pairs the certificate cannot vouch for ----------------------

def _reference_scan_first(grid):
    """``trivialize`` in the scan-first order: ``check_cocycle`` over every triple, then
    the stages. Returns (message, result): the refusal's message and None, or None and
    the result, whose precheck is the certificate where it holds and else the scan."""
    allowed = cocycle_module.DEFECT_FACTOR * grid.step
    scan = check_cocycle(grid)
    if scan.max_identity_residual > allowed:
        return (f"cocycle identity fails: residual {scan.max_identity_residual:.3e} "
                f"exceeds the allowed defect {allowed:.3e}"), None
    try:
        result, _ = cocycle_module._stages(grid, round(math.log2(1.0 / grid.step)))
    except ValueError as err:
        return str(err), None
    if result.precheck is None or result.precheck.max_identity_residual > allowed:
        result.precheck = scan
    return None, result


def _assert_same_result(got, ref):
    for name in ("achieved_residual", "pairs_checked", "pairs_skipped", "rescale_exponent",
                 "precheck", "stage_windows"):
        assert getattr(got, name) == getattr(ref, name), name
    assert (got.chain.step, got.chain.half_range) == (ref.chain.step, ref.chain.half_range)
    assert got.chain.values.tobytes() == ref.chain.values.tobytes()
    assert got.stage_chains.keys() == ref.stage_chains.keys()
    for name, chain in ref.stage_chains.items():
        assert got.stage_chains[name].tobytes() == chain.tobytes(), name


@st.composite
def _kicked_grids(draw):
    """A ``_certified_grids`` grid with 1-4 off-axis pairs, anywhere, stage-read ones
    and masked ones included, each times e^{iε}, |ε| from half the allowed defect to 3."""
    family, grid = draw(_certified_grids())
    k = grid.half_index_count
    allowed = cocycle_module.DEFECT_FACTOR * grid.step
    index = st.integers(-k, k).filter(bool)
    kicks = draw(st.lists(st.tuples(index, index, st.floats(0.5 * allowed, 3.0),
                                    st.sampled_from([-1.0, 1.0])), min_size=1, max_size=4))
    vals = grid.values.copy()
    for s, t, eps, sign in kicks:
        vals[k + s, k + t] *= np.exp(1j * sign * eps)
    return family, CocycleGrid(grid.step, grid.half_range, vals, grid.in_window)


@given(_kicked_grids())
def test_property_refusals_match_the_scan_first_order(drawn):
    family, grid = drawn
    message, ref = _reference_scan_first(grid)
    try:
        got = trivialize(grid)
    except ValueError as err:
        assert str(err) == message, family
        return
    assert message is None, family
    _assert_same_result(got, ref)


# -- the final residual table -----------------------------------------------------------

def _reference_final_table(grid, mu_win):
    """``_stages``' final residual table as it was first built: a (2kf+1)² index table
    of s + t, a gather of μ̃ through it, and boolean gathers for the maxima. Returns
    (achieved residual, pairs checked, pairs skipped, the certificate's r or None,
    errors or None). Kept as the oracle of the Hankel-view table."""
    k = grid.half_index_count
    kf = (mu_win.size - 1) // 2
    lam_tab = grid.values[k - kf:k + kf + 1, k - kf:k + kf + 1]
    lam_ok = grid.in_window[k - kf:k + kf + 1, k - kf:k + kf + 1]
    idx = np.arange(2 * kf + 1)
    sums = idx[:, None] + idx[None, :]
    ext = cocycle_module._extended(mu_win, lam_tab, lam_ok)
    diff = mu_win[:, None] * mu_win[None, :] * np.conj(ext[sums])
    np.subtract(lam_tab, diff, out=diff)
    diff = np.abs(diff)
    near = np.abs(sums - 2 * kf) <= kf
    usable = near & lam_ok
    resid = float(np.max(diff[usable])) if usable.any() else float("nan")
    skipped = int((~usable).sum()) + int((2 * k + 1) ** 2 - (2 * kf + 1) ** 2)
    r = errors = None
    if kf == k and (bool(lam_ok.all()) or np.array_equal(lam_ok, near)):
        r, errors = float(np.max(diff[lam_ok])), diff
    return resid, int(usable.sum()), skipped, r, errors


@st.composite
def _final_table_grids(draw, shape):
    """``_certified_grids`` and ``_kicked_grids`` grids (full windows and the
    ``coboundary_of`` mask), as drawn, with one more masked off-axis pair (μ spans
    the grid but no certificate holds), or cut by 1-7 steps on each side, so that K
    is no multiple of the rescaled unit and μ stops short of it; a cut leaves K ≥ 4,
    room for the two rescaled units of the smallest unit."""
    family, grid = draw(st.one_of(_certified_grids(), _kicked_grids()))
    k = grid.half_index_count
    if shape == "holed":
        index = st.integers(-k, k).filter(bool)
        return family, _holed(grid, (draw(index), draw(index)))
    if shape == "cut":
        d = draw(st.integers(1, min(7, k - 4)))
        return family, CocycleGrid(grid.step, grid.half_range - d * grid.step,
                                   grid.values[d:-d, d:-d], grid.in_window[d:-d, d:-d])
    return family, grid


@pytest.mark.parametrize("shape", ["as-drawn", "holed", "cut"])
@given(data=st.data())
def test_property_final_table_matches_the_index_table(shape, data):
    family, grid = data.draw(_final_table_grids(shape))
    try:
        res, errors = cocycle_module._stages(grid, round(math.log2(1.0 / grid.step)))
    except ValueError:
        assume(False)                            # no table to compare: the stages refused
    resid, checked, skipped, r, ref_errors = _reference_final_table(grid, res.chain.values)
    kf = res.stage_windows["final_half_index"]
    event("kf < K" if kf < grid.half_index_count else "kf = K")
    assert np.float64(res.achieved_residual).tobytes() == np.float64(resid).tobytes(), family
    assert (res.pairs_checked, res.pairs_skipped) == (checked, skipped), family
    if r is None:
        assert res.precheck is None and errors is None, family
        return
    assert res.precheck.max_identity_residual == cocycle_module._bound(r), family
    assert errors.tobytes() == ref_errors.tobytes(), family


@pytest.mark.parametrize("tile", [1, 200])
@pytest.mark.parametrize("make", [
    lambda: bilinear_cocycle(0.4, 2.0 ** -4, 1.0),                    # full window
    lambda: coboundary_of(_smooth_chain(2.0 ** -4, 1.0, seed=3)),     # the coboundary_of mask
    _holed_grid,                                                      # holes, kf < K
    lambda: bilinear_cocycle(0.4, 2.0 ** -4, 1.25),                   # K no multiple of the unit
], ids=["full", "coboundary-mask", "holed", "cut"])
def test_final_table_in_tiles_matches_the_index_table(make, tile, monkeypatch):
    # tile=1: one row per tile; tile=200: 6 rows at kf = 16 and 4 at kf = 24, neither
    # dividing 2kf+1, so the last tile is partial
    monkeypatch.setattr(cocycle_module, "TILE_ENTRIES", tile)
    grid = make()
    res, errors = cocycle_module._stages(grid, round(math.log2(1.0 / grid.step)))
    resid, checked, skipped, r, ref_errors = _reference_final_table(grid, res.chain.values)
    assert np.float64(res.achieved_residual).tobytes() == np.float64(resid).tobytes()
    assert (res.pairs_checked, res.pairs_skipped) == (checked, skipped)
    assert (errors is None) == (r is None)
    if r is not None:
        assert res.precheck.max_identity_residual == cocycle_module._bound(r)
        assert errors.tobytes() == ref_errors.tobytes()


@pytest.mark.parametrize("entry", [1.0 + 3e-9, 1.0 - 3e-9, np.nan], ids=["above", "below", "nan"])
def test_unimodularity_message_is_the_same_with_and_without_a_mask(entry):
    """Pairs off the window are left out of the worst defect, so masking an
    unrelated pair leaves the message as it is."""
    vals = bilinear_cocycle(0.4, 0.25, 1.0).values.copy()
    vals[6, 1] *= entry
    win = np.ones(vals.shape, dtype=bool)
    win[0, 8] = False
    messages = []
    for mask in (None, win):
        with pytest.raises(ValueError, match="not unimodular") as err:
            CocycleGrid(0.25, 1.0, vals, mask)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    want = "nan" if np.isnan(entry) else f"{abs(abs(vals[6, 1]) - 1.0):.3e}"
    assert messages[0] == f"values are not unimodular (worst defect {want})"


def _brute_touched(bad, k):
    return {(i, j, l) for i in range(-k, k + 1) for j in range(-k, k + 1)
            for l in range(-k, k + 1)
            if abs(i + j) <= k and abs(j + l) <= k
            and any(bad[s + k, t + k] for s, t in cocycle_module._pairs(i, j, l))}


def _kept_triples(chunks):
    """The (i, j, l) of every triple the chunks of ``_touched_triples`` hold, in order."""
    got = []
    for i, j, l in chunks:
        got += zip(i.tolist(), j.tolist(), l.tolist())
    return got


def _oracle_triples(chunks, k):
    """The (i, j, l) of every incidence ``_per_role_touched`` yields, its ``first`` masks
    ignored, after checking that its flat indices are the four pairs of its triple in
    the order of ``_pairs``."""
    n = 2 * k + 1
    got = []
    for pairs, _ in chunks:
        i, j = (x - k for x in np.divmod(pairs[0], n))
        l = pairs[2] % n - k
        for q, (s, t) in zip(pairs, cocycle_module._pairs(i, j, l)):
            assert np.array_equal(q, (s + k) * n + t + k)
        got += zip(i.tolist(), j.tolist(), l.tolist())
    return got


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", range(1, 7))
def test_touched_triples_match_brute_force(k, seed):
    rng = np.random.default_rng(100 * k + seed)
    n = 2 * k + 1
    bad = rng.random((n, n)) < [0.0, 0.05, 0.2, 0.5][seed]
    # corner pairs: |a| = K, and |a + b| > K
    bad[[0, n - 1, n - 1], [rng.integers(n), n - 1, rng.integers(k + 1, n)]] = True
    count, chunks = cocycle_module._touched_triples(bad, k)
    got = _kept_triples(chunks)
    assert set(got) == _brute_touched(bad, k)
    assert count == len(got)


def _per_role_touched(bad, k):
    """``_touched_triples`` as it was first built: one role at a time, its interval bounds
    one range form at a time and its candidates streamed per bad pair, at most
    max(1, TILE_ENTRIES/(``_CANDIDATE_COST``·(2K+1))) pairs at a time, each triple kept
    (``first``) under its first bad pair. Kept as an oracle of the four lines: its
    incidences, kept or not, are their in-range triples."""
    n = 2 * k + 1
    a, b = np.nonzero(bad)
    a, b = a - k, b - k
    bad = bad.ravel()
    zero = np.zeros_like(a)
    roles = (((a, b, zero), (0, 0, 1)), ((a, zero, b), (-1, 1, 0)),
             ((zero, a, b), (1, 0, 0)), ((a, zero, b), (0, 1, -1)))
    lines = []
    for base, step in roles:
        lo, hi = np.full(a.size, -k), np.full(a.size, k)
        for c, d in zip(cocycle_module._range_forms(*base), cocycle_module._range_forms(*step)):
            if d:
                lo, hi = np.maximum(lo, -k - d * c), np.minimum(hi, k - d * c)
            else:
                hi = np.where(np.abs(c) <= k, hi, lo - 1)
        flat = [(s + k) * n + t + k for s, t in cocycle_module._pairs(*base)]
        slopes = [ds * n + dt for ds, dt in cocycle_module._pairs(*step)]
        lines.append((lo, np.maximum(hi - lo + 1, 0), flat, slopes))

    def chunks():
        per = max(1, cocycle_module.TILE_ENTRIES // (cocycle_module._CANDIDATE_COST * n))
        for role, (lo, length, flat, slopes) in enumerate(lines):
            for p in range(0, a.size, per):
                sl = slice(p, p + per)
                m = length[sl]
                f = np.repeat(lo[sl] - (np.cumsum(m) - m), m) + np.arange(int(m.sum()))
                pairs = [np.repeat(q[sl], m) + d * f for q, d in zip(flat, slopes)]
                first = np.ones(f.size, dtype=bool)
                for q in pairs[:role]:
                    first &= ~bad[q]
                yield pairs, first

    return sum(int(length.sum()) for _, length, _, _ in lines), chunks()


def _edge_mask(kind, k, rng):
    """A (2K+1)² mask of bad pairs: on the axes s = 0 and t = 0, on the grid's edge
    |s| = K or |t| = K (its corners included), or a few anywhere."""
    n = 2 * k + 1
    bad = np.zeros((n, n), dtype=bool)
    if kind == "axes":
        bad[k, rng.integers(0, n, 3)] = bad[rng.integers(0, n, 3), k] = True
    elif kind == "edge":
        bad[[0, n - 1], rng.integers(0, n, 2)] = bad[rng.integers(0, n, 2), [0, n - 1]] = True
        bad[[0, 0, n - 1, n - 1], [0, n - 1, 0, n - 1]] = True
    else:
        bad[rng.integers(0, n, 4), rng.integers(0, n, 4)] = True
    return bad


@pytest.mark.parametrize("tile", [None, 1], ids=["default-chunks", "one-candidate-chunks"])
@pytest.mark.parametrize("kind", ["axes", "edge", "anywhere"])
@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_stacked_touched_triples_match_the_per_role_oracle(k, kind, tile, monkeypatch):
    if tile is not None:
        monkeypatch.setattr(cocycle_module, "TILE_ENTRIES", tile)
    bad = _edge_mask(kind, k, np.random.default_rng(10 * k + len(kind)))
    n = 2 * k + 1
    # a chunk holds the lines of `per` bad pairs: at most `cap` triples, or one pair's lines
    per = max(1, cocycle_module.TILE_ENTRIES // (cocycle_module._CANDIDATE_COST * 4 * n))
    cap = max(1, cocycle_module.TILE_ENTRIES // cocycle_module._CANDIDATE_COST)
    count, chunks = cocycle_module._touched_triples(bad, k)
    chunks = list(chunks)
    assert len(chunks) == -(-int(bad.sum()) // per)
    assert all(c.shape[1] <= cap or (per == 1 and c.shape[1] <= 4 * n) for c in chunks)
    ref_count, ref_chunks = _per_role_touched(bad, k)
    got = _kept_triples(chunks)
    assert count == ref_count == len(got)
    assert Counter(got) == Counter(_oracle_triples(ref_chunks, k))
    assert set(got) == _brute_touched(bad, k)


EDGE_KICKS = {
    # pairs no stage reads, so each grid has exactly these bad pairs
    "edge-row": [(16, -5)],
    "edge-column": [(-7, -16)],
    "corner": [(-16, 16)],
    "next-to-the-axes": [(1, -1), (-1, 3)],
}


@pytest.mark.parametrize("tile", [None, 1], ids=["default-chunks", "one-candidate-chunks"])
@pytest.mark.parametrize("name", sorted(EDGE_KICKS))
def test_local_refusal_of_edge_pairs_matches_the_scan_first_order(name, tile, monkeypatch):
    grid = _kicked(bilinear_cocycle(0.4, 2.0 ** -4, 1.0), EDGE_KICKS[name], 2.0)
    message = _reference_scan_first(grid)[0]
    if tile is not None:
        monkeypatch.setattr(cocycle_module, "TILE_ENTRIES", tile)
    scans = []
    monkeypatch.setattr(cocycle_module, "check_cocycle",
                        lambda g: scans.append(g) or check_cocycle(g))
    with pytest.raises(ValueError, match="identity fails") as err:
        trivialize(grid)
    assert not scans                                     # refused locally
    assert str(err.value) == message


MANY_BAD_PAIRS = {
    # a smooth coboundary kicked on λ(unit, 3), which stage 1 reads: μ moves, and
    # every pair whose error it moves loses the bound
    "K32-full": (5, lambda step: _full_coboundary(step, 1.0, (0.3, 0.7, 1.1), (0.4, -0.3, 0.2),
                                                   (0.5, 2.0, 4.0)), 180),
    "K32-coboundary-mask": (5, lambda step: coboundary_of(_smooth_chain(step, 1.0, seed=0)), 133),
    "K64-full": (6, lambda step: _full_coboundary(step, 1.0, (0.3, 0.7, 1.1), (0.4, -0.3, 0.2),
                                                   (0.5, 2.0, 4.0)), 372),
    "K64-coboundary-mask": (6, lambda step: coboundary_of(_smooth_chain(step, 1.0, seed=0)), 277),
}


@pytest.mark.parametrize("name", sorted(MANY_BAD_PAIRS))
def test_local_refusal_of_many_bad_pairs_matches_the_scan_first_order(name, monkeypatch):
    exponent, make, n_bad = MANY_BAD_PAIRS[name]
    source = make(2.0 ** -exponent)
    unit = cocycle_module._stages(source, exponent)[0].stage_windows["unit"]
    grid = _kicked(source, [(unit, 3)], 2.0)
    _, errors = cocycle_module._stages(grid, exponent)
    allowed = cocycle_module.DEFECT_FACTOR * grid.step
    assert np.count_nonzero((cocycle_module._bound(errors) > allowed) & grid.in_window) == n_bad
    message = _reference_scan_first(grid)[0]
    scans = []
    monkeypatch.setattr(cocycle_module, "check_cocycle",
                        lambda g: scans.append(g) or check_cocycle(g))
    with pytest.raises(ValueError, match="identity fails") as err:
        trivialize(grid)
    assert not scans                                     # refused locally
    assert str(err.value) == message


def test_an_empty_final_window_is_refused_by_name():
    """A hole at λ(-unit, 3), unit = 8, leaves μ⁰ undefined on [-5, -1], so μ has no
    window beyond 0. A grid that also fails the identity is refused for that first."""
    grid = _holed(bilinear_cocycle(0.4, 2.0 ** -4, 1.0), (-8, 3))
    with pytest.raises(ValueError) as err:
        trivialize(grid)
    assert str(err.value) == "empty final window: a window hole next to 0 stops the stages"
    kicked = _kicked(grid, [(5, -7)], 2.0)
    with pytest.raises(ValueError, match="identity fails") as err:
        trivialize(kicked)
    assert str(err.value) == _reference_scan_first(kicked)[0]


@pytest.mark.parametrize("make", [
    _holed_grid,
    lambda: coboundary_of(_smooth_chain(2.0 ** -5, 2.0, seed=21)),
    lambda: bilinear_cocycle(0.4, 2.0 ** -6, 1.0),
])
def test_stages_look_up_the_grid_once(make, monkeypatch):
    """Stage 1's segment table is the only lookup of λ that can leave the window; the
    later stages read λ¹ off stage 2's table."""
    grid = make()
    calls = []
    grid_at = cocycle_module._grid_at
    monkeypatch.setattr(cocycle_module, "_grid_at",
                        lambda g, i, j: calls.append((i, j)) or grid_at(g, i, j))
    res, _ = cocycle_module._stages(grid, round(math.log2(1.0 / grid.step)))
    assert len(calls) == 1
    seg_i, seg_j = cocycle_module._segments(grid.half_index_count, res.stage_windows["unit"])
    assert np.array_equal(calls[0][0], seg_i) and np.array_equal(calls[0][1], seg_j)


@pytest.mark.parametrize("shape", ["as-drawn", "holed", "cut"])
@given(data=st.data())
def test_property_stages_match_the_closure_route(shape, data):
    family, grid = data.draw(_final_table_grids(shape))
    try:
        res, _ = cocycle_module._stages(grid, round(math.log2(1.0 / grid.step)))
    except ValueError:
        assume(False)                            # no chains to compare: the stages refused
    mu0, mu1, mu2, chain = _reference_stages(grid, res.stage_windows["unit"])
    for name, ref in (("mu0", mu0), ("mu1", mu1), ("mu2", mu2)):
        assert res.stage_chains[name].tobytes() == ref.tobytes(), (family, name)
    assert res.chain.values.tobytes() == chain.tobytes(), family


@pytest.mark.parametrize("step,half,message", [
    (0.0, 1.0, "step must be positive, got 0.0"),
    (-0.25, -1.0, "step must be positive, got -0.25"),
    (1e-320, 1.0, "step must be a finite normal number, got 1e-320"),
    (math.nan, 1.0, "step must be a finite normal number, got nan"),
    (0.25, math.inf, "half_range must be a finite normal number, got inf"),
    (0.25, -math.inf, "half_range must be a finite normal number, got -inf"),
    (0.25, math.nan, "half_range must be a finite normal number, got nan"),
    (0.25, 5e-324, "half_range must be a finite normal number, got 5e-324"),
    (0.25, 10 ** 400, f"half_range must be a finite normal number, got {10 ** 400}"),
    (1e-300, 1e300, "half_range/step overflows: 1e+300/1e-300"),
], ids=["zero-step", "negative-step", "subnormal-step", "nan-step", "infinite-half-range",
        "negative-infinite-half-range", "nan-half-range", "subnormal-half-range",
        "integer-past-the-float-range", "overflowing-ratio"])
def test_bad_sizes_are_refused_by_value(step, half, message):
    for make in (lambda: CocycleGrid(step, half, np.ones((9, 9), dtype=complex)),
                 lambda: Cochain(step, half, np.ones(9, dtype=complex)),
                 lambda: bilinear_cocycle(0.4, step, half)):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message
