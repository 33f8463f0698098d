"""Circle-valued 2-cocycles on a grid: checking, coboundaries, trivialization."""

import math

import numpy as np
import pytest

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
