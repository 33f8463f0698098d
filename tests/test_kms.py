"""Equilibrium states: the exchange condition, the simplex, corners, the cone."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmslab import (
    BlockAlgebra,
    Functional,
    InnerFlow,
    KmsWeight,
    Projection,
    coefficients_of,
    dominated_decomposition,
    extend_from_corner,
    from_trace,
    gibbs,
    is_positive,
    kms_bundle_fd,
    kms_simplex,
    lattice_join,
    lattice_meet,
    random_element,
    random_hermitian,
    restrict_to_corner,
    simplex_sweep,
    support_compression,
    trace_of,
    verify_kms,
)
from kmslab import bundle, kms
from kmslab.algebra import _exchange_sheets, _exchange_witness, random_state
from kmslab.kms import EXP_CAP

RNG = np.random.default_rng(1123)


def _random_flow(dims, scale=1.0, rng=RNG):
    alg = BlockAlgebra(dims)
    return InnerFlow(alg, random_hermitian(alg, rng, scale=scale))


def _trace_state(alg):
    return Functional(alg, (1.0 / alg.rep_dim) * alg.identity())


def test_gibbs_passes_exchange_check():
    for trial in range(6):
        rng = np.random.default_rng(300 + trial)
        flow = _random_flow((4,), rng=rng)
        for beta in (-1.5, 0.0, 2.0):
            v = verify_kms(flow, gibbs(flow, beta), beta, tol=1e-9)
            assert v.passed, f"residual {v.max_residual:.3e} at beta={beta}"
            assert v.residual_exchange <= 1e-9
            assert v.residual_half_shift <= 1e-9


def test_trace_fails_exchange_with_known_defect():
    # two-level system, unit inverse temperature: the defect on the
    # off-diagonal matrix-unit pair is exactly (e - 1)/2
    alg = BlockAlgebra((2,))
    flow = InnerFlow(alg, alg.element([np.diag([0.0, 1.0]).astype(complex)]))
    v = verify_kms(flow, _trace_state(alg), beta=1.0, tol=1e-9)
    assert not v.passed
    assert abs(v.max_residual - (math.e - 1.0) / 2.0) < 1e-12
    assert v.worst_pair in (((0, 0, 1), (0, 1, 0)), ((0, 1, 0), (0, 0, 1)))


def _reference_route_one(flow, omega, beta):
    """verify_kms's route one as the n⁴ einsum tensors, kept as the oracle."""
    worst = None
    worst_val = 0.0
    for b, (w, dd) in enumerate(zip(flow.eigenvalues, flow.to_eigenbasis(omega.density))):
        n = w.size
        eye = np.eye(n)
        fac = np.exp(-beta * (w[:, None] - w[None, :]))          # fac[k,l]
        lhs = np.einsum("lm,nk->klmn", eye, dd)
        rhs = np.einsum("kl,nk,lm->klmn", fac, eye, dd)
        resid = np.abs(lhs - rhs)
        k, l, m, nn = np.unravel_index(int(np.argmax(resid)), resid.shape)
        if resid[k, l, m, nn] >= worst_val:
            worst_val = float(resid[k, l, m, nn])
            worst = ((b, int(k), int(l)), (b, int(m), int(nn)))
    return worst_val, worst


def _diag_flow(*blocks):
    alg = BlockAlgebra(tuple(len(w) for w in blocks))
    return InnerFlow(alg, alg.element([np.diag(np.asarray(w, float)).astype(complex)
                                       for w in blocks]))


def _route_one_cases():
    """(flow, functional, β) covering Gibbs, tracial, random, degenerate,
    zero, non-Hermitian and multi-block tie inputs."""
    rng = np.random.default_rng(4242)
    cases = []
    for dims in [(1,), (2,), (4,), (2, 3), (3, 1, 2)]:
        flow = _random_flow(dims, rng=rng)
        alg = flow.algebra
        for beta in (-1.5, 0.0, 0.7, 3.0):
            cases.append((flow, gibbs(flow, beta).functional, beta))
            cases.append((flow, _trace_state(alg), beta))
            cases.append((flow, random_state(alg, rng), beta))
        cases.append((flow, Functional(alg, alg.zero()), 1.0))
        blocks = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in dims]
        cases.append((flow, Functional(alg, alg.element(blocks), check=False), 1.2))
    # degenerate spectra: many pairs tie for the maximum
    for eigs in [(0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0), (2.0, 1.0, 1.0, 0.0, 0.0)]:
        flow = _diag_flow(eigs)
        for beta in (0.0, 1.0, -2.0):
            cases.append((flow, _trace_state(flow.algebra), beta))
            cases.append((flow, random_state(flow.algebra, rng), beta))
    # the (e−1)/2 pairing; identical blocks tie and the later one must win;
    # a later block may win outright
    for blocks in [((0.0, 1.0),), ((0.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
                   ((0.0, 1.0), (0.0, 2.0)), ((0.0, 2.0), (0.0, 1.0), (5.0,))]:
        flow = _diag_flow(*blocks)
        for beta in (1.0, -0.5):
            cases.append((flow, _trace_state(flow.algebra), beta))
    return cases


def test_route_one_matches_reference_route():
    cases = _route_one_cases()
    for flow, omega, beta in cases:
        want_val, want_pair = _reference_route_one(flow, omega, beta)
        v = verify_kms(flow, omega, beta, samples=1)
        assert (v.residual_exchange, v.worst_pair) == (want_val, want_pair), \
            (flow.algebra.block_dims, beta)
        assert type(v.residual_exchange) is float
    # the tie cases really exercise the later-block rule
    tie = _diag_flow((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    assert verify_kms(tie, _trace_state(tie.algebra), 1.0, samples=1).worst_pair[0][0] == 2
    zero = Functional(tie.algebra, tie.algebra.zero())
    assert verify_kms(tie, zero, 1.0, samples=1).worst_pair == ((2, 0, 0), (2, 0, 0))


def _route_one_nan_cases():
    """(flow, functional, β, the block whose witness is reported) for densities with NaN
    in some blocks of a (2, 2, 2) flow: a NaN spreads over its eigenbasis block, the NaN
    maximum sticks against later finite blocks, larger ones too, and the last NaN block
    gives the witness, at its first pair (0, 0, 0, 0)."""
    flow = _diag_flow((0.0, 1.0), (0.0, 2.0), (0.0, 0.5))
    alg = flow.algebra
    cases = []
    for nan_blocks, big in [((0, 2), None), ((0,), None), ((1,), None), ((0, 1), 2),
                            ((2,), 0), ((0,), 1)]:
        blocks = [np.eye(2, dtype=complex) / 6 for _ in range(3)]
        if big is not None:
            blocks[big] = np.array([[5.0, 3.0], [3.0, 1e-3]], dtype=complex)
        for b in nan_blocks:
            blocks[b][0, 1] = np.nan
        cases.append((flow, Functional(alg, alg.element(blocks), check=False), 1.0,
                      nan_blocks[-1]))
    return cases


def test_route_one_nan_rule():
    for flow, omega, beta, block in _route_one_nan_cases():
        v = verify_kms(flow, omega, beta, samples=1)
        assert math.isnan(v.residual_exchange) and not v.passed
        assert v.worst_pair == ((block, 0, 0), (block, 0, 0))
        # the reported block's own maximum and witness
        w, dd = flow.eigenvalues[block], flow.to_eigenbasis(omega.density)[block]
        fac = np.exp(-beta * (w[:, None] - w[None, :]))
        val, sheets = _exchange_sheets(dd, fac)
        pair = _exchange_witness(dd, fac, sheets, val)
        assert math.isnan(val) and pair == (0, 0, 0, 0)


def _reference_route_two(flow, omega, beta, samples=100, seed=7):
    """verify_kms's route two as the per-sample loop over AlgElements, kept as the oracle."""
    rng = np.random.default_rng(seed)
    residual_half = 0.0
    for _ in range(samples):
        a = random_element(flow.algebra, rng)
        a = (1.0 / max(a.fro_norm(), 1e-30)) * a
        g = flow.continue_analytic(a, -0.5j * beta)
        lhs = omega(a.adjoint() @ a)
        rhs = omega(g @ g.adjoint())
        residual_half = max(residual_half, abs(lhs - rhs))
    return residual_half


def _assert_route_two_matches(flow, omega, beta, samples=100, tol=1e-8):
    want = _reference_route_two(flow, omega, beta, samples)
    v = verify_kms(flow, omega, beta, tol=tol, samples=samples)
    # both routes round entries of size up to e^{|β|·spread/2}, so that is how
    # far apart two correct routes' rounding may put them
    cond = math.exp(0.5 * abs(beta) * flow.spectral_spread)
    assert abs(v.residual_half_shift - want) <= 1e-12 * max(1.0, want) * cond, \
        (flow.algebra.block_dims, beta, v.residual_half_shift, want)
    assert v.passed == (max(v.residual_exchange, want) <= tol)
    assert type(v.residual_half_shift) is float and type(v.max_residual) is float


def test_route_two_matches_reference_loop():
    for flow, omega, beta in _route_one_cases():
        _assert_route_two_matches(flow, omega, beta, samples=30)


@pytest.fixture
def no_kept_prefix(monkeypatch):
    """Route two's kept normal prefix emptied for this test, and put back after it."""
    monkeypatch.setattr(kms, "_normal_prefix", None)


def _spy_generators(monkeypatch):
    """The seeds of every ``default_rng`` made from now on: each draws normals."""
    seeds, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: seeds.append(seed)
                        or default_rng(seed))
    return seeds


def test_route_two_draws_the_same_samples_in_any_chunking(monkeypatch, no_kept_prefix):
    # (16,) and (3, 20) take several chunks at the default size; one sample
    # per chunk and one chunk for all must see the very same samples, drawn
    # chunk by chunk (cap 0) or read from the kept prefix
    rng = np.random.default_rng(77)
    chunk, cap = kms._HALF_SHIFT_CHUNK_ENTRIES, kms._NORMAL_PREFIX_CAP
    flows = {}
    for dims in [(16,), (3, 20)]:
        flow = flows[dims] = _random_flow(dims, rng=rng)
        states = [gibbs(flow, -1.1).functional, random_state(flow.algebra, rng)]
        for kept in (0, cap):
            monkeypatch.setattr(kms, "_NORMAL_PREFIX_CAP", kept)
            kms._normal_prefix = None
            for entries in (chunk, 1, 2 ** 40):
                monkeypatch.setattr(kms, "_HALF_SHIFT_CHUNK_ENTRIES", entries)
                for omega in states:
                    _assert_route_two_matches(flow, omega, -1.1)
                    assert (kms._normal_prefix is None) == (kept == 0)
    monkeypatch.setattr(kms, "_HALF_SHIFT_CHUNK_ENTRIES", chunk)
    # the kept prefix gives them bit for bit: cold, warm from a wider or a narrower
    # call, and for two seeds interleaved, against no store at all (cap 0)
    flows = {(4,): _random_flow((4,), rng=rng), **flows}        # narrowest first
    states = {dims: random_state(flow.algebra, rng) for dims, flow in flows.items()}

    def residuals(order):
        return {(dims, seed): verify_kms(flows[dims], states[dims], -1.1,
                                         seed=seed).residual_half_shift.hex()
                for dims, seed in order}

    interleaved = [(dims, seed) for dims in flows for seed in (7, 11)]
    monkeypatch.setattr(kms, "_NORMAL_PREFIX_CAP", 0)
    kms._normal_prefix = None
    fresh = residuals(interleaved)
    assert kms._normal_prefix is None
    monkeypatch.setattr(kms, "_NORMAL_PREFIX_CAP", cap)
    drawn = _spy_generators(monkeypatch)
    assert residuals(interleaved) == fresh              # cold at every change of seed
    assert drawn == [7, 11] * 3
    seed, prefix = kms._normal_prefix
    assert seed == 11 and prefix.size == 100 * 2 * flows[(3, 20)].algebra.coord_dim
    with pytest.raises(ValueError, match="read-only"):
        prefix[0] = 0.0
    drawn.clear()
    widest_first = [(dims, 11) for dims in reversed(flows)]
    assert residuals(widest_first) == {k: fresh[k] for k in widest_first}
    assert drawn == []                                  # warm from wider or the same
    kms._normal_prefix = None
    narrowest_first = [(dims, 7) for dims in flows]
    assert residuals(narrowest_first) == {k: fresh[k] for k in narrowest_first}
    assert drawn == [7, 7, 7]                           # warm from narrower: redrawn


def test_kept_prefix_is_a_read_only_fresh_draw(no_kept_prefix):
    want = np.random.default_rng(7).standard_normal(1000)
    for count in (10, 1000, 3, 1000):
        got = kms._seeded_normals(7, count)
        assert got.tobytes() == want[:count].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0
    kept = kms._normal_prefix
    assert kept[0] == 7 and kept[1].size == 1000
    for refused in ((7, 0), (7, kms._NORMAL_PREFIX_CAP + 1), (-1, 10), (None, 10),
                    ([1, 2], 10), (7.0, 10)):
        assert kms._seeded_normals(*refused) is None
    assert kms._normal_prefix is kept


def test_route_two_seeds_keep_their_meaning(monkeypatch, no_kept_prefix):
    flow = _random_flow((3, 2), rng=np.random.default_rng(78))
    omega = random_state(flow.algebra, np.random.default_rng(79))
    drawn = _spy_generators(monkeypatch)
    # a numpy integer is its int: one prefix, drawn once
    plain = verify_kms(flow, omega, 0.8, seed=7)
    assert verify_kms(flow, omega, 0.8, seed=np.int64(7)) == plain
    assert kms._normal_prefix[0] == 7 and drawn == [7]
    # no seed is fresh entropy on every call, and nothing is kept for it
    first, second = (verify_kms(flow, omega, 0.8, seed=None) for _ in range(2))
    assert first.residual_half_shift != second.residual_half_shift
    # a sequence seeds default_rng as before
    v = verify_kms(flow, omega, 0.8, seed=[1, 2])
    want = _reference_route_two(flow, omega, 0.8, seed=[1, 2])
    assert abs(v.residual_half_shift - want) <= 1e-12 * max(1.0, want)
    assert kms._normal_prefix[0] == 7
    # a negative seed is refused by default_rng, as before
    with pytest.raises(ValueError, match="non-negative"):
        verify_kms(flow, omega, 0.8, seed=-1)
    # another integer seed takes the one kept prefix over
    verify_kms(flow, omega, 0.8, seed=3)
    assert kms._normal_prefix[0] == 3


def test_verify_refuses_negative_samples(monkeypatch):
    # samples=-5 used to pass with route two skipped
    flow = _diag_flow((0.0, 1.0))
    drawn = _spy_generators(monkeypatch)
    with pytest.raises(ValueError, match="samples must be non-negative, got -5"):
        verify_kms(flow, gibbs(flow, 1.0), 1.0, samples=-5)
    assert drawn == []
    assert verify_kms(flow, gibbs(flow, 1.0), 1.0, samples=0).residual_half_shift == 0.0


def test_route_two_threads_see_the_serial_samples(monkeypatch, no_kept_prefix):
    """Threads sharing the kept prefix, over widths on both sides of the cap and
    several seeds, get the residuals of a serial run without it."""
    rng = np.random.default_rng(80)
    flows = [_random_flow(dims, rng=rng) for dims in [(2,), (8,), (16,), (3, 20), (40,)]]
    assert 100 * 2 * flows[-1].algebra.coord_dim > kms._NORMAL_PREFIX_CAP
    jobs = [(flow, random_state(flow.algebra, rng), seed)
            for flow in flows for seed in (7, 11, 0, 3, 5)]

    def half_shift(job):
        flow, omega, seed = job
        return verify_kms(flow, omega, 0.6, seed=seed).residual_half_shift.hex()

    cap = kms._NORMAL_PREFIX_CAP
    monkeypatch.setattr(kms, "_NORMAL_PREFIX_CAP", 0)
    serial = [half_shift(job) for job in jobs]
    monkeypatch.setattr(kms, "_NORMAL_PREFIX_CAP", cap)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            kms._normal_prefix = None
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(half_shift, job) for job in jobs]
                assert [f.result(timeout=60) for f in futures] == serial
            seed, prefix = kms._normal_prefix
            assert seed in (7, 11, 0, 3, 5) and not prefix.flags.writeable
    finally:
        sys.setswitchinterval(interval)


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def _equilibrium_problems(draw):
    """1–4 blocks of size ≤ 8, β of either sign, and a Gibbs, tracial or random
    state, on generic or degenerate spectra."""
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)))
    beta = draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["gibbs", "tracial", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alg = BlockAlgebra(dims)
    if draw(st.booleans()):         # degenerate: eigenvalues from {0, 1, 2}
        blocks = []
        for n in dims:
            q = _unitary(rng, n)
            blocks.append((q * rng.choice([0.0, 1.0, 2.0], n)) @ q.conj().T)
        flow = InnerFlow(alg, alg.element(blocks))
    else:
        flow = InnerFlow(alg, random_hermitian(alg, rng, scale=draw(st.floats(0.1, 3.0))))
    omega = {"gibbs": lambda: gibbs(flow, beta).functional,
             "tracial": lambda: _trace_state(alg),
             "random": lambda: random_state(alg, rng)}[kind]()
    return flow, omega, beta


@given(_equilibrium_problems())
def test_property_route_two_matches_reference_loop(problem):
    _assert_route_two_matches(*problem)


@given(_equilibrium_problems(), st.sampled_from(["as drawn", "zero", "non-hermitian", "rounded"]),
       st.integers(0, 2 ** 32 - 1))
def test_property_route_one_matches_reference_route(problem, swap, seed):
    """Route one's residual and worst pair against the n⁴ tensors, on the drawn state or
    on a zero, non-Hermitian or rounded (tied) density in its place."""
    flow, omega, beta = problem
    alg, rng = flow.algebra, np.random.default_rng(seed)
    dims = alg.block_dims
    if swap == "zero":
        omega = Functional(alg, alg.zero())
    elif swap == "non-hermitian":
        blocks = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in dims]
        omega = Functional(alg, alg.element(blocks), check=False)
    elif swap == "rounded":
        blocks = [(rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))) / 4.0
                  for n in dims]
        omega = Functional(alg, alg.element(blocks), check=False)
    v = verify_kms(flow, omega, beta, samples=1)
    assert (v.residual_exchange, v.worst_pair) == _reference_route_one(flow, omega, beta)


@pytest.mark.parametrize("dims, beta", [((2,), 1.0), ((6,), -1.0), ((3, 2), 2.0),
                                        ((6, 1), -3.0)])
def test_route_two_near_the_exp_cap(dims, beta):
    """|β|·spread = 690: the tracial state's residual, near e^690, stays finite and
    agrees with the per-sample loop, on a diagonal and on a generic generator, and a
    Gibbs state on the diagonal one (whose eigenbasis is exact) still passes."""
    rng = np.random.default_rng(sum(dims))
    alg = BlockAlgebra(dims)
    # the first block spans [−1, 1]: every other block lies inside it
    eigs = [np.sort(np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, dims[0] - 2))))]
    eigs += [np.sort(rng.uniform(-1.0, 1.0, n)) for n in dims[1:]]
    scale = 690.0 / (2.0 * abs(beta))
    diag = InnerFlow(alg, alg.element([np.diag(scale * w).astype(complex) for w in eigs]))
    q = [_unitary(rng, n) for n in dims]
    generic = InnerFlow(alg, alg.element([(u * (scale * w)) @ u.conj().T for u, w in zip(q, eigs)]))
    for flow in (diag, generic):
        assert abs(abs(beta) * flow.spectral_spread - 690.0) < 1e-9
        want = _reference_route_two(flow, _trace_state(alg), beta, samples=30)
        v = verify_kms(flow, _trace_state(alg), beta, samples=30)
        assert math.isfinite(v.residual_half_shift) and not v.passed
        # the bound of _assert_route_two_matches, divided through: its product overflows
        cond = math.exp(0.5 * abs(beta) * flow.spectral_spread)
        assert abs(v.residual_half_shift - want) / max(1.0, want) <= 1e-12 * cond
    assert verify_kms(diag, gibbs(diag, beta), beta, samples=30).passed


def test_nan_density_fails_verification():
    # a NaN entry used to vanish in `>` and Python's max, and this passed
    flow = _diag_flow((0.0, 1.0))
    nan = Functional(flow.algebra, flow.algebra.element([np.array([[np.nan, 0.0], [0.0, 0.5]])]),
                     check=False)
    v = verify_kms(flow, nan, 1.0)
    assert not v.passed
    assert np.isnan(v.max_residual)
    assert np.isnan(v.residual_exchange) and np.isnan(v.residual_half_shift)
    # either route's NaN alone reaches the verdict
    only_one = verify_kms(flow, nan, 1.0, samples=0)
    assert only_one.residual_half_shift == 0.0 and not only_one.passed
    assert np.isnan(kms._half_shift_residual(flow, flow.to_eigenbasis(nan.density), 1.0, 5, 7))


def test_verify_refuses_beta_beyond_exp_cap():
    # e^{β·10} overflows at β = 100; inf·0 used to turn every residual into a
    # NaN that the maximum dropped, so the tracial state passed
    flow = _diag_flow((0.0, 10.0))
    with pytest.raises(ValueError, match=f"exceeds {EXP_CAP:g}"):
        verify_kms(flow, _trace_state(flow.algebra), 100.0)
    with pytest.raises(ValueError, match=f"exceeds {EXP_CAP:g}"):
        verify_kms(flow, _trace_state(flow.algebra), -70.5)
    # the cap is on the spread within a block, which is all the exchange uses
    wide = _diag_flow((0.0, 1.0), (50.0, 51.0))
    assert not verify_kms(wide, _trace_state(wide.algebra), 60.0, samples=1).passed


def test_verify_runs_past_half_the_strip_cap():
    """Neither route continues σ analytically, so |β|/2 above flow.IM_CAP = 50 is no
    refusal: EXP_CAP bounds every factor the routes form. β = ±150 on diag(0, 1)
    used to raise "exceeds the analytic strip bound" although gibbs built the state."""
    flow = _diag_flow((0.0, 1.0))
    for beta in (150.0, -150.0):
        v = verify_kms(flow, gibbs(flow, beta), beta)
        assert v.passed and v.max_residual <= 1e-12
    v = verify_kms(flow, _trace_state(flow.algebra), 150.0)
    assert not v.passed and math.isfinite(v.max_residual)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_non_finite_beta_is_refused(beta):
    """A non-finite β is bad input: e^{-βh} at β = NaN used to give a NaN density
    (and a verdict computed from it) instead of an error."""
    flow = _diag_flow((0.0, 1.0), (0.5,))
    with pytest.raises(ValueError, match="is not finite"):
        gibbs(flow, beta)
    with pytest.raises(ValueError, match="is not finite|strip bound"):     # ±inf: the strip
        verify_kms(flow, _trace_state(flow.algebra), beta)
    with pytest.raises(ValueError, match="is not finite"):
        simplex_sweep(flow, [0.5, beta])
    # a spread of 0 makes |β|·spread NaN at β = ±inf, which is refused too
    with pytest.raises(ValueError, match="is not finite"):
        gibbs(_diag_flow((2.0,)), beta)


def test_verify_memory_stays_quadratic(no_kept_prefix):
    flow = _random_flow((64,), rng=np.random.default_rng(64))
    psi = gibbs(flow, 0.5)
    tracemalloc.start()
    try:
        v = verify_kms(flow, psi, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.passed
    assert peak <= 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    # 100 samples of 2·64² draws are past the cap: drawn in chunks, none kept
    assert kms._normal_prefix is None


def test_trace_is_equilibrium_at_beta_zero():
    flow = _random_flow((2, 3))
    tau = _trace_state(flow.algebra)
    assert verify_kms(flow, tau, 0.0, tol=1e-10).passed
    # and gibbs at beta = 0 *is* the trace
    g = gibbs(flow, 0.0)
    assert (g.density - tau.density).norm() < 1e-12


def test_gibbs_coefficients_are_uniform():
    flow = _random_flow((2, 3, 2))
    gam = coefficients_of(gibbs(flow, 1.7))
    assert np.allclose(gam, gam[0], rtol=1e-10)


def test_coefficients_reject_non_equilibrium():
    flow = _random_flow((3,), scale=2.0)
    phi = Functional(flow.algebra, (1.0 / 3.0) * flow.algebra.identity())
    with pytest.raises(ValueError):
        coefficients_of(phi, flow, beta=1.0)


def test_full_matrix_algebra_has_unique_equilibrium():
    for n in (2, 3, 5):
        flow = _random_flow((n,))
        s = kms_simplex(flow, 1.0)
        assert s.dimension == 0
        assert len(s.vertices) == 1
        assert (s.vertices[0].density - gibbs(flow, 1.0).density).norm() < 1e-10


def test_simplex_vertex_count_matches_center():
    rng = np.random.default_rng(77)
    for dims in [(2, 2), (1, 3, 2), (2, 1, 1, 4)]:
        flow = _random_flow(dims, rng=rng)
        s = kms_simplex(flow, 0.8)
        assert len(s.vertices) == len(dims)
        assert s.dimension == len(dims) - 1
        # each vertex charges exactly one block
        for k, v in enumerate(s.vertices):
            masses = [float(np.real(np.trace(b))) for b in v.density.blocks]
            assert abs(masses[k] - 1.0) < 1e-10
            assert sum(masses) == pytest.approx(1.0, abs=1e-10)


def test_simplex_vertices_share_one_read_only_zero_block_per_shape():
    flow = _random_flow((2, 3, 2), rng=np.random.default_rng(78))
    s = kms_simplex(flow, 0.8)
    zeros = {}
    for i, v in enumerate(s.vertices):
        for j, b in enumerate(v.density.blocks):
            assert not b.flags.writeable
            if j != i:
                assert not b.any() and zeros.setdefault(b.shape, b) is b
    assert len(zeros) == 2


def test_simplex_mixtures_verify_and_invert():
    rng = np.random.default_rng(9)
    flow = _random_flow((2, 3, 2), rng=rng)
    beta = 1.3
    s = kms_simplex(flow, beta)
    for _ in range(20):
        w = rng.dirichlet(np.ones(len(s.vertices)))
        psi = s.mix(w)
        assert verify_kms(flow, psi, beta, tol=1e-9).passed
        w_back = s.barycentric_of(psi)
        assert np.max(np.abs(w_back - w)) < 1e-10


def test_mix_rejects_bad_weights():
    flow = _random_flow((2, 2))
    s = kms_simplex(flow, 1.0)
    with pytest.raises(ValueError):
        s.mix([0.7, 0.7])
    with pytest.raises(ValueError):
        s.mix([1.5, -0.5])


def test_mix_refuses_nan_weights_by_name():
    s = kms_simplex(_random_flow((2, 2)), 1.0)
    for weights in ([math.nan, 1.0], [1.0, math.nan]):
        with pytest.raises(ValueError, match="weights must be a probability vector"):
            s.mix(weights)


def test_trace_pairing_roundtrip():
    rng = np.random.default_rng(123)
    flow = _random_flow((2, 3), rng=rng)
    beta = 0.9
    s = kms_simplex(flow, beta)
    for _ in range(10):
        psi = s.mix(rng.dirichlet(np.ones(2)))
        tau = trace_of(psi)
        back = from_trace(tau, flow, beta)
        assert (back.density - psi.density).norm() < 1e-12


def test_from_trace_requires_a_trace():
    flow = _random_flow((2, 2))
    phi = Functional(flow.algebra, gibbs(flow, 2.0).density)
    if not verify_kms(flow, phi, 0.0, tol=1e-9).passed:  # phi is not tracial
        with pytest.raises(ValueError, match="not a trace"):
            from_trace(phi, flow, 1.0)


def _invariant_full_projection(flow, rng):
    """A projection commuting with the generator, nonzero in every block."""
    blocks = []
    for h in flow.generator.blocks:
        n = h.shape[0]
        _, u = np.linalg.eigh(h)
        keep = rng.integers(1, n + 1)
        pattern = np.zeros(n)
        pattern[rng.permutation(n)[:keep]] = 1.0
        blocks.append(u @ np.diag(pattern).astype(complex) @ u.conj().T)
    return Projection(flow.algebra.element(blocks))


def test_corner_roundtrip_on_invariant_projections():
    rng = np.random.default_rng(2024)
    flow = _random_flow((2, 3), rng=rng)
    beta = 1.1
    s = kms_simplex(flow, beta)
    for _ in range(8):
        psi = s.mix(rng.dirichlet(np.ones(2)))
        p = _invariant_full_projection(flow, rng)
        res = restrict_to_corner(psi, p)
        assert res.full
        assert 0.0 < res.weight <= 1.0 + 1e-12
        back = extend_from_corner(res.state, flow, beta, p)
        assert (back.density - psi.density).norm() < 1e-10


def test_corner_restriction_is_equilibrium_for_compressed_flow():
    rng = np.random.default_rng(31)
    flow = _random_flow((3,), rng=rng)
    psi = gibbs(flow, 0.7)
    p = _invariant_full_projection(flow, rng)
    res = restrict_to_corner(psi, p)
    assert verify_kms(res.state.flow, res.state, 0.7, tol=1e-9).passed


def test_extension_needs_full_projection():
    flow = _random_flow((2, 2))
    beta = 1.0
    zero2 = np.zeros((2, 2), dtype=complex)
    p = Projection(flow.algebra.element([np.eye(2, dtype=complex), zero2]))
    res = restrict_to_corner(gibbs(flow, beta), p)
    with pytest.raises(ValueError, match="misses block"):
        extend_from_corner(res.state, flow, beta, p)


def test_support_compression_drops_uncharged_blocks():
    flow = _random_flow((2, 3, 2))
    s = kms_simplex(flow, 1.0)
    vertex = s.vertices[1]
    compressed, kept = support_compression(vertex)
    assert kept == (1,)
    assert all(np.linalg.eigvalsh((d + d.conj().T) / 2.0)[0] > 1e-12
               for d in compressed.functional.density.blocks)
    assert compressed.algebra.block_dims == (3,)
    # a faithful state is untouched
    full = s.mix([0.2, 0.5, 0.3])
    same, kept_all = support_compression(full)
    assert kept_all == (0, 1, 2)
    assert same is full


def test_dominated_decomposition_recovers_component():
    rng = np.random.default_rng(55)
    flow = _random_flow((2, 2, 3), rng=rng)
    beta = 1.4
    s = kms_simplex(flow, beta)
    w = np.array([0.5, 0.3, 0.2])
    psi = s.mix(w)
    phi = KmsWeight(s.mix([1.0, 0.0, 0.0]).functional.scaled(0.5), beta, flow)
    c = dominated_decomposition(phi, psi)  # 0.5 * vertex_0 <= psi
    # central, contractive, and it reproduces phi against psi's density
    for blk in c.blocks:
        assert np.allclose(blk, blk[0, 0] * np.eye(blk.shape[0]), atol=1e-10)
    rebuilt = [cb @ db for cb, db in zip(c.blocks, psi.density.blocks)]
    for rb, pb in zip(rebuilt, phi.functional.density.blocks):
        assert np.max(np.abs(rb - pb)) < 1e-10


def test_dominated_decomposition_rejects_with_witness():
    flow = _random_flow((2, 2))
    beta = 1.0
    s = kms_simplex(flow, beta)
    big = KmsWeight(s.mix([0.9, 0.1]).functional.scaled(1.5), beta, flow)
    with pytest.raises(ValueError, match="not dominated"):
        dominated_decomposition(big, s.mix([0.5, 0.5]))


def test_lattice_operations():
    rng = np.random.default_rng(808)
    flow = _random_flow((2, 3), rng=rng)
    beta = 0.6
    s = kms_simplex(flow, beta)
    phi = s.mix([0.8, 0.2])
    psi = s.mix([0.3, 0.7])
    join = lattice_join(phi, psi)
    meet = lattice_meet(phi, psi)
    g_phi, g_psi = phi.coefficients(), psi.coefficients()
    assert np.allclose(join.coefficients(), np.maximum(g_phi, g_psi), atol=1e-12)
    assert np.allclose(meet.coefficients(), np.minimum(g_phi, g_psi), atol=1e-12)
    # order relations hold as operator inequalities between densities
    for upper, lower in [(join, phi), (join, psi), (phi, meet), (psi, meet)]:
        diff = upper.functional.density - lower.functional.density
        assert is_positive(diff, tol=1e-10)
    # the normalized join is again an equilibrium state
    assert verify_kms(flow, join.normalize(), beta, tol=1e-9).passed


# -- Boltzmann stacks over a β vector ------------------------------------------

def _reference_shifted_boltzmann(eigenvalues, eigenvectors, beta: float):
    """The one-β route with no stacking: one 2-D GEMM per block, and the weights e/Tr e."""
    lams = np.concatenate(eigenvalues)
    shift = lams.min() if beta >= 0 else lams.max()
    mats, traces, weights = [], [], []
    for w, u in zip(eigenvalues, eigenvectors):
        e = np.exp(-beta * (w - shift))
        mats.append((u * e) @ u.conj().T)
        traces.append(float(e.sum()))
        weights.append(e / traces[-1])
    return mats, np.asarray(traces), weights


@pytest.mark.parametrize("dims,steps", [((1,), 500), ((2, 3), 500), ((1, 2, 3, 4), 200),
                                        ((16, 16), 100), ((64,), 20)])
def test_boltzmann_stack_equals_the_one_beta_route(dims, steps):
    rng = np.random.default_rng(sum(dims) + steps)
    flow = _random_flow(dims, scale=2.0, rng=rng)
    betas = np.concatenate([[0.0, -0.0, 1.0, -1.0], rng.uniform(-4.0, 4.0, steps - 4)])
    mats, traces, weights = kms._boltzmann(flow, betas)
    assert [m.shape for m in mats] == [(steps, n, n) for n in dims]
    assert traces.shape == (steps, len(dims))
    assert [p.shape for p in weights] == [(steps, n) for n in dims]
    for s, beta in enumerate(betas):
        one, one_traces, one_weights = kms._boltzmann(flow, float(beta))
        want, want_traces, want_weights = _reference_shifted_boltzmann(
            flow.eigenvalues, flow.eigenvectors, float(beta))
        assert all(np.array_equal(m[s], o) and np.array_equal(o, w)
                   for m, o, w in zip(mats, one, want))
        assert np.array_equal(traces[s], one_traces) and np.array_equal(one_traces, want_traces)
        assert all(np.array_equal(p[s], o) and np.array_equal(o, w)
                   for p, o, w in zip(weights, one_weights, want_weights))


@pytest.mark.parametrize("dims", [(1,), (3,), (2, 1, 4), (8, 8)])
def test_gibbs_and_simplex_densities_equal_the_one_beta_route(dims):
    flow = _random_flow(dims, rng=np.random.default_rng(len(dims)))
    for beta in (-2.5, 0.0, 0.7):
        mats, traces, _ = _reference_shifted_boltzmann(flow.eigenvalues, flow.eigenvectors, beta)
        z = traces.sum()
        got = gibbs(flow, beta).density.blocks
        assert all(np.array_equal(g, m / z) for g, m in zip(got, mats))
        for i, v in enumerate(kms_simplex(flow, beta).vertices):
            want = [m / traces[i] if j == i else np.zeros_like(m) for j, m in enumerate(mats)]
            assert all(np.array_equal(g, w) for g, w in zip(v.density.blocks, want))


def test_simplex_sweep_counts_vertices_in_any_chunking(monkeypatch):
    flow = _random_flow((3, 1, 2), rng=np.random.default_rng(31))
    betas = np.linspace(2.0, -2.0, 37)
    got = simplex_sweep(flow, betas)
    assert got.tolist() == [[2, 3]] * 37
    for entries in (1, 14, 15, 100):       # coord_dim is 14: chunks of 1, 1, 1 and 7 β
        monkeypatch.setattr(kms, "_HALF_SHIFT_CHUNK_ENTRIES", entries)
        assert np.array_equal(simplex_sweep(flow, betas), got)
    assert simplex_sweep(flow, []).shape == (0, 2)


def test_simplex_sweep_refuses_the_first_beta_past_the_cap():
    flow = _diag_flow((0.0, 10.0), (3.0,))
    betas = [0.0, 50.0, -69.0, -71.0, 75.0]             # spread 10: -71 is the first past 700
    with pytest.raises(ValueError) as sweep_error:
        simplex_sweep(flow, betas)
    with pytest.raises(ValueError) as one_error:
        kms_simplex(flow, -71.0)
    assert str(sweep_error.value) == str(one_error.value)
    assert f"= 710 exceeds {EXP_CAP:g}" in str(sweep_error.value)


@pytest.mark.parametrize("entries", [1, 2 ** 15])
def test_simplex_sweep_mass_test_fires_on_the_first_bad_vertex(monkeypatch, entries):
    """Factors and weights patched, with the traces kept, so that block 1 at β = 0.5 and
    block 0 at β = 1.5 lose mass: the sweep, which reads the weights, raises KmsState's
    message for the first of them in sweep order, and kms_simplex, which reads the
    blocks made from the factors, raises it too."""
    flow = _random_flow((2, 3), rng=np.random.default_rng(5))
    real = kms._boltzmann_factors

    def leaky(flow, beta):
        factors, traces, weights = real(flow, beta)
        betas = np.asarray(beta, dtype=float)
        for block, at, by in ((1, 0.5, 1.25), (0, 1.5, 0.5)):
            factors[block][betas == at] *= by
            weights[block][betas == at] *= by
        return factors, traces, weights

    monkeypatch.setattr(kms, "_boltzmann_factors", leaky)
    monkeypatch.setattr(kms, "_HALF_SHIFT_CHUNK_ENTRIES", entries)
    with pytest.raises(ValueError, match=r"not normalized \(mass 1\.25\)"):
        simplex_sweep(flow, [0.0, 0.25, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError, match=r"not normalized \(mass 0\.5\)"):
        simplex_sweep(flow, [2.0, 1.5, 0.5])
    with pytest.raises(ValueError, match=r"not normalized \(mass 1\.25\)"):
        kms_simplex(flow, 0.5)
    assert simplex_sweep(flow, [0.0, 1.0]).tolist() == [[1, 2], [1, 2]]


def test_bundle_mass_test_fires_on_the_first_bad_vertex(monkeypatch):
    """Blocks of block 1 at β = 0.5 and block 0 at β = 1.5 scaled where kms_bundle_fd
    reads them: the grid's first bad vertex, by β then by block, raises KmsState's
    message."""
    flow = _random_flow((2, 3), rng=np.random.default_rng(5))
    real = kms._boltzmann

    def leaky(flow, beta):
        mats, traces, weights = real(flow, beta)
        betas = np.asarray(beta, dtype=float)
        mats[1][betas == 0.5] *= 1.25
        mats[0][betas == 1.5] *= 0.5
        return mats, traces, weights

    monkeypatch.setattr(bundle, "_boltzmann", leaky)
    with pytest.raises(ValueError, match=r"not normalized \(mass 1\.25\)"):
        kms_bundle_fd(flow, [0.0, 0.25, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError, match=r"not normalized \(mass 0\.5\)"):
        kms_bundle_fd(flow, [1.0, 1.5, 2.0])
    _, cert = kms_bundle_fd(flow, [0.0, 1.0])
    assert cert.ok and cert.vertex_counts == [2, 2]


# -- the Boltzmann blocks kept per flow and β ------------------------------------

def _outputs_at(flow, beta, psi=None, simplex=None):
    """Every equilibrium output at (flow, β) that reads the kept blocks, as bytes; ψ and
    the simplex may come from earlier calls, made when another β was kept."""
    psi = gibbs(flow, beta) if psi is None else psi
    simplex = kms_simplex(flow, beta) if simplex is None else simplex
    tau = trace_of(psi)
    back = from_trace(tau, flow, beta)
    arrays = [*psi.density.blocks, simplex.barycentric_of(psi), *tau.density.blocks,
              *back.density.blocks,
              coefficients_of(psi.functional, flow, beta), coefficients_of(back)]
    arrays += [b for v in simplex.vertices for b in v.density.blocks]
    return [a.tobytes() for a in arrays]


def test_kept_boltzmann_never_serves_another_beta():
    rng = np.random.default_rng(3434)
    alg = BlockAlgebra((2, 3, 1))
    h = random_hermitian(alg, rng, scale=2.0)
    flow = InnerFlow(alg, h)
    assert flow._kept_boltzmann is None
    betas = (1.3, -1.3, 0.0, -0.0)
    want = {b.hex(): _outputs_at(InnerFlow(alg, h), b) for b in betas}
    psis = {b.hex(): gibbs(flow, b) for b in betas}
    simplices = {b.hex(): kms_simplex(flow, b) for b in betas}
    for beta in (-0.0, 1.3, 0.0, -1.3, 1.3, -0.0, -1.3, 0.0):
        kms_bundle_fd(flow, [beta - 0.5, beta, beta + 0.5])
        assert _outputs_at(flow, beta, psis[beta.hex()], simplices[beta.hex()]) \
            == want[beta.hex()]
        assert flow._kept_boltzmann[0] == beta.hex()        # 0.0 and −0.0 are two keys
        assert _outputs_at(flow, beta) == want[beta.hex()]
    # the kept arrays are read-only, and a refused β keeps what was kept
    kept = flow._kept_boltzmann
    mats, traces = kept[1]
    for a in (*mats, traces):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    for bad, message in ((math.nan, "β = nan is not finite"), (math.inf, "β = inf is not finite"),
                         (1e6, f"exceeds {EXP_CAP:g}"), (-1e6, f"exceeds {EXP_CAP:g}")):
        with pytest.raises(ValueError, match=message) as fresh_error:
            gibbs(InnerFlow(alg, h), bad)
        for call in (lambda: gibbs(flow, bad), lambda: kms_simplex(flow, bad),
                     lambda: coefficients_of(psis[(0.0).hex()].functional, flow, bad)):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == str(fresh_error.value)
            assert flow._kept_boltzmann is kept
