"""End-to-end acceptance: fourteen pinned behaviors at their stated tolerances.

One test per criterion; each prints a single PASS line with the measured
numbers once its assertions hold, so a verbose run reads as a checklist.
"""

import math
from fractions import Fraction

import numpy as np
import sympy as sp

from kmslab import (
    BlockAlgebra,
    Cochain,
    DimensionGroupSpec,
    Functional,
    InnerFlow,
    ItpfiSpec,
    MatroidSpec,
    PeriodicFlow,
    Projection,
    SpectrumFamily,
    beta_spectrum,
    bilinear_cocycle,
    bilinear_trivializer,
    character_quotient_gap,
    coboundary_of,
    commutant_gap,
    cuntz_trace,
    extend_from_corner,
    factor_type_itpfi,
    fejer_kernel,
    fiber_simplex,
    from_trace,
    gamma_invariant,
    gauge_kms_beta,
    gibbs,
    gns,
    kms_simplex,
    matroid_bounded,
    modular_data,
    random_element,
    random_hermitian,
    restrict_to_corner,
    scaling_measure,
    trace_class_window,
    trace_of,
    trivialize,
    verify_kms,
    verify_modular_flow,
    verify_scaling,
)

RNG_BASE = 20260816


def _line(num: int, name: str, detail: str) -> None:
    print(f"criterion {num:02d} [{name}]: PASS — {detail}")


def _random_flow(dims, rng, scale=1.0):
    alg = BlockAlgebra(dims)
    return InnerFlow(alg, random_hermitian(alg, rng, scale=scale))


# ---------------------------------------------------------------------------

def test_criterion_01_dimension_group_bundle():
    """Rank-6 rational spec: spectrum {0, log 3, log 7}, a point, a triangle, an interval."""
    F = Fraction
    entries = [F(1), F(1, 7), F(1, 7), F(1, 3), F(1, 3), F(1, 3)]
    spec = DimensionGroupSpec(
        matrix=tuple(tuple(entries[i] if i == j else F(0) for j in range(6)) for i in range(6)),
        order_unit=tuple(F(1) for _ in range(6)))

    betas = sorted(beta_spectrum(spec))
    expected = [0.0, math.log(3.0), math.log(7.0)]
    assert len(betas) == 3
    gap = max(abs(b - e) for b, e in zip(betas, expected))
    assert gap <= 1e-12

    dims, counts = [], []
    for b in betas:
        f = fiber_simplex(spec, b)
        assert f.exact and f.vertices_exact is not None
        dims.append(f.dimension)
        counts.append(f.vertex_count)
    assert dims == [0, 2, 1]
    assert counts == [1, 3, 2]
    _line(1, "dimension-group bundle",
          f"betas within {gap:.2e} of (0, log3, log7); dims {tuple(dims)}, "
          f"counts {tuple(counts)}")


def test_criterion_02_gibbs_verification_and_wrong_pairing():
    """50 random 8x8 generators x three temperatures; plus the known failure."""
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(RNG_BASE + trial)
        flow = _random_flow((8,), rng)
        for beta in (-2.0, 0.5, 3.0):
            v = verify_kms(flow, gibbs(flow, beta), beta, tol=1e-9)
            assert v.passed
            worst = max(worst, v.max_residual)
    assert worst <= 1e-9

    alg = BlockAlgebra((2,))
    flow = InnerFlow(alg, alg.element([np.diag([0.0, 1.0]).astype(complex)]))
    tau = Functional(alg, 0.5 * alg.identity())
    bad = verify_kms(flow, tau, 1.0, tol=1e-9)
    assert not bad.passed
    defect = max(abs(bad.residual_exchange - (math.e - 1.0) / 2.0),
                 abs(bad.residual_half_shift_lower - (math.e - 1.0) / 2.0))
    assert defect <= 1e-9 and bad.max_residual == bad.residual_half_shift
    _line(2, "equilibrium verification",
          f"150 gibbs checks, worst residual {worst:.2e}; wrong pairing fails "
          f"with residual within {defect:.1e} of (e-1)/2")


def test_criterion_03_simplex_structure():
    """Unique equilibrium on a full matrix algebra; m vertices on m blocks."""
    rng = np.random.default_rng(RNG_BASE + 100)
    for n in (2, 3, 4):
        flow = _random_flow((n,), rng)
        assert len(kms_simplex(flow, 1.0).vertices) == 1

    checked = 0
    for dims in [(2, 2), (3, 1), (2, 3, 2), (1, 1, 1, 2), (4, 2, 3)]:
        flow = _random_flow(dims, rng)
        beta = float(rng.uniform(-2.0, 2.0))
        s = kms_simplex(flow, beta)
        assert len(s.vertices) == len(dims)
        for _ in range(3):
            psi = s.mix(rng.dirichlet(np.ones(len(dims))))
            assert verify_kms(flow, psi, beta).passed
            checked += 1
    _line(3, "simplex structure",
          f"vertex counts match block counts on 5 algebras; {checked} sampled "
          "mixtures verified")


def test_criterion_04_modular_theorems():
    """Modular flow identity, commutant theorem, and the two Delta routes."""
    shapes = [(2,), (3,), (2, 2)]
    worst_flow = worst_comm = worst_route = 0.0
    for trial in range(20):
        rng = np.random.default_rng(RNG_BASE + 200 + trial)
        flow = _random_flow(shapes[trial % 3], rng)
        beta = float(rng.uniform(-2.0, 2.0))
        psi = gibbs(flow, beta)

        rep = verify_modular_flow(flow, psi, tol=1e-9)
        assert rep.passed
        worst_flow = max(worst_flow, rep.max_residual)

        g = gns(flow.algebra, psi.functional)
        md = modular_data(g, method="polar")
        dim_alg, dim_comm, gap = commutant_gap(g, md)
        assert dim_alg == dim_comm
        assert gap <= 1e-8
        worst_comm = max(worst_comm, gap)

        md_cf = modular_data(g, method="closed_form")
        route = float(np.linalg.norm(md.delta - md_cf.delta))
        assert route <= 1e-9
        worst_route = max(worst_route, route)
    _line(4, "modular theorems",
          f"20 triples: flow residual ≤ {worst_flow:.2e}, commutant distance "
          f"≤ {worst_comm:.2e}, route gap ≤ {worst_route:.2e}")


def test_criterion_05_smoothing_operators():
    """Quadrature vs closed form, entrywise damping bound, Kadison inequality."""
    worst_rel = 0.0
    rng = np.random.default_rng(RNG_BASE + 300)
    for trial in range(6):
        alg = BlockAlgebra((6,))
        lam = np.sort(rng.uniform(0.0, 10.0, size=6))
        lam[-1] = lam[0] + 10.0 * rng.uniform(0.5, 1.0)   # diameter ≤ 10
        basis = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
        h = alg.element([basis @ np.diag(lam).astype(complex) @ basis.conj().T])
        flow = InnerFlow(alg, h)
        a = random_element(alg, rng)
        for n in (1.0, 4.0, 16.0, 64.0):
            cf = flow.smooth(a, n, method="closed_form")
            qd = flow.smooth(a, n, method="quadrature")
            rel = (cf - qd).norm() / max(cf.norm(), 1e-30)
            assert rel <= 1e-8
            worst_rel = max(worst_rel, rel)

    # entrywise bound in the generator eigenbasis
    alg = BlockAlgebra((5,))
    lam = np.array([0.0, 1.0, 3.5, 7.0, 10.0])
    flow = InnerFlow(alg, alg.element([np.diag(lam).astype(complex)]))
    for trial in range(10):
        a = random_element(alg, np.random.default_rng(RNG_BASE + 310 + trial))
        for n in (1.0, 8.0, 64.0):
            diff = np.abs(flow.smooth(a, n).blocks[0] - a.blocks[0])
            bound = (lam[None, :] - lam[:, None]) ** 2 / (4.0 * n) * np.abs(a.blocks[0])
            assert np.all(diff <= bound + 1e-12)

    # Kadison inequality as an operator order
    kad = 0
    for trial in range(100):
        rng_k = np.random.default_rng(RNG_BASE + 400 + trial)
        alg = BlockAlgebra((4,))
        flow = InnerFlow(alg, random_hermitian(alg, rng_k, scale=2.0))
        a = random_element(alg, rng_k)
        n = float(rng_k.uniform(0.5, 32.0))
        ra = flow.smooth(a, n)
        gap = flow.smooth(a.adjoint() @ a, n) - ra.adjoint() @ ra
        assert np.linalg.eigvalsh(gap.blocks[0]).min() >= -1e-12
        kad += 1
    _line(5, "smoothing operators",
          f"route agreement ≤ {worst_rel:.2e} rel; damping bound entrywise on "
          f"30 cases; Kadison order on {kad} samples")


def test_criterion_06_fejer_theory():
    """Kernel nonnegativity and peak value; contraction; the exact 3/4 weight."""
    xs = np.linspace(-math.pi, math.pi, 10 ** 4)
    for order in range(51):
        vals = fejer_kernel(order, xs)
        assert np.all(vals >= -1e-12)
        assert abs(fejer_kernel(order, 0.0) - (order + 1) ** 2) < 1e-8

    rng = np.random.default_rng(RNG_BASE + 500)
    pf = PeriodicFlow(InnerFlow(BlockAlgebra((3,)),
                                BlockAlgebra((3,)).element(
                                    [np.diag([0.0, 1.0, 2.0]).astype(complex)])))
    for _ in range(10):
        a = random_element(pf.algebra, rng)
        for order in (0, 3, 12):
            assert pf.fejer_mean(a, order).norm() <= a.norm() + 1e-10

    alg2 = BlockAlgebra((2,))
    pf2 = PeriodicFlow(InnerFlow(alg2, alg2.element([np.diag([0.0, 1.0]).astype(complex)])))
    e12 = alg2.element([np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)])
    weight_gap = (pf2.fejer_mean(e12, 3) - 0.75 * e12).norm()
    assert weight_gap <= 1e-12
    _line(6, "fejer theory",
          f"kernel ≥ 0 on 10^4 grid for orders ≤ 50 with peak (N+1)^2; means "
          f"contractive; order-3 weight within {weight_gap:.1e} of 3/4")


def test_criterion_07_matroid_verdicts():
    """Boundedness verdicts around both family thresholds."""
    seven = MatroidSpec(kind="seven_adic")
    thr = math.log(7.0)
    got7 = tuple(matroid_bounded(seven, b).kind
                 for b in (thr - 0.05, thr, thr + 0.05))
    assert got7 == ("unbounded", "unbounded", "bounded")

    fact = MatroidSpec(kind="factorial")
    gotf = tuple(matroid_bounded(fact, b).kind for b in (0.5, 1.0, 1.5))
    assert gotf == ("bounded", "unbounded", "unbounded")
    _line(7, "matroid verdicts",
          f"seven-adic {got7} at log7∓0.05; factorial {gotf} at (0.5, 1, 1.5)")


def test_criterion_08_factor_types_and_gamma():
    """Type III_lambda with lambda = e^(-|beta| kappa), and the dense case."""
    spec = ItpfiSpec(np.diag([0.0, math.log(2.0)]))
    rep = factor_type_itpfi(spec, 1.0)
    assert rep.tag == "III_lambda"
    assert abs(rep.lambda_value - 0.5) <= 1e-12
    gam = gamma_invariant(spec, 1.0)
    assert gam.kind == "cyclic"
    assert abs(gam.generator - math.log(2.0)) <= 1e-12

    dense = ItpfiSpec(np.diag([0.0, 1.0, math.sqrt(2.0)]))
    assert factor_type_itpfi(dense, 1.0).tag == "III_1"

    kappa = math.log(2.0)
    worst = 0.0
    for beta in np.linspace(-3.0, 3.0, 25):
        r = factor_type_itpfi(spec, float(beta))
        if beta == 0.0:
            assert r.tag == "beta_zero"
            continue
        err = abs(r.lambda_value - math.exp(-abs(beta) * kappa))
        assert err <= 1e-12
        worst = max(worst, err)
    _line(8, "factor types",
          f"III_1/2 and Γ = ℤ·log2 at β=1; dense sites III_1; λ-law within "
          f"{worst:.1e} over 25-point grid")


def test_criterion_09_gauge_and_word_traces():
    """Exact gauge temperature and exact rational degree scaling."""
    assert gauge_kms_beta(2, 2.0 * math.pi) == math.log(2.0) / (2.0 * math.pi)

    pairs = [((1,), (1, 2)), ((2, 1, 2), (1,)), ((1, 1, 2, 2), (2, 1))]
    for a, b in pairs:
        ratio = cuntz_trace(2, b, b) / cuntz_trace(2, a, a)
        assert ratio == Fraction(2) ** (len(a) - len(b))
    _line(9, "gauge and word traces",
          "gauge β equals log2/(2π) exactly; degree-k trace ratios equal 2^k "
          f"as fractions on {len(pairs)} word pairs")


def test_criterion_10_corner_bijection():
    """Restrict/extend roundtrip on rays, and the 2/3 corner weight."""
    rng = np.random.default_rng(RNG_BASE + 600)
    alg = BlockAlgebra((2, 3))
    flow = InnerFlow(alg, random_hermitian(alg, rng))
    beta = 1.0
    s = kms_simplex(flow, beta)
    worst = 0.0
    for _ in range(10):
        psi = s.mix(rng.dirichlet(np.ones(2)))
        blocks = []
        for hb in flow.generator.blocks:
            n = hb.shape[0]
            _, u = np.linalg.eigh(hb)
            pattern = np.zeros(n)
            pattern[rng.permutation(n)[:rng.integers(1, n + 1)]] = 1.0
            blocks.append(u @ np.diag(pattern).astype(complex) @ u.conj().T)
        p = Projection(alg.element(blocks))
        back = extend_from_corner(restrict_to_corner(psi, p).state, flow, beta, p)
        err = (back.density - psi.density).norm()
        assert err <= 1e-10
        worst = max(worst, err)

    alg2 = BlockAlgebra((2,))
    flow2 = InnerFlow(alg2, alg2.element([np.diag([0.0, math.log(2.0)]).astype(complex)]))
    psi2 = gibbs(flow2, 1.0)
    e11 = Projection(alg2.element([np.diag([1.0, 0.0]).astype(complex)]))
    w = restrict_to_corner(psi2, e11).weight
    assert abs(w - 2.0 / 3.0) <= 1e-12
    _line(10, "corner bijection",
          f"10 invariant-projection roundtrips ≤ {worst:.1e}; corner weight "
          f"{w:.12f} = 2/3")


def test_criterion_11_trace_pairing_roundtrip():
    """from_trace after trace_of is the identity on equilibrium states."""
    rng = np.random.default_rng(RNG_BASE + 700)
    shapes = [(3,), (2, 2), (2, 3), (1, 4), (2, 1, 2)]
    worst = 0.0
    for trial in range(50):
        flow = _random_flow(shapes[trial % len(shapes)], rng)
        beta = float(rng.uniform(-2.0, 2.0))
        s = kms_simplex(flow, beta)
        psi = s.mix(rng.dirichlet(np.ones(len(s.vertices))))
        back = from_trace(trace_of(psi), flow, beta)
        err = (back.density - psi.density).norm()
        assert err <= 1e-10
        worst = max(worst, err)
    _line(11, "trace pairing roundtrip", f"50 states, max defect {worst:.2e}")


def test_criterion_12_scaling_measures():
    """Self-similarity residuals, and the exact factor 2 at the α = 0 endpoint."""
    dens = scaling_measure(lam=2.0, beta=-1.0, kind="density")
    rep_d = verify_scaling(dens, [(0.5, 1.5), (1.0, 4.0), (2.0, 3.0), (0.1, 0.2)])
    assert rep_d.max_residual <= 1e-8
    assert rep_d.checked == 4

    atom = scaling_measure(lam=3.0, beta=-0.7, kind="atomic", window=8)
    rep_a = verify_scaling(atom, [(1.0, 3.0), (1.0 / 9.0, 9.0), (0.5, 2.0)])
    assert rep_a.max_residual <= 1e-8
    assert rep_a.out_of_window == 0

    flat = scaling_measure(lam=2.0, beta=-math.log(2.0), kind="density")
    assert flat.alpha == 0.0
    assert flat.measure_of((2.0, 6.0)) == 2.0 * flat.measure_of((1.0, 3.0))
    assert flat.measure_of((1.0, 3.0)) == 2.0
    _line(12, "scaling measures",
          f"density residual {float(rep_d.max_residual):.1e}, atomic residual "
          f"{float(rep_a.max_residual):.1e}; α=0 factor exactly 2")


def test_criterion_13_cocycle_trivializer():
    """Residual ≤ 1e-6 at δ = 2^-8, linear-in-δ envelope, quadratic-phase match."""
    half = 2.0

    def smooth_grid(step, seed):
        rng = np.random.default_rng(seed)
        xs = step * np.arange(-int(half / step), int(half / step) + 1)
        phase = np.zeros_like(xs)
        for _ in range(3):
            phase += rng.normal() * np.sin(rng.uniform(0.2, 1.4) * xs
                                           + rng.uniform(0.0, 2 * np.pi))
        phase -= phase[len(xs) // 2]
        return coboundary_of(Cochain(step, half, np.exp(1j * phase)))

    families = [("smooth-a", lambda d: smooth_grid(d, RNG_BASE + 800)),
                ("smooth-b", lambda d: smooth_grid(d, RNG_BASE + 801)),
                ("bilinear", lambda d: bilinear_cocycle(0.4, d, half))]
    at_finest = {}
    for name, make in families:
        for e in (6, 7, 8):
            delta = 2.0 ** -e
            res = trivialize(make(delta))
            # the pinned bound at the finest grid, relaxed linearly in δ above it:
            # residual(δ) ≤ 1e-6 · (δ / 2^-8)
            assert res.achieved_residual <= 1e-6 * (delta / 2.0 ** -8), name
            if e == 8:
                at_finest[name] = res

    # bilinear trivializer equals the quadratic phase up to a character
    res_b = at_finest["bilinear"]
    ref = bilinear_trivializer(0.4, 2.0 ** -8, res_b.chain.half_range)
    _, gap = character_quotient_gap(res_b.chain, ref)
    assert gap <= 1e-6
    worst8 = max(r.achieved_residual for r in at_finest.values())
    _line(13, "cocycle trivializer",
          f"residual ≤ {worst8:.2e} at δ=2^-8 over three families within the "
          f"linear envelope; quadratic-phase gap {gap:.1e}")


def test_criterion_14_trace_class_windows():
    """Window shapes for the three declared families, against a convergence oracle."""
    zero_win = trace_class_window(SpectrumFamily(kind="zero"))
    assert zero_win.empty

    n = sp.symbols("n", integer=True, positive=True)

    def oracle_converges(kind, r, beta):
        # independent integral-test decision on the literal eigenvalue sums
        q = sp.Rational(beta).limit_denominator(10 ** 9) / sp.Rational(r)
        term = n ** (-q) if kind == "power" else (n * sp.log(n + 2) ** 2) ** (-q)
        return bool(sp.Sum(term, (n, 1, sp.oo)).is_convergent())

    r = 2.0
    power_win = trace_class_window(SpectrumFamily(kind="power", r=r))
    assert (power_win.lower, power_win.lower_closed, power_win.upper) == (r, False, None)
    plog_win = trace_class_window(SpectrumFamily(kind="power_log", r=r))
    assert (plog_win.lower, plog_win.lower_closed, plog_win.upper) == (r, True, None)

    probes = (r - 0.3, r, r + 0.3)
    for beta in probes:
        assert power_win.contains(beta) == oracle_converges("power", r, beta)
        assert plog_win.contains(beta) == oracle_converges("power_log", r, beta)
    _line(14, "trace-class windows",
          f"∅ / (r,∞) / [r,∞) with oracle agreement at probes {probes}")
