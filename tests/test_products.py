"""Infinite-product invariants, site-family boundedness, trace-class windows."""

import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from kmslab import (
    AlgElement,
    BlockAlgebra,
    InnerFlow,
    ItpfiSpec,
    MatroidSpec,
    SpectrumFamily,
    difference_group,
    factor_type_itpfi,
    gamma_invariant,
    matroid_bounded,
    product_kms_state,
    trace_class_window,
    gibbs,
    verify_kms,
)
from kmslab.periodic import minimal_period
from kmslab.products import UNITARY_TOL, _kron_power, _power_eigensystem, _site_sum


def test_product_state_is_equilibrium():
    spec = ItpfiSpec(np.diag([0.0, math.log(2.0)]))
    for sites in (1, 3):
        psi = product_kms_state(spec, beta=1.0, sites=sites)
        assert verify_kms(psi.flow, psi, 1.0, tol=1e-9).passed


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_site_generator_must_be_finite(bad):
    """A NaN used to pass the Hermitian test, which compares with >."""
    with pytest.raises(ValueError, match="^site generator has non-finite entries$"):
        ItpfiSpec(np.array([[0.0, 0.0], [0.0, bad]]))


def test_product_dimension_guard():
    spec = ItpfiSpec(np.diag([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="desk-scale"):
        product_kms_state(spec, 1.0, sites=9)


def _reference_site_sum(h_site, sites):
    """The product generator as it was built: term by term, as Kronecker products."""
    m = h_site.shape[0]
    dim = m ** sites
    total = np.zeros((dim, dim), dtype=complex)
    for j in range(sites):
        term = np.eye(1, dtype=complex)
        for pos in range(sites):
            term = np.kron(term, h_site if pos == j else np.eye(m))
        total += term
    return total


def _reference_product_flow(spec, sites):
    """product_kms_state's flow as it was: the generator built term by term and
    diagonalized densely. Kept as the oracle."""
    total = _reference_site_sum(spec.site_generator, sites)
    alg = BlockAlgebra((total.shape[0],))
    return InnerFlow(alg, AlgElement(alg, [total]))


def _site_generators(m, rng):
    """Diagonal (with exact zeros), degenerate and complex Hermitian sites of size m."""
    q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    diag = np.diag(np.where(np.arange(m) % 2 == 0, 0.0, rng.uniform(-2.0, 2.0, m)))
    degenerate = (q * np.where(np.arange(m) < m // 2, -0.5, 1.25)) @ q.conj().T
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return [diag, degenerate, g + g.conj().T]


def test_site_sum_equals_the_kronecker_loop():
    # 4 with 6 sites (dim 4096) is left out: the loop's Kronecker terms need ~0.8 GB
    rng = np.random.default_rng(3131)
    for m in (2, 3, 4):
        for h in _site_generators(m, rng):
            h = ItpfiSpec(h).site_generator
            for sites in range(1, 7):
                if m ** sites > 1024:
                    continue
                got = _site_sum(h, sites)
                assert got.shape == (m ** sites,) * 2
                assert np.array_equal(got, _reference_site_sum(h, sites))


def _reference_power_eigensystem(w_site, u_site, sites):
    """``_power_eigensystem`` as it was: each leg gathers u's columns as u[:, digit],
    which comes back Fortran-ordered. Kept as the oracle."""
    m = w_site.size
    w = np.zeros(1)
    for _ in range(sites):
        w = (w[:, None] + w_site).ravel()
    order = np.argsort(w, kind="stable")
    u = np.ones((1, w.size), dtype=complex)
    for j in range(sites):
        digit = order // m ** (sites - 1 - j) % m
        u = (u[:, None, :] * u_site[:, digit][None, :, :]).reshape(-1, w.size)
    return w[order], u


def _reference_kron_power(rho, sites):
    """``_kron_power`` as it was: one broadcast multiply per leg. Kept as the oracle."""
    m = rho.shape[0]
    out = np.ones((1, 1), dtype=complex)
    for _ in range(sites):
        n = out.shape[0]
        out = (out[:, None, :, None] * rho[None, :, None, :]).reshape(n * m, n * m)
    return out


def test_power_builders_equal_the_broadcast_builders():
    rng = np.random.default_rng(4242)
    for m in (2, 3, 4):
        for h in _site_generators(m, rng):
            w_site, u_site = np.linalg.eigh(ItpfiSpec(h).site_generator)
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            rho = a @ a.conj().T
            for sites in range(1, 11):
                if m ** sites > 1024:
                    break
                w, u = _power_eigensystem(w_site, u_site, sites)
                w_ref, u_ref = _reference_power_eigensystem(w_site, u_site, sites)
                assert np.array_equal(w, w_ref) and np.array_equal(u, u_ref)
                assert u.flags.c_contiguous
                assert np.array_equal(_kron_power(rho, sites), _reference_kron_power(rho, sites))


def test_valid_product_state_runs_no_eigenvalue_test(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kw: calls.append(1)
                        or eigvalsh(*args, **kw))
    spec = ItpfiSpec(np.array([[0.0, 0.5], [0.5, 1.0]]))
    psi = product_kms_state(spec, 0.8, 8)
    assert calls == []
    assert psi.density.blocks[0].shape == (256, 256)


def _assert_dense_certificate(flow):
    """The product eigensystem checked on the full arrays, as the certificate's
    oracle: u unitary to UNITARY_TOL and (u·w)u* within 1e-10·max(1, max|λ|) of the
    generator, entry by entry."""
    (h,), (w,), (u,) = flow.generator.blocks, flow.eigenvalues, flow.eigenvectors
    gram = u.conj().T @ u - np.eye(w.size)
    assert np.max(np.abs(gram)) <= UNITARY_TOL
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.max(np.abs((u * w) @ u.conj().T - h)) <= 1e-10 * scale


def _assert_product_matches_dense(spec, beta, sites):
    psi = product_kms_state(spec, beta, sites)
    _assert_dense_certificate(psi.flow)
    dense = _reference_product_flow(spec, sites)
    want = gibbs(dense, beta)
    assert np.max(np.abs(psi.density.blocks[0] - want.density.blocks[0])) <= 1e-12
    assert np.max(np.abs(psi.flow.generator.blocks[0] - dense.generator.blocks[0])) == 0.0
    assert np.all(np.diff(psi.flow.eigenvalues[0]) >= 0)
    assert np.max(np.abs(psi.flow.eigenvalues[0] - dense.eigenvalues[0])) <= 1e-12 * max(
        1.0, float(np.max(np.abs(dense.eigenvalues[0]))))
    return psi.flow, dense


def test_product_flow_matches_the_dense_flow():
    for h, beta, sites in [(np.diag([0.0, math.log(2.0)]), 1.0, 5),
                           (np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]]), -2.0, 8),
                           (np.diag([0.0, 1.0, math.sqrt(2.0)]), 0.5, 5),
                           (np.diag([1.0, 1.0, 3.0]), 1.5, 5)]:
        flow, dense = _assert_product_matches_dense(ItpfiSpec(h), beta, sites)
        assert abs(flow.spectral_spread - dense.spectral_spread) <= 1e-12 * dense.spectral_spread
        p, q = minimal_period(flow), minimal_period(dense)
        assert (p is None and q is None) or math.isclose(p, q, rel_tol=1e-12)


def test_product_state_diagonalizes_only_the_site(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: shapes.append(np.shape(a))
                        or eigh(a, *args, **kw))
    spec = ItpfiSpec(np.array([[0.0, 0.5], [0.5, 1.0]]))
    psi = product_kms_state(spec, 0.8, 8)
    assert shapes == [(2, 2)]
    assert psi.density.blocks[0].shape == (256, 256)


def test_product_state_peaks_below_five_dense_arrays():
    spec = ItpfiSpec(np.array([[0.0, 0.5], [0.5, 1.0]]))
    dim = 2 ** 10
    tracemalloc.start()
    try:
        psi = product_kms_state(spec, 0.8, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psi.density.blocks[0].shape == (dim, dim)
    assert peak <= 5 * 16 * dim * dim


def _patch_site_eigh(monkeypatch, edit):
    """Make product_kms_state's site ``eigh`` hand back edit(w, u)."""
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: edit(*eigh(a)))


def test_product_certificate_refusals(monkeypatch):
    spec = ItpfiSpec(np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]]))
    for edit, match in [(lambda w, u: (w, (1.0 + 1e-9) * u), "not unitary"),
                        # (2u)(w/4)(2u)* is still h: only the unitarity bound can see this
                        (lambda w, u: (w / 4.0, 2.0 * u), "not unitary"),
                        (lambda w, u: (w + [1e-6, 0.0], u), "residual")]:
        with monkeypatch.context() as mp:
            _patch_site_eigh(mp, edit)
            for sites in (1, 4):
                with pytest.raises(ValueError, match=match):
                    product_kms_state(spec, 0.5, sites)


def test_product_certificate_grows_with_the_number_of_sites(monkeypatch):
    # a site eigensystem within the bounds at one site fails them at more: the
    # propagated bounds are (1+ε)^s − 1 and about s·r, on the scale max(1, s·max|w|) = 1
    spec = ItpfiSpec(np.diag([0.0, 0.05]))
    for edit, match, refused in [(lambda w, u: (w, (1.0 + 1e-11) * u), "not unitary", 6),
                                 (lambda w, u: (w + [0.0, 0.3e-10], u), "residual", 4)]:
        with monkeypatch.context() as mp:
            _patch_site_eigh(mp, edit)
            product_kms_state(spec, 0.5, 1)
            product_kms_state(spec, 0.5, refused - 2)
            with pytest.raises(ValueError, match=match):
                product_kms_state(spec, 0.5, refused)


def test_product_residual_bound_scales_with_the_spectrum(monkeypatch):
    # the bound is 1e-10·max(1, max|λ|) with max|λ| = s·max|w|: moving one site eigenvalue
    # by δ moves each leg's (u·w)u* by δ, and s legs by s·δ
    spec = ItpfiSpec(np.diag([-2e4, 1.0, 3e4]))
    for sites in (1, 3):
        for factor, ok in [(0.9, True), (1.1, False)]:
            with monkeypatch.context() as mp:
                _patch_site_eigh(mp, lambda w, u: (w + [0.0, 0.0, factor * 1e-10 * 3e4], u))
                if ok:
                    product_kms_state(spec, 0.0, sites)
                else:
                    with pytest.raises(ValueError, match="residual"):
                        product_kms_state(spec, 0.0, sites)


@given(site=st.integers(2, 3), sites=st.integers(1, 6), beta=st.floats(-3.0, 3.0),
       degenerate=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_property_product_state_matches_dense_route(site, sites, beta, degenerate, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(site, site)) + 1j * rng.normal(size=(site, site)))
    w = rng.choice([0.0, 1.0], site) if degenerate else rng.uniform(-1.0, 1.0, site)
    _assert_product_matches_dense(ItpfiSpec((q * w) @ q.conj().T), beta, sites)


def test_difference_group_classification():
    lattice = difference_group(np.diag([0.0, math.log(2.0)]))
    assert lattice.kind == "cyclic"
    assert abs(lattice.kappa - math.log(2.0)) < 1e-12
    dense = difference_group(np.diag([0.0, 1.0, math.sqrt(2.0)]))
    assert dense.kind == "dense"
    assert dense.witness is not None
    trivial = difference_group(np.diag([3.0, 3.0]))
    assert trivial.kind == "trivial"
    # an off-diagonal generator is diagonalized first
    rot = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 0 and 2
    assert abs(difference_group(rot).kappa - 2.0) < 1e-12


def test_factor_type_lattice_gives_power_lambda():
    spec = ItpfiSpec(np.diag([0.0, math.log(2.0)]))
    rep = factor_type_itpfi(spec, beta=1.0)
    assert rep.tag == "III_lambda"
    assert abs(rep.lambda_value - 0.5) < 1e-12
    assert abs(rep.kappa - math.log(2.0)) < 1e-12
    # lambda follows e^(-|beta| kappa) on both sides of zero
    for beta in (-2.0, -0.5, 0.25, 3.0):
        r = factor_type_itpfi(spec, beta)
        assert abs(r.lambda_value - math.exp(-abs(beta) * math.log(2.0))) < 1e-12


def test_factor_type_special_tags():
    dense_spec = ItpfiSpec(np.diag([0.0, 1.0, math.sqrt(2.0)]))
    assert factor_type_itpfi(dense_spec, 1.0).tag == "III_1"
    assert factor_type_itpfi(dense_spec, 1.0).lambda_value == 1.0
    spec = ItpfiSpec(np.diag([0.0, math.log(2.0)]))
    assert factor_type_itpfi(spec, 0.0).tag == "beta_zero"
    assert factor_type_itpfi(ItpfiSpec(np.eye(2)), 5.0).tag == "trivial_flow"


def test_gamma_invariant():
    spec = ItpfiSpec(np.diag([0.0, math.log(2.0)]))
    rep = gamma_invariant(spec, beta=1.0)
    assert rep.kind == "cyclic"
    assert abs(rep.generator - math.log(2.0)) < 1e-12
    assert gamma_invariant(spec, beta=-3.0).generator == pytest.approx(3.0 * math.log(2.0))
    assert gamma_invariant(spec, 0.0).kind == "zero"
    dense_spec = ItpfiSpec(np.diag([0.0, 1.0, math.sqrt(2.0)]))
    assert gamma_invariant(dense_spec, 1.0).kind == "full_line"


# -- boundedness of named site families ------------------------------------------

def test_seven_adic_verdicts_across_threshold():
    spec = MatroidSpec(kind="seven_adic")
    thr = math.log(7.0)
    assert matroid_bounded(spec, thr - 0.05).kind == "unbounded"
    assert matroid_bounded(spec, thr).kind == "unbounded"
    assert matroid_bounded(spec, thr + 0.05).kind == "bounded"
    v = matroid_bounded(spec, thr + 0.5)
    assert v.log_partial_product < math.inf
    assert "geometric" in v.reason


def test_factorial_verdicts_across_threshold():
    spec = MatroidSpec(kind="factorial")
    assert matroid_bounded(spec, 0.5).kind == "bounded"
    assert matroid_bounded(spec, 1.0).kind == "unbounded"
    assert matroid_bounded(spec, 1.5).kind == "unbounded"


def test_seven_adic_partial_products_track_the_verdict():
    spec = MatroidSpec(kind="seven_adic")
    # below threshold the log-partial-products blow up with the term count,
    # above it they stabilize
    lo_short = matroid_bounded(spec, 1.0, prefix_terms=12).log_partial_product
    lo_long = matroid_bounded(spec, 1.0, prefix_terms=40).log_partial_product
    assert lo_long > lo_short + 10.0
    hi_short = matroid_bounded(spec, 3.0, prefix_terms=12).log_partial_product
    hi_long = matroid_bounded(spec, 3.0, prefix_terms=40).log_partial_product
    assert abs(hi_long - hi_short) < 1e-4  # geometric tail with ratio 7e^-3


def test_explicit_prefix_is_inconclusive_without_tail():
    h = np.diag([0.0, 1.0])
    p = np.diag([1.0, 0.0])
    spec = MatroidSpec(kind="explicit", sites=[(h, p), (h, p)])
    v = matroid_bounded(spec, 2.0)
    assert v.kind == "inconclusive"
    assert v.terms == 2
    with_tail = MatroidSpec(kind="explicit", sites=[(h, p)], declared_tail="seven_adic")
    assert matroid_bounded(with_tail, math.log(7.0) + 0.1).kind == "bounded"
    assert matroid_bounded(with_tail, 1.0).kind == "unbounded"


# -- trace-class windows ----------------------------------------------------------

def _sympy_converges(family: SpectrumFamily, beta: float) -> bool:
    """Independent route: ask sympy whether Σ e^(-β a_n) converges."""
    n = sp.symbols("n", integer=True, positive=True)
    b = sp.Rational(beta).limit_denominator(10 ** 6)
    r = sp.Rational(family.r).limit_denominator(10 ** 6)
    if family.kind == "power":
        term = n ** (-b / r)
    elif family.kind == "power_log":
        term = (n * sp.log(n + 2) ** 2) ** (-b / r)
    else:
        raise NotImplementedError(family.kind)
    return bool(sp.Sum(term, (n, 1, sp.oo)).is_convergent())


def test_window_zero_family_is_empty():
    win = trace_class_window(SpectrumFamily(kind="zero"))
    assert win.empty
    assert not win.contains(0.0)
    assert not win.contains(100.0)


def test_window_power_family_open_endpoint():
    win = trace_class_window(SpectrumFamily(kind="power", r=2.0))
    assert (win.lower, win.lower_closed, win.upper) == (2.0, False, None)
    for beta in (1.7, 2.0, 2.3):
        assert win.contains(beta) == _sympy_converges(SpectrumFamily(kind="power", r=2.0), beta)


def test_window_power_log_family_closed_endpoint():
    fam = SpectrumFamily(kind="power_log", r=2.0)
    win = trace_class_window(fam)
    assert (win.lower, win.lower_closed, win.upper) == (2.0, True, None)
    for beta in (1.7, 2.0, 2.3):
        assert win.contains(beta) == _sympy_converges(fam, beta)


def test_window_negation_mirrors():
    inner = SpectrumFamily(kind="power_log", r=1.0)
    win = trace_class_window(SpectrumFamily(kind="negated", inner=inner))
    assert (win.upper, win.upper_closed, win.lower) == (-1.0, True, None)
    assert win.contains(-1.0) and win.contains(-5.0) and not win.contains(0.0)


def test_window_explicit_prefix_refuses():
    fam = SpectrumFamily(kind="explicit_prefix", values=(0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="prefix"):
        trace_class_window(fam)


def test_window_string_form():
    win = trace_class_window(SpectrumFamily(kind="power_log", r=3.0))
    assert str(win) == "[3, +∞)"
    assert str(trace_class_window(SpectrumFamily(kind="power", r=3.0))) == "(3, +∞)"
