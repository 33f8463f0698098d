"""Infinite-tensor-product diagnostics, evaluated at desk scale.

Finite powers of a single site are certified from the site: its eigensystem is
checked once, and bounds propagated to the s-fold power stand in for checks on
the full arrays, so nothing of the product's size is multiplied or factorized.
The generator is added leg by leg into one matrix (with a hard size guard), the
flow is read off the site eigensystem, and the Gibbs density is the Kronecker
power of the site's (Araki–Woods); everything asymptotic — the
spectral difference group, the factor type and its Γ-style invariant,
boundedness of matroid-type site families, trace-class windows — is decided by
closed-form tail analysis of the declared family, never by truncating a
divergent sum and eyeballing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (_EPS, _LOG_FLOAT_MAX, AlgElement, BlockAlgebra, Functional, Projection,
                      _read_only)
from .flow import InnerFlow
from .kms import KmsState, _boltzmann, _check_exp_cap, gibbs
from .periodic import distinct_gaps, gap_group

MAX_PRODUCT_DIM = 4096
#: bound on ‖U*U − 1‖₂ that a product's eigenvector matrix U must meet
UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class ItpfiSpec:
    """One site of an infinite tensor product: a Hermitian site generator."""

    site_generator: np.ndarray

    def __post_init__(self):
        h = np.array(self.site_generator, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("site generator must be a square matrix")
        if not np.isfinite(h).all():
            raise ValueError("site generator has non-finite entries")
        if np.max(np.abs(h - h.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(h)))):
            raise ValueError("site generator must be Hermitian")
        object.__setattr__(self, "site_generator", _read_only(h))

    @property
    def site_dim(self) -> int:
        return self.site_generator.shape[0]


def _site_sum(h_site: np.ndarray, sites: int) -> np.ndarray:
    """h⊗1⊗…⊗1 + 1⊗h⊗…⊗1 + … + 1⊗…⊗1⊗h, added into one zero matrix leg by leg.

    Split a row index as I = (p, x, q), with x its j-th base-m digit (j = 0 most
    significant). Leg j's term holds h[x, y] at row (p, x, q), column (p, y, q)
    and zeros elsewhere, so it is added through a writeable diagonal view of
    those entries. Adding the legs in order 0, …, s−1 gives every entry the same
    sum in the same order as adding the s Kronecker products, in O(s·m·dim)
    work and no dim² temporary after the zero fill."""
    m = h_site.shape[0]
    dim = m ** sites
    total = np.zeros((dim, dim), dtype=complex)
    for j in range(sites):
        before, after = m ** j, m ** (sites - 1 - j)
        legs = total.reshape(before, m, after, before, m, after)
        np.einsum("pxqpyq->pxyq", legs)[...] += h_site[:, :, None]
    return total


def _power_eigensystem(w_site: np.ndarray, u_site: np.ndarray,
                       sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of :func:`_site_sum`, from the site's.

    Write a product index as the base-m number (c_0 … c_{s−1}), c_0 most
    significant. Eigenvalue c of a Kronecker sum is w_{c_0} + … + w_{c_{s−1}},
    summed in leg order, and entry (I, c) of u^{⊗s} is u_{I_0 c_0}·…·u_{I_{s−1} c_{s−1}},
    multiplied in leg order. The sums are sorted first; then leg j's factor is one
    gather of u's columns by digit j of the sorted column indices, so u^{⊗s} is
    built in its final order, with no unsorted copy. ``np.take`` returns that
    gather in C order (``u[:, digit]`` would not), so every leg multiplies rows
    that are contiguous in memory.
    """
    m = w_site.size
    w = np.zeros(1)
    for _ in range(sites):
        w = (w[:, None] + w_site).ravel()
    order = np.argsort(w, kind="stable")
    u = np.ones((1, w.size), dtype=complex)
    for j in range(sites):
        digit = order // m ** (sites - 1 - j) % m
        u = (u[:, None, :] * np.take(u_site, digit, axis=1)[None, :, :]).reshape(-1, w.size)
    return w[order], u


def _kron_power(rho: np.ndarray, sites: int) -> np.ndarray:
    """rho⊗…⊗rho (``sites`` factors), one leg at a time: entry ((I, i), (J, j)) of
    each step is out[I, J]·rho[i, j], written straight into the result's layout
    (``np.kron`` would transpose a copy), one slice (·, i, ·, j) per entry of rho, so
    each multiply runs over all of ``out`` rather than over a row of rho."""
    m = rho.shape[0]
    out = np.ones((1, 1), dtype=complex)
    for _ in range(sites):
        n = out.shape[0]
        res = np.empty((n, m, n, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                np.multiply(out, rho[i, j], out=res[:, i, :, j])
        out = res.reshape(n * m, n * m)
    return out


def _gamma(k: int) -> float:
    """γ_k = k·eps/(1 − k·eps), the relative error of k roundings (Higham, §3.1)."""
    return k * _EPS / (1.0 - k * _EPS)


def _certify_power(h: np.ndarray, w: np.ndarray, u: np.ndarray, sites: int) -> None:
    """Refuse a site eigensystem (w, u) of h unless its s-fold power, as
    :func:`_power_eigensystem` and :func:`_site_sum` build it, is unitary to
    ``UNITARY_TOL`` and reproduces the product generator to 1e-10·max(1, max|λ|),
    where max|λ| = s·max|w| over the product spectrum.

    Both bounds are in the operator norm, from the site alone. With
    ε = ‖u*u − 1‖₂ (also ‖uu* − 1‖₂, u being square), r = ‖(u·w)u* − h‖₂ and
    U = u^{⊗s}, W, H the exact products:

    * ‖U*U − 1‖₂ = ‖(1 + (u*u − 1))^{⊗s} − 1‖₂ ≤ (1+ε)^s − 1;
    * leg j of UWU* − H is (uu*)^{⊗j} ⊗ (uwu*) ⊗ (uu*)^{⊗(s−1−j)} − 1 ⊗ h ⊗ 1, of
      norm at most (1+ε)^{s−1}·r + ((1+ε)^{s−1} − 1)·‖h‖₂; s legs give s times that.

    Rounding is allowed for on top. Each entry of the built U is s − 1 complex
    products (relative error √2·γ₂ each, Higham Lemma 3.5) away from U's, so
    ‖Ũ − U‖₂ ≤ ((1 + √2·γ₂)^{s−1} − 1)·‖|u|‖₂^s = δ and, as ‖U‖₂² ≤ (1+ε)^s,
    ‖Ũ*Ũ − 1‖₂ ≤ ((1+ε)^{s/2} + δ)² − 1 =: g and ‖ŨWŨ* − UWU*‖₂ ≤ ‖W‖₂·(g − (1+ε)^s + 1).
    The eigenvalues and the generator's diagonal are sums of s site entries, within
    γ_{s−1}·s·max|w| and γ_{s−1}·s·max|h_ii| of W's and H's. Operator norms bound
    every entry, so these tests are at least as strict as comparing the full
    arrays entry by entry.
    """
    m = w.size
    gram = u.conj().T @ u
    gram.flat[::m + 1] -= 1.0
    eps = float(np.linalg.norm(gram, 2))
    r = float(np.linalg.norm((u * w) @ u.conj().T - h, 2))
    delta = ((1.0 + math.sqrt(2.0) * _gamma(2)) ** (sites - 1) - 1.0) * float(
        np.linalg.norm(np.abs(u), 2)) ** sites
    exact = (1.0 + eps) ** sites - 1.0
    gram_bound = ((1.0 + eps) ** (sites / 2) + delta) ** 2 - 1.0
    if not gram_bound <= UNITARY_TOL:
        raise ValueError(f"eigenvector matrix is not unitary: ‖U*U − 1‖₂ ≤ {gram_bound:.3e} "
                         f"at {sites} sites exceeds {UNITARY_TOL:g}")
    grow = (1.0 + eps) ** (sites - 1)
    w_max, rounded = float(np.max(np.abs(w))), _gamma(sites - 1) * sites
    resid = (sites * (grow * r + (grow - 1.0) * float(np.linalg.norm(h, 2)))
             + sites * w_max * (gram_bound - exact)
             + (1.0 + gram_bound) * rounded * w_max
             + rounded * float(np.max(np.abs(np.diagonal(h)))))
    bound = 1e-10 * max(1.0, sites * w_max)
    if not resid <= bound:
        raise ValueError(f"eigendecomposition residual bound {resid:.3e} at {sites} sites "
                         f"exceeds {bound:.3e}")


def product_kms_state(spec: ItpfiSpec, beta: float, sites: int) -> KmsState:
    """Gibbs state of h⊗1⊗… + … on m^sites dimensions (guarded at 4096).

    Certified from the site, with nothing of size dim×dim multiplied or
    factorized. The site eigensystem is the only ``eigh``; :func:`_certify_power`
    bounds its s-fold power against the checks ``InnerFlow`` applies to an
    eigensystem. The generator is built in full by :func:`_site_sum`, its flow
    installed from :func:`_power_eigensystem`, and the density is ρ^{⊗s}, the
    Kronecker power of the site's Gibbs density ρ = u·diag(p)·u*/Z with p > 0,
    which is positive semidefinite by construction; a Kronecker product of
    positive semidefinite blocks is positive semidefinite. ``KmsState`` checks
    the trace."""
    if sites < 1:
        raise ValueError("need at least one site")
    h, m = spec.site_generator, spec.site_dim
    dim = m ** sites
    if dim > MAX_PRODUCT_DIM:
        raise ValueError(f"product dimension {dim} exceeds the desk-scale cap "
                         f"{MAX_PRODUCT_DIM}")
    w_site, u_site = np.linalg.eigh(h)
    _certify_power(h, w_site, u_site, sites)
    _check_exp_cap(beta, sites * float(w_site[-1] - w_site[0]))     # the product's spread
    site_alg, alg = BlockAlgebra((m,)), BlockAlgebra((dim,))
    site = gibbs(InnerFlow._certified(site_alg, AlgElement(site_alg, [h]), [w_site], [u_site]),
                 beta)
    w, u = _power_eigensystem(w_site, u_site, sites)
    flow = InnerFlow._certified(alg, AlgElement._adopt(alg, [_site_sum(h, sites)]), [w], [u])
    density = AlgElement._adopt(alg, [_kron_power(site.density.blocks[0], sites)])
    return KmsState(Functional(alg, density, check=False), float(beta), flow)


# -- the difference group of the site spectrum ----------------------------------

@dataclass
class DifferenceGroupReport:
    """Closure type of the group generated by the site eigenvalue gaps."""

    kind: str                           # "trivial" | "cyclic" | "dense"
    kappa: float | None = None          # positive generator when cyclic
    witness: tuple[float, float] | None = None   # incommensurable gap pair


def difference_group(h) -> DifferenceGroupReport:
    """Classify the subgroup of ℝ generated by the eigenvalue differences.

    Accepts a Hermitian matrix or a 1-d array of eigenvalues. ``dense``
    comes with :func:`periodic.gap_group`'s witness pair of gaps. A spectrum
    whose widest gap is no float is refused.
    """
    arr = np.asarray(h, dtype=complex)
    if arr.ndim == 2:
        w = np.linalg.eigvalsh(arr)
    elif arr.ndim == 1:
        w = np.sort(np.real(arr))
    else:
        raise ValueError("expected a matrix or a vector of eigenvalues")
    if w.size and not math.isfinite(float(w[-1]) - float(w[0])):
        raise ValueError(f"the eigenvalue gap {float(w[-1]):g} − ({float(w[0]):g}) "
                         "is beyond the float range")
    kappa, witness = gap_group(distinct_gaps([w]))
    kind = "dense" if kappa is None else "cyclic" if kappa else "trivial"
    return DifferenceGroupReport(kind=kind, kappa=kappa or None, witness=witness)


@dataclass
class FactorTypeReport:
    tag: str                            # "trivial_flow" | "beta_zero" | "III_1" | "III_lambda"
    lambda_value: float | None = None
    kappa: float | None = None
    group: DifferenceGroupReport | None = None


def factor_type_itpfi(spec: ItpfiSpec, beta: float) -> FactorTypeReport:
    """Type of the infinite product factor for the site Gibbs family at β.

    Cyclic difference group with generator κ gives III_λ with
    λ = e^{-|β|κ}; a dense group gives III_1; β = 0 and flowless sites
    fall outside the λ-classification and are tagged as such. A |β|κ past
    log(float max), where λ would underflow, is refused.
    """
    report = difference_group(spec.site_generator)
    if report.kind == "trivial":
        return FactorTypeReport(tag="trivial_flow", group=report)
    if beta == 0.0:
        return FactorTypeReport(tag="beta_zero", group=report)
    if report.kind == "dense":
        return FactorTypeReport(tag="III_1", lambda_value=1.0, group=report)
    exponent = abs(beta) * report.kappa
    if exponent > _LOG_FLOAT_MAX:
        raise ValueError(f"|β|κ = {exponent:g} exceeds {_LOG_FLOAT_MAX:.6g}: "
                         "λ = e^-|β|κ underflows the float range")
    lam = math.exp(-exponent)
    return FactorTypeReport(tag="III_lambda", lambda_value=lam,
                            kappa=report.kappa, group=report)


@dataclass
class GammaReport:
    kind: str                           # "zero" | "cyclic" | "full_line"
    generator: float | None = None      # positive generator when cyclic


def gamma_invariant(spec: ItpfiSpec, beta: float) -> GammaReport:
    """The closed subgroup of ℝ attached to the product factor: {0},
    (|β|κ)·ℤ, or all of ℝ; a |β|κ that is no float is refused."""
    report = difference_group(spec.site_generator)
    if report.kind == "trivial" or beta == 0.0:
        return GammaReport(kind="zero")
    if report.kind == "dense":
        return GammaReport(kind="full_line")
    generator = abs(beta) * report.kappa
    if not math.isfinite(generator):
        raise ValueError(f"|β|κ = {abs(beta):g}·{report.kappa:g} is beyond the float range")
    return GammaReport(kind="cyclic", generator=generator)


# -- matroid-type site families: boundedness of Σ (trace ratio − 1) -------------

@dataclass
class MatroidSpec:
    """A site family given either by name or as an explicit finite prefix.

    ``kind`` is "seven_adic", "factorial", or "explicit"; explicit specs
    carry (h_j, p_j) pairs and optionally declare one of the named
    families as their tail.
    """

    kind: str
    sites: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    declared_tail: str | None = None

    def __post_init__(self):
        if self.kind not in ("seven_adic", "factorial", "explicit"):
            raise ValueError(f"unknown family {self.kind!r}")
        if self.kind == "explicit" and not self.sites:
            raise ValueError("explicit spec needs at least one site")
        if self.declared_tail not in (None, "seven_adic", "factorial"):
            raise ValueError(f"unknown tail family {self.declared_tail!r}")


@dataclass
class MatroidVerdict:
    kind: str                           # "bounded" | "unbounded" | "inconclusive"
    log_partial_product: float
    terms: int
    reason: str


def _site_ratio_term(h: np.ndarray, p: np.ndarray, beta: float) -> float:
    """a_j = Tr(e^{-βh})/Tr(e^{-βh}p) − 1 for one site, h checked as a flow, p as a projection."""
    site = BlockAlgebra((len(h),))
    proj = Projection(AlgElement(site, [p])).element.blocks[0]
    (boltz,), _, _ = _boltzmann(InnerFlow(site, AlgElement(site, [h])), beta)
    num = float(np.real(np.trace(boltz)))
    den = float(np.real(np.trace(boltz @ proj)))
    if den <= 0:
        raise ValueError("site projection has vanishing Boltzmann weight")
    return num / den - 1.0


def _seven_adic_level_log_sum(beta: float, levels: int) -> float:
    """Σ_l 6·7^(l-1)·log(1 + a_l), a_l = 1/(1+e^{β(l-1)}) on each of level l's 6·7^(l-1)
    sites, or inf; a level whose 6·7^(l-1) or e^{β(l-1)} is no float is summed from its log."""
    total = 0.0
    for k in range(levels):
        if k < 364 and beta * k < _LOG_FLOAT_MAX:         # 6·7^k and e^{βk} are floats
            total += 6.0 * 7.0 ** k * math.log1p(1.0 / (1.0 + math.exp(beta * k)))
            continue
        log_a = -float(np.logaddexp(0.0, beta * k))      # log log1p(a) is log a below e^-37
        log_term = (math.log(6.0) + k * math.log(7.0)
                    + (log_a if log_a < -37.0 else math.log(math.log1p(math.exp(log_a)))))
        total += math.exp(log_term) if log_term < _LOG_FLOAT_MAX else math.inf
    return total


def _factorial_log_sum(beta: float, terms: int) -> float:
    total = 0.0
    for j in range(2, terms + 2):
        log_fact = math.lgamma(j + 1)
        log_a = beta * log_fact - (log_fact + math.log1p(-math.exp(-log_fact)))
        total += float(np.logaddexp(0.0, log_a))        # log(1 + a_j), overflow-safe
    return total


def matroid_bounded(spec: MatroidSpec, beta: float, prefix_terms: int = 24) -> MatroidVerdict:
    """Is Π_j (1 + a_j) finite? Decided by the family's closed-form tail.

    * seven-adic family: level sums scale like (7e^{-β})^l, so the product
      is finite iff β > log 7 (at equality the terms do not even vanish);
    * factorial family: a_j ≍ (j!)^{β-1}, finite iff β < 1;
    * a bare explicit prefix can never decide the tail: inconclusive.
    """
    beta = float(beta)
    if spec.kind == "seven_adic":
        ratio = 7.0 * math.exp(min(-beta, _LOG_FLOAT_MAX))     # inf past the float range
        log_partial = _seven_adic_level_log_sum(beta, prefix_terms)
        if ratio < 1.0 - 1e-12:
            return MatroidVerdict("bounded", log_partial, prefix_terms,
                                  f"level sums are geometric with ratio 7e^-β = {ratio:.6g} < 1")
        return MatroidVerdict("unbounded", log_partial, prefix_terms,
                              f"level sums have ratio 7e^-β = {ratio:.6g} ≥ 1 "
                              "(at equality the level sums tend to 6, not 0)")
    if spec.kind == "factorial":
        log_partial = _factorial_log_sum(beta, prefix_terms)
        if beta < 1.0 - 1e-12:
            return MatroidVerdict("bounded", log_partial, prefix_terms,
                                  f"a_j ≍ (j!)^(β-1) with β-1 = {beta - 1.0:.6g} < 0, "
                                  "summable by the ratio test")
        return MatroidVerdict("unbounded", log_partial, prefix_terms,
                              f"a_j ≍ (j!)^(β-1) with β = {beta:.6g} ≥ 1; "
                              "the terms do not tend to 0")
    # explicit prefix
    log_partial = 0.0
    for j, (h, p) in enumerate(spec.sites):
        try:
            log_partial += math.log1p(_site_ratio_term(h, p, beta))
        except ValueError as e:             # the same class, so a LinAlgError stays a fault
            raise type(e)(f"sites[{j}]: {e}") from e
    if spec.declared_tail is not None:
        tail = matroid_bounded(MatroidSpec(kind=spec.declared_tail), beta, prefix_terms)
        return MatroidVerdict(tail.kind, log_partial + tail.log_partial_product,
                              len(spec.sites) + tail.terms,
                              f"prefix of {len(spec.sites)} sites, tail: {tail.reason}")
    return MatroidVerdict("inconclusive", log_partial, len(spec.sites),
                          "a finite prefix cannot determine the tail")


# -- trace-class windows for declared spectrum families --------------------------

@dataclass(frozen=True)
class SpectrumFamily:
    """A declared eigenvalue family a_1 ≤ a_2 ≤ …, closed under negation.

    kinds: "zero" (all zeros), "power" (a_n = (1/r)·log n, r > 0),
    "power_log" (a_n = (1/r)·log(n·log²(n+2))), "negated" (mirror of
    ``inner``), "explicit_prefix" (finitely many declared values).
    """

    kind: str
    r: float | None = None
    inner: "SpectrumFamily | None" = None
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind in ("power", "power_log"):
            if self.r is None or self.r <= 0:
                raise ValueError(f"family {self.kind!r} needs a parameter r > 0")
        elif self.kind == "negated":
            if self.inner is None:
                raise ValueError("negated family needs an inner family")
        elif self.kind == "explicit_prefix":
            if not self.values:
                raise ValueError("explicit prefix needs at least one value")
        elif self.kind != "zero":
            raise ValueError(f"unknown family {self.kind!r}")


@dataclass(frozen=True)
class WindowInterval:
    """The set of β with Σ e^{-β a_n} < ∞: empty, ℝ, or a half-line."""

    empty: bool = False
    lower: float | None = None          # None = -∞
    upper: float | None = None          # None = +∞
    lower_closed: bool = False
    upper_closed: bool = False

    def contains(self, beta: float) -> bool:
        if self.empty:
            return False
        if self.lower is not None:
            if beta < self.lower or (beta == self.lower and not self.lower_closed):
                return False
        if self.upper is not None:
            if beta > self.upper or (beta == self.upper and not self.upper_closed):
                return False
        return True

    def __str__(self):
        if self.empty:
            return "∅"
        lo = "(-∞" if self.lower is None else ("[" if self.lower_closed else "(") + f"{self.lower:g}"
        hi = "+∞)" if self.upper is None else f"{self.upper:g}" + ("]" if self.upper_closed else ")")
        return f"{lo}, {hi}"


def trace_class_window(family: SpectrumFamily) -> WindowInterval:
    """Exact convergence window of β ↦ Σ_n e^{-β·a_n}.

    zero → ∅; power(r) → (r, ∞) (at β = r the sum is harmonic);
    power_log(r) → [r, ∞) (the log² factor makes the endpoint summable);
    negated mirrors the inner window. Explicit prefixes carry no tail
    information, so no window can honestly be reported for them.
    """
    if family.kind == "zero":
        return WindowInterval(empty=True)
    if family.kind == "power":
        return WindowInterval(lower=family.r, lower_closed=False)
    if family.kind == "power_log":
        return WindowInterval(lower=family.r, lower_closed=True)
    if family.kind == "negated":
        win = trace_class_window(family.inner)
        if win.empty:
            return win
        return WindowInterval(lower=None if win.upper is None else -win.upper,
                              upper=None if win.lower is None else -win.lower,
                              lower_closed=win.upper_closed,
                              upper_closed=win.lower_closed)
    raise ValueError("trace-class window is undecidable from a finite spectrum prefix")
