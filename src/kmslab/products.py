"""Infinite-tensor-product diagnostics, evaluated at desk scale.

Finite powers of a single site are built in full (the generator added leg by
leg into one matrix, with a hard size guard), and their flows are read off the
site eigensystem rather than diagonalized again; everything asymptotic — the
spectral difference group, the factor type and its Γ-style invariant,
boundedness of matroid-type site families, trace-class windows — is decided by
closed-form tail analysis of the declared family, never by truncating a
divergent sum and eyeballing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgElement, BlockAlgebra
from .flow import InnerFlow
from .kms import KmsState, _shifted_boltzmann, gibbs
from .periodic import DENOMINATOR_CAP, RELATION_TOL, distinct_gaps, gap_unit, relation_fit

MAX_PRODUCT_DIM = 4096


@dataclass(frozen=True)
class ItpfiSpec:
    """One site of an infinite tensor product: a Hermitian site generator."""

    site_generator: np.ndarray

    def __post_init__(self):
        h = np.array(self.site_generator, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("site generator must be a square matrix")
        if np.max(np.abs(h - h.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(h)))):
            raise ValueError("site generator must be Hermitian")
        h.flags.writeable = False
        object.__setattr__(self, "site_generator", h)

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


def _site_eigensystem(h_site: np.ndarray, sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of :func:`_site_sum`, from the site's.

    The eigenvalues of a Kronecker sum are the sums w_{i_1} + … + w_{i_s} with
    eigenvectors u_{i_1} ⊗ … ⊗ u_{i_s}. The last tensor factor is applied in
    sorted column order, so no unsorted copy of the full matrix is made.
    """
    w_site, u_site = np.linalg.eigh(h_site)
    m = w_site.size
    w, u = np.zeros(1), np.ones((1, 1), dtype=complex)
    for _ in range(sites - 1):
        w, u = (w[:, None] + w_site).ravel(), np.kron(u, u_site)
    w = (w[:, None] + w_site).ravel()
    order = np.argsort(w, kind="stable")
    # column c of kron(u, u_site) is u[:, c // m] ⊗ u_site[:, c % m]
    u = u[:, order // m][:, None, :] * u_site[:, order % m][None, :, :]
    return w[order], u.reshape(w.size, w.size)


def product_kms_state(spec: ItpfiSpec, beta: float, sites: int) -> KmsState:
    """Gibbs state of h⊗1⊗… + … on m^sites dimensions (guarded at 4096).

    The generator is built in full by :func:`_site_sum`; its eigensystem is the
    Kronecker sum of the site eigenvalues and the tensor power of the site
    eigenvectors, which ``InnerFlow.from_eigensystem`` checks against it instead
    of an ``eigh``."""
    if sites < 1:
        raise ValueError("need at least one site")
    dim = spec.site_dim ** sites
    if dim > MAX_PRODUCT_DIM:
        raise ValueError(f"product dimension {dim} exceeds the desk-scale cap "
                         f"{MAX_PRODUCT_DIM}")
    alg = BlockAlgebra((dim,))
    generator = AlgElement(alg, [_site_sum(spec.site_generator, sites)])
    w, u = _site_eigensystem(spec.site_generator, sites)
    flow = InnerFlow.from_eigensystem(alg, generator, [w], [u])
    return gibbs(flow, beta)


# -- the difference group of the site spectrum ----------------------------------

@dataclass
class DifferenceGroupReport:
    """Closure type of the group generated by the site eigenvalue gaps."""

    kind: str                           # "trivial" | "cyclic" | "dense"
    kappa: float | None = None          # positive generator when cyclic
    witness: tuple[float, float] | None = None   # incommensurable gap pair
    tolerance: float = RELATION_TOL
    denominator_cap: int = DENOMINATOR_CAP


def difference_group(h, tol: float = RELATION_TOL) -> DifferenceGroupReport:
    """Classify the subgroup of ℝ generated by the eigenvalue differences.

    Accepts a Hermitian matrix or a 1-d array of eigenvalues. ``dense``
    comes with a witness pair whose ratio admits no integer relation
    within the denominator cap.
    """
    arr = np.asarray(h, dtype=complex)
    if arr.ndim == 2:
        w = np.linalg.eigvalsh(arr)
    elif arr.ndim == 1:
        w = np.sort(np.real(arr))
    else:
        raise ValueError("expected a matrix or a vector of eigenvalues")
    dedup = distinct_gaps([w], tol)
    if not dedup:
        return DifferenceGroupReport(kind="trivial")
    g0 = dedup[0]
    for d in dedup[1:]:
        if relation_fit(d / g0, tol) is None:
            return DifferenceGroupReport(kind="dense", witness=(g0, d))
    unit = gap_unit(dedup, tol)
    if unit is None:
        # ratios fit individually but no common unit under the cap
        return DifferenceGroupReport(kind="dense", witness=(dedup[0], dedup[-1]))
    return DifferenceGroupReport(kind="cyclic", kappa=unit)


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
    fall outside the λ-classification and are tagged as such.
    """
    report = difference_group(spec.site_generator)
    if report.kind == "trivial":
        return FactorTypeReport(tag="trivial_flow", group=report)
    if beta == 0.0:
        return FactorTypeReport(tag="beta_zero", group=report)
    if report.kind == "dense":
        return FactorTypeReport(tag="III_1", lambda_value=1.0, group=report)
    lam = math.exp(-abs(beta) * report.kappa)
    return FactorTypeReport(tag="III_lambda", lambda_value=lam,
                            kappa=report.kappa, group=report)


@dataclass
class GammaReport:
    kind: str                           # "zero" | "cyclic" | "full_line"
    generator: float | None = None      # positive generator when cyclic


def gamma_invariant(spec: ItpfiSpec, beta: float) -> GammaReport:
    """The closed subgroup of ℝ attached to the product factor: {0},
    (|β|κ)·ℤ, or all of ℝ."""
    report = difference_group(spec.site_generator)
    if report.kind == "trivial" or beta == 0.0:
        return GammaReport(kind="zero")
    if report.kind == "dense":
        return GammaReport(kind="full_line")
    return GammaReport(kind="cyclic", generator=abs(beta) * report.kappa)


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
    """a_j = Tr(e^{-βh})/Tr(e^{-βh}p) − 1 for one explicit site."""
    w, u = np.linalg.eigh(np.asarray(h, dtype=complex))
    (boltz,), _ = _shifted_boltzmann([w], [u], beta)
    num = float(np.real(np.trace(boltz)))
    den = float(np.real(np.trace(boltz @ np.asarray(p, dtype=complex))))
    if den <= 0:
        raise ValueError("site projection has vanishing Boltzmann weight")
    return num / den - 1.0


def _seven_adic_level_log_sum(beta: float, levels: int) -> float:
    # level l contributes 6·7^(l-1) sites with a = 1/(1+e^{β(l-1)})
    total = 0.0
    for level in range(1, levels + 1):
        a = 1.0 / (1.0 + math.exp(beta * (level - 1)))
        total += 6.0 * 7.0 ** (level - 1) * math.log1p(a)
    return total


def _factorial_log_sum(beta: float, terms: int) -> float:
    total = 0.0
    for j in range(2, terms + 2):
        log_fact = math.lgamma(j + 1)
        log_a = beta * log_fact - (log_fact + math.log1p(-math.exp(-log_fact)))
        total += np.logaddexp(0.0, log_a)        # log(1 + a_j), overflow-safe
    return float(total)


def matroid_bounded(spec: MatroidSpec, beta: float, prefix_terms: int = 24) -> MatroidVerdict:
    """Is Π_j (1 + a_j) finite? Decided by the family's closed-form tail.

    * seven-adic family: level sums scale like (7e^{-β})^l, so the product
      is finite iff β > log 7 (at equality the terms do not even vanish);
    * factorial family: a_j ≍ (j!)^{β-1}, finite iff β < 1;
    * a bare explicit prefix can never decide the tail: inconclusive.
    """
    beta = float(beta)
    if spec.kind == "seven_adic":
        ratio = 7.0 * math.exp(-beta)
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
    for h, p in spec.sites:
        log_partial += math.log1p(_site_ratio_term(h, p, beta))
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

    def eigenvalue(self, n: int) -> float:
        """a_n, 1-indexed."""
        if n < 1:
            raise ValueError("eigenvalues are 1-indexed")
        if self.kind == "zero":
            return 0.0
        if self.kind == "power":
            return math.log(n) / self.r
        if self.kind == "power_log":
            return math.log(n * math.log(n + 2) ** 2) / self.r
        if self.kind == "negated":
            return -self.inner.eigenvalue(n)
        return self.values[n - 1] if n <= len(self.values) else float("nan")


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
