"""Periodic flows: degree decomposition, Fejér means, trace scaling.

A flow is periodic with period p exactly when every within-block
eigenvalue gap of its generator is an integer multiple of 2π/p. Degrees
are those integers; the component of degree k is the entrywise mask onto
gap = k·2π/p, with an independent quadrature route through the flow
itself (a rectangle rule, exact for trigonometric polynomials).

Every gap comes from one clustering of each block's ascending spectrum w into
levels: a level starts at the least eigenvalue not yet placed and holds every
eigenvalue within RELATION_TOL·s of that start, s = max(1, max|w|), so no gap is zero.
Commensurability is one decision, :func:`gap_group`, which the product factors'
difference group shares: do the gaps between level starts generate κ·ℤ? A ratio r
counts as rational when some p/q, q ≤ DENOMINATOR_CAP = 10⁶, has |q·r − p| ≤
RELATION_TOL = 1e-9; closest-fraction rounding alone would call √2 rational, while the
residual separates noise (≲ q·ε) from irrationality (≳ 1/q). A level is m units above
the block's first when its start lies within RELATION_TOL·max(s, |m|) of m·unit, and a
pair's degree is the difference of its levels' m: degree tables are additive and degree
zero is an equivalence relation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import AlgElement, Functional, _trace_residual
from .flow import QUAD_TOL, InnerFlow, QuadratureError

DENOMINATOR_CAP = 10 ** 6
RELATION_TOL = 1e-9


def relation_fit(r: float) -> Fraction | None:
    """Best fraction p/q, q ≤ DENOMINATOR_CAP, accepted only if |q·r − p| ≤ RELATION_TOL."""
    fr = Fraction(r).limit_denominator(DENOMINATOR_CAP)
    if abs(fr.denominator * r - fr.numerator) <= RELATION_TOL:
        return fr
    return None


def _levels(w) -> tuple[list[float], list[int], float]:
    """The levels of the ascending spectrum w: their starts, each eigenvalue's level and
    s = max(1, max|w|). A level starts at the least eigenvalue not yet placed and holds
    every eigenvalue within RELATION_TOL·s of that start."""
    w = w.tolist()
    scale = max(1.0, -w[0], w[-1]) if w else 1.0
    starts, level = [], []
    for x in w:
        if not starts or x - starts[-1] > RELATION_TOL * scale:
            starts.append(x)
        level.append(len(starts) - 1)
    return starts, level, scale


def _multiples(gaps, unit: float, scale: float = 1.0) -> list[int] | None:
    """m = round(gap/unit) per gap, or None unless every |gap − m·unit| is at most
    RELATION_TOL·max(scale, |m|)."""
    ms = [round(d / unit) if math.isfinite(d / unit) else 0 for d in gaps]
    if all(abs(d - m * unit) <= RELATION_TOL * max(scale, abs(m)) for d, m in zip(gaps, ms)):
        return ms
    return None


def gap_group(gaps: list[float]) -> tuple[float | None, tuple[float, float] | None]:
    """(κ, None) when the gaps generate κ·ℤ, κ = 0.0 for no gaps, or (None, witness).

    κ is g0·gcd(numerators)/lcm(denominators) over the ratios to the smallest
    gap g0. In an ascending list a gap within RELATION_TOL·max(1, gap) of the last
    fitted one is not fitted, only tested as a multiple of κ with every other gap. The
    witness is g0 and the first gap whose ratio does not fit, or g0 and the last gap
    when every ratio fits but some gap is not a multiple of κ.
    """
    if not gaps:
        return 0.0, None
    g0, last, fracs = min(gaps), -math.inf, []
    for d in gaps:
        if d - last > RELATION_TOL * max(1.0, d):
            fr = relation_fit(d / g0)
            if fr is None:
                return None, (g0, d)
            fracs.append(fr)
            last = d
    lcm = math.lcm(*(fr.denominator for fr in fracs))
    unit = g0 * math.gcd(*(fr.numerator * (lcm // fr.denominator) for fr in fracs)) / lcm
    if _multiples(gaps, unit) is None:  # a ratio fits to RELATION_TOL/q, its gap to g0 times that
        return None, (g0, gaps[-1])
    return unit, None


def distinct_gaps(spectra) -> list[float]:
    """The sorted distinct gaps between level starts (see :func:`_levels`) within each
    ascending spectrum."""
    return sorted({b - a for starts, _, _ in map(_levels, spectra)
                   for i, a in enumerate(starts) for b in starts[i + 1:]})


def minimal_period(flow: InnerFlow) -> float | None:
    """Smallest p > 0 with σ_{t+p} = σ_t; 0.0 for the trivial flow; None
    when the gaps are incommensurable (aperiodic flow)."""
    unit, _ = gap_group(distinct_gaps(flow.eigenvalues))
    return 2.0 * math.pi / unit if unit else unit


class PeriodicFlow:
    """An inner flow together with a period and the resulting degree tables: each
    eigenvalue's level gets one integer m, and deg[j, l] = m_j − m_l."""

    def __init__(self, flow: InnerFlow, period: float | None = None):
        if period is None:
            unit, _ = gap_group(distinct_gaps(flow.eigenvalues))
            if unit is None:
                raise ValueError("flow is aperiodic: eigenvalue gaps are incommensurable")
            period = 2.0 * math.pi / unit if unit else 0.0
        else:
            period = float(period)
            if not 0.0 <= period < math.inf:
                raise ValueError("period must be finite and nonnegative")
            unit = 2.0 * math.pi / period if period else 0.0
        self.flow, self.period, self.base_frequency = flow, period, unit
        self.degrees: list[np.ndarray] = []
        for starts, level, scale in map(_levels, flow.eigenvalues):
            if len(starts) > 1 and not unit:
                raise ValueError("only a scalar flow has the designated period 0")
            m = _multiples([x - starts[0] for x in starts[1:]], unit, scale) if unit else []
            if m is None:
                raise ValueError(f"generator gaps are not multiples of 2π/{period:g}; "
                                 "flow is not periodic with this period")
            m = np.array([0, *m])[level]
            self.degrees.append(m[:, None] - m)

    @property
    def max_degree(self) -> int:
        return max(int(np.max(np.abs(d))) if d.size else 0 for d in self.degrees)

    @property
    def algebra(self):
        return self.flow.algebra

    def occupied_degrees(self) -> list[int]:
        ks = set()
        for d in self.degrees:
            ks.update(d.ravel().tolist())
        return sorted(ks)

    # -- degree components, two routes ---------------------------------------

    def spectral_component(self, a: AlgElement, k: int, method: str = "closed_form") -> AlgElement:
        """Q_k(a), the part of a that the flow multiplies by e^{ik·2πt/p}."""
        k = int(k)
        if method == "closed_form":
            blocks = [np.where(deg == k, blk, 0.0)
                      for deg, blk in zip(self.degrees, self.flow.to_eigenbasis(a))]
            return self.flow.from_eigenbasis(blocks)
        if method == "quadrature":
            m = 2 * self.max_degree + abs(k) + 1
            first = self._fourier_sum(a, k, m)
            second = self._fourier_sum(a, k, 2 * m + 1)
            est = (first - second).fro_norm() / max(second.fro_norm(), a.fro_norm(), 1e-300)
            if est > QUAD_TOL:
                raise QuadratureError(f"rectangle rule with {m} points has not converged "
                                      f"(achieved error estimate {est:.3e})")
            return second
        raise ValueError(f"unknown method {method!r}")

    def _fourier_sum(self, a: AlgElement, k: int, points: int) -> AlgElement:
        acc = self.algebra.zero()
        for j in range(points):
            t = j * self.period / points
            phase = np.exp(-2j * math.pi * k * j / points)
            acc = acc + (phase / points) * self.flow.evolve(a, t)
        return acc

    def fejer_mean(self, a: AlgElement, order: int) -> AlgElement:
        """Σ_k (1 − |k|/(order+1))⁺ Q_k(a); converges to a in norm as order → ∞."""
        if order < 0:
            raise ValueError("order must be ≥ 0")
        blocks = []
        for deg, blk in zip(self.degrees, self.flow.to_eigenbasis(a)):
            wgt = np.maximum(0.0, 1.0 - np.abs(deg) / (order + 1.0))
            blocks.append(wgt * blk)
        return self.flow.from_eigenbasis(blocks)


def fejer_kernel(order: int, x) -> np.ndarray | float:
    """K_order(x) = (sin((order+1)x/2) / sin(x/2))², with the removable
    value (order+1)² at multiples of 2π; K_0 ≡ 1."""
    if order < 0:
        raise ValueError("order must be ≥ 0")
    xs = np.asarray(x, dtype=float)
    half = 0.5 * xs
    den = np.sin(half)
    num = np.sin((order + 1) * half)
    small = np.abs(den) < 1e-8
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(small, float((order + 1) ** 2), (num / den) ** 2)
    return vals if vals.shape else float(vals)


# -- the inverse problem: reading β off a scaled trace --------------------------

def trace_scaling_beta(p_flow: PeriodicFlow, tau: Functional) -> float | None:
    """The β with τ(x*x) = e^{βkω₀}·τ(xx*) on every degree-k element, if any.

    τ must restrict to a trace on the fixed-point algebra, the span of the
    degree-zero units (checked by :func:`~kmslab.algebra._trace_residual`, since
    the degree table is additive and degree zero an equivalence relation). A
    diagonal entry of τ at most 1e-8·max(1, ‖τ‖) on a unit of nonzero degree is
    refused, naming the degree of the first such unit in (block, j, l) order.
    Returns None when no single β fits all degrees within 1e-8 (relative);
    0.0 when only degree zero is present (τ is then a genuine trace).
    """
    if tau.algebra != p_flow.algebra:
        raise ValueError("functional lives in a different algebra")
    tau_eig = p_flow.flow.to_eigenbasis(tau.density)
    floor = 1e-8 * tau.density.tol_scale()

    for deg, t in zip(p_flow.degrees, tau_eig):
        resid = _trace_residual(t, deg == 0)
        if resid > floor:
            raise ValueError(f"functional is not a trace on the fixed-point algebra "
                             f"(residual {resid:.3e})")

    w0 = p_flow.base_frequency
    candidates: list[float] = []
    for deg, t in zip(p_flow.degrees, tau_eig):
        diag = np.real(np.diag(t))
        j, l = np.nonzero(deg)                  # the units of nonzero degree, in C order
        ks, nums, dens = deg[j, l], diag[l], diag[j]
        bad = (dens <= floor) | (nums <= floor)
        if bad.any():
            raise ValueError(f"degenerate functional: vanishes on a degree-{ks[bad.argmax()]} "
                             "unit, so the scaling ratio is undefined")
        candidates += [math.log(num / den) / (k * w0)
                       for num, den, k in zip(nums.tolist(), dens.tolist(), ks.tolist())]
    if not candidates:
        return 0.0
    beta = candidates[0]
    if any(abs(b - beta) > 1e-8 * max(1.0, abs(beta)) for b in candidates[1:]):
        return None
    return beta


# -- gauge flow on the Cuntz relations, at the level of its word functional -----

def cuntz_trace(m: int, a, b) -> Fraction:
    """The canonical word functional: S_a S_b* ↦ δ_{ab}·m^{-|a|}, exactly."""
    if m < 2:
        raise ValueError("need m ≥ 2 generators")
    wa, wb = tuple(a), tuple(b)
    for w in (wa, wb):
        if any(not (1 <= int(s) <= m) for s in w):
            raise ValueError(f"word {w} uses letters outside 1..{m}")
    if wa != wb:
        return Fraction(0)
    return Fraction(1, m ** len(wa))


def gauge_kms_beta(m: int, rho: float) -> float:
    """β solving the degree-1 scaling equation e^{βρ} = m for the gauge
    flow scaled by ρ (each generator has degree one)."""
    if m < 2:
        raise ValueError("need m ≥ 2 generators")
    rho = float(rho)
    if rho == 0.0:
        raise ValueError("gauge flow scaled by ρ = 0 is trivial: the scaling "
                         "equation e^{βρ} = m has no solution")
    beta = math.log(m) / rho
    if not math.isfinite(beta):
        raise ValueError(f"β = log {m} / ρ at ρ = {rho!r} is beyond the float range")
    return beta
