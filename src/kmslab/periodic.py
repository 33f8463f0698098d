"""Periodic flows: degree decomposition, Fejér means, trace scaling.

A flow is periodic with period p exactly when every within-block
eigenvalue gap of its generator is an integer multiple of 2π/p. Degrees
are those integers; the component of degree k is the entrywise mask onto
gap = k·2π/p, with an independent quadrature route through the flow
itself (a rectangle rule, exact for trigonometric polynomials).

Commensurability of the gaps is decided by integer-relation fitting: a
ratio r counts as rational only when some p/q with q ≤ 10⁶ satisfies
|q·r − p| ≤ tol. Plain closest-fraction rounding would declare √2
rational at double precision; the relation residual q·r − p is what
separates noise (≲ q·ε) from a genuinely irrational ratio (≳ 1/q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgElement, Functional, _exchange_residual
from .flow import InnerFlow, QuadratureError

DENOMINATOR_CAP = 10 ** 6
RELATION_TOL = 1e-9


def relation_fit(r: float, tol: float = RELATION_TOL,
                  cap: int = DENOMINATOR_CAP) -> Fraction | None:
    """Best fraction p/q, q ≤ cap, accepted only if |q·r − p| ≤ tol."""
    fr = Fraction(r).limit_denominator(cap)
    if abs(fr.denominator * r - fr.numerator) <= tol:
        return fr
    return None


def gap_unit(gaps: list[float], tol: float = RELATION_TOL) -> float | None:
    """Positive generator of the group generated by the gaps, or None.

    All gaps are measured against the smallest one; the generator is
    g0 · gcd(numerators)/lcm(denominators) over the fitted ratios.
    """
    if not gaps:
        return 0.0
    g0 = min(gaps)
    fracs = []
    for d in gaps:
        fr = relation_fit(d / g0, tol)
        if fr is None:
            return None
        fracs.append(fr)
    lcm = 1
    for fr in fracs:
        lcm = lcm * fr.denominator // math.gcd(lcm, fr.denominator)
    nums = [fr.numerator * (lcm // fr.denominator) for fr in fracs]
    g = 0
    for n in nums:
        g = math.gcd(g, n)
    unit = g0 * g / lcm
    for d in gaps:  # safety net; the fit should already guarantee this
        m = round(d / unit)
        if abs(d - m * unit) > tol * max(1.0, abs(m)):
            return None
    return unit


def distinct_gaps(spectra, tol: float = RELATION_TOL) -> list[float]:
    """Sorted gaps between eigenvalues of each sorted spectrum, those within
    tol of zero dropped and the rest deduplicated within tol."""
    gaps = []
    for w in spectra:
        scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
        for i in range(w.size):
            for j in range(i + 1, w.size):
                d = abs(float(w[j] - w[i]))
                if d > tol * scale:
                    gaps.append(d)
    # dedupe within tolerance to keep the fitting set small
    gaps.sort()
    out: list[float] = []
    for d in gaps:
        if not out or d - out[-1] > tol * max(1.0, d):
            out.append(d)
    return out


def minimal_period(flow: InnerFlow, tol: float = RELATION_TOL) -> float | None:
    """Smallest p > 0 with σ_{t+p} = σ_t; 0.0 for the trivial flow; None
    when the gaps are incommensurable (aperiodic flow)."""
    gaps = distinct_gaps(flow.eigenvalues, tol)
    if not gaps:
        return 0.0
    unit = gap_unit(gaps, tol)
    if unit is None:
        return None
    return 2.0 * math.pi / unit


class PeriodicFlow:
    """An inner flow together with a period and the resulting degree tables."""

    def __init__(self, flow: InnerFlow, period: float | None = None, tol: float = RELATION_TOL):
        if period is None:
            period = minimal_period(flow, tol)
            if period is None:
                raise ValueError("flow is aperiodic: eigenvalue gaps are incommensurable")
        period = float(period)
        if period < 0:
            raise ValueError("period must be nonnegative")
        self.flow = flow
        self.period = period
        self.degrees: list[np.ndarray] = []
        if period == 0.0:
            self.base_frequency = 0.0
            for w in flow.eigenvalues:
                d = w[:, None] - w[None, :]
                if np.max(np.abs(d)) > tol * max(1.0, float(np.max(np.abs(w)))):
                    raise ValueError("only a scalar flow has the designated period 0")
                self.degrees.append(np.zeros_like(d, dtype=int))
            return
        w0 = 2.0 * math.pi / period
        self.base_frequency = w0
        for w in flow.eigenvalues:
            d = w[:, None] - w[None, :]
            m = np.round(d / w0)
            if np.max(np.abs(d - m * w0)) > tol * np.maximum(1.0, np.max(np.abs(m))):
                raise ValueError(f"generator gaps are not multiples of 2π/{period:g}; "
                                 "flow is not periodic with this period")
            self.degrees.append(m.astype(int))

    @property
    def max_degree(self) -> int:
        return max(int(np.max(np.abs(d))) if d.size else 0 for d in self.degrees)

    @property
    def algebra(self):
        return self.flow.algebra

    def occupied_degrees(self) -> list[int]:
        ks = set()
        for d in self.degrees:
            ks.update(int(k) for k in np.unique(d))
        return sorted(ks)

    # -- degree components, two routes ---------------------------------------

    def spectral_component(self, a: AlgElement, k: int, method: str = "closed_form",
                           quad_tol: float = 1e-8) -> AlgElement:
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
            if est > quad_tol:
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

def trace_scaling_beta(p_flow: PeriodicFlow, tau: Functional,
                       tol: float = 1e-8) -> float | None:
    """The β with τ(x*x) = e^{βkω₀}·τ(xx*) on every degree-k element, if any.

    τ must restrict to a trace on the fixed-point algebra (checked).
    Returns None when no single β fits all degrees; 0.0 when only degree
    zero is present (τ is then a genuine trace).
    """
    if tau.algebra != p_flow.algebra:
        raise ValueError("functional lives in a different algebra")
    tau_eig = p_flow.flow.to_eigenbasis(tau.density)
    scale = max(1.0, tau.density.norm())

    # trace property on the invariant subalgebra, over its matrix-unit pairs
    for deg, t in zip(p_flow.degrees, tau_eig):
        resid, _ = _exchange_residual(t, mask=deg == 0)
        if resid > tol * scale:
            raise ValueError(f"functional is not a trace on the fixed-point algebra "
                             f"(residual {resid:.3e})")

    w0 = p_flow.base_frequency
    candidates: list[float] = []
    for deg, t in zip(p_flow.degrees, tau_eig):
        diag = np.real(np.diag(t))
        n = t.shape[0]
        for j in range(n):
            for l in range(n):
                k = int(deg[j, l])
                if k == 0:
                    continue
                num, den = float(diag[l]), float(diag[j])
                if den <= tol * scale or num <= tol * scale:
                    raise ValueError(f"degenerate functional: vanishes on a degree-{k} "
                                     "unit, so the scaling ratio is undefined")
                candidates.append(math.log(num / den) / (k * w0))
    if not candidates:
        return 0.0
    beta = candidates[0]
    if any(abs(b - beta) > tol * max(1.0, abs(beta)) for b in candidates[1:]):
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
    return math.log(m) / rho
