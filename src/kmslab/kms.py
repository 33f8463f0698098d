"""Equilibrium states for inner flows at inverse temperature β.

For σ_t = Ad e^{ith} on a block algebra, the β-equilibrium functionals
are exactly the densities Σ_i γ_i e^{-βh_i} with γ_i ≥ 0, one coefficient
per block. That normal form drives everything here: verification works
against the exchange identity ω(ab) = ω(b σ_{iβ}(a)) in closed form, the
state space is the simplex over the central coefficients, and corners /
domination / lattice operations reduce to coefficient arithmetic.

Internally all Boltzmann factors are taken relative to a spectral shift
(h ↦ h − c with c the extreme eigenvalue), which never changes any state
but keeps e^{-βh} from overflowing; coefficient vectors are only ever
compared against other vectors produced under the same convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (AlgElement, BlockAlgebra, Functional, Projection, _exchange_residual,
                      is_trace)
from .flow import IM_CAP, InnerFlow

#: |β|·(spectral spread) beyond which e^{-βh} is not representable
EXP_CAP = 700.0
#: entries per chunk of ``verify_kms``'s route-two normal draws and of
#: ``simplex_sweep``'s Boltzmann stacks (memory stays O(chunk + n²))
_HALF_SHIFT_CHUNK_ENTRIES = 2 ** 15


def _shifted_boltzmann(eigenvalues, eigenvectors,
                       betas) -> tuple[list[np.ndarray], np.ndarray]:
    """Boltzmann stacks over a vector of S inverse temperatures: per block the
    (S, n, n) stack e^{-β_s(h_i - c_s)}, one stacked GEMM, and the (S, B) traces.
    c_s is the lowest eigenvalue of all blocks for β_s ≥ 0 and the highest
    otherwise; each slice equals the n × n product (u·e_s)u* bit for bit."""
    betas = np.asarray(betas, dtype=float)
    lams = np.concatenate(eigenvalues)
    shift = np.where(betas >= 0, lams.min(), lams.max())[:, None]
    mats, traces = [], np.empty((len(betas), len(eigenvalues)))
    for i, (w, u) in enumerate(zip(eigenvalues, eigenvectors)):
        e = np.exp(-betas[:, None] * (w - shift))
        mats.append((u * e[:, None, :]) @ u.conj().T)
        traces[:, i] = e.sum(axis=1)
    return mats, traces


def _check_exp_cap(beta: float, spread: float) -> None:
    """Refuse a β that is not finite or whose Boltzmann weights over a spectrum
    of this spread are not representable."""
    if not math.isfinite(beta):
        raise ValueError(f"β = {beta} is not finite")
    if abs(beta) * spread > EXP_CAP:
        raise ValueError(f"|β|·spread = {abs(beta) * spread:.3g} exceeds {EXP_CAP:g}; "
                         "Boltzmann weights are not representable")


def _whole_spread(flow: InnerFlow) -> float:
    """max λ − min λ over all blocks, the spread the shifted weights span."""
    lams = np.concatenate(flow.eigenvalues)
    return lams.max() - lams.min()


def _boltzmann_stack(flow: InnerFlow, betas) -> tuple[list[np.ndarray], np.ndarray]:
    """Shifted Boltzmann stacks of the flow's generator over β, and their traces,
    after :func:`_check_exp_cap` has refused the first β, in order, that fails it."""
    betas = np.asarray(betas, dtype=float)
    spread = _whole_spread(flow)
    finite = np.isfinite(betas)
    bad = ~finite | (np.abs(np.where(finite, betas, 0.0)) * spread > EXP_CAP)
    if bad.any():
        _check_exp_cap(float(betas[bad.argmax()]), spread)
    return _shifted_boltzmann(flow.eigenvalues, flow.eigenvectors, betas)


def _boltzmann(flow: InnerFlow, beta: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Shifted Boltzmann blocks of the flow's generator at one β, and their traces."""
    _check_exp_cap(beta, _whole_spread(flow))
    mats, traces = _shifted_boltzmann(flow.eigenvalues, flow.eigenvectors, [beta])
    return [m[0] for m in mats], traces[0]


@dataclass
class KmsState:
    """A state satisfying the β-equilibrium condition for its flow."""

    functional: Functional
    beta: float
    flow: InnerFlow

    def __post_init__(self):
        if not self.functional.is_state(1e-8):
            raise ValueError(f"not normalized (mass {self.functional.total_mass:.6g})")
        if self.functional.algebra != self.flow.algebra:
            raise ValueError("state and flow live on different algebras")

    @property
    def algebra(self):
        return self.functional.algebra

    @property
    def density(self) -> AlgElement:
        return self.functional.density

    def value(self, a: AlgElement) -> complex:
        return self.functional(a)

    __call__ = value

    def coefficients(self) -> np.ndarray:
        return coefficients_of(self)


@dataclass
class KmsWeight:
    """An unnormalized element of the β-equilibrium cone (e.g. a lattice
    join or meet of states); normalize() recovers a state when mass > 0."""

    functional: Functional
    beta: float
    flow: InnerFlow

    def coefficients(self) -> np.ndarray:
        return coefficients_of(self)

    def normalize(self) -> KmsState:
        m = self.functional.total_mass
        if m <= 1e-12:
            raise ValueError("cannot normalize a (near-)zero cone element")
        return KmsState(self.functional.scaled(1.0 / m), self.beta, self.flow)


@dataclass
class KmsVerdict:
    """Outcome of verify_kms: both routes' residuals, and the worst witness."""

    passed: bool
    max_residual: float
    worst_pair: tuple | None
    residual_exchange: float
    residual_half_shift: float
    beta: float
    tol: float

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] β={self.beta:g}: exchange residual {self.residual_exchange:.3e}, "
                f"half-shift residual {self.residual_half_shift:.3e} (tol {self.tol:.1e})")


def gibbs(flow: InnerFlow, beta: float) -> KmsState:
    """The normalized state e^{-βh}/Tr e^{-βh}, faithful for any finite β."""
    beta = float(beta)
    mats, traces = _boltzmann(flow, beta)
    z = traces.sum()
    density = AlgElement(flow.algebra, [m / z for m in mats])
    return KmsState(Functional(flow.algebra, density), beta, flow)


def verify_kms(flow: InnerFlow, omega: Functional, beta: float,
               tol: float = 1e-8, samples: int = 100, seed: int = 7) -> KmsVerdict:
    """Check the β-equilibrium condition along two independent routes.

    Route one tests the exchange identity ω(ab) = ω(b σ_{iβ}(a)) on every
    pair of eigenbasis matrix units (the identity is sesquilinear, so a
    basis suffices); route two tests ω(a*a) = ω(σ_{-iβ/2}(a) σ_{-iβ/2}(a)*)
    on ``samples`` seeded random elements, stacked in chunks and evaluated
    in the eigenbasis (see :func:`_half_shift_residual`). The verdict passes
    only when the larger of the two maxima is within ``tol``; a NaN in
    either maximum makes it NaN and fails. The worst matrix-unit pair is
    reported as a witness.
    """
    beta = float(beta)
    if isinstance(omega, (KmsState, KmsWeight)):
        omega = omega.functional
    if omega.algebra != flow.algebra:
        raise ValueError("state and flow live on different algebras")
    if abs(beta) / 2.0 > IM_CAP:
        raise ValueError(f"|β|/2 exceeds the analytic strip bound {IM_CAP:g}")
    _check_exp_cap(beta, flow.spectral_spread)      # the factors e^{-β(λ_k-λ_l)} below

    # route one, per block in the eigenbasis: for units a=E_kl, b=E_mn the two
    # sides are δ_lm·d[n,k] and e^{-β(λ_k-λ_l)}·δ_nk·d[l,m]; later blocks win
    # ties, and the first NaN residual sticks
    residual_exchange = 0.0
    density = flow.to_eigenbasis(omega.density)
    for b, (w, dd) in enumerate(zip(flow.eigenvalues, density)):
        val, (k, l, m, nn) = _exchange_residual(dd, np.exp(-beta * (w[:, None] - w[None, :])))
        if val >= residual_exchange or np.isnan(val):
            residual_exchange, worst = val, ((b, k, l), (b, m, nn))

    residual_half = _half_shift_residual(flow, density, beta, samples, seed)
    max_resid = float(np.max((residual_exchange, residual_half)))     # NaN propagates
    return KmsVerdict(passed=bool(max_resid <= tol), max_residual=max_resid,
                      worst_pair=worst, residual_exchange=residual_exchange,
                      residual_half_shift=residual_half, beta=beta, tol=tol)


def _half_shift_residual(flow: InnerFlow, density: list[np.ndarray], beta: float,
                         samples: int, seed: int) -> float:
    """max over samples of |ω(a*a) − ω(σ_{-iβ/2}(a) σ_{-iβ/2}(a)*)|, ω given by its
    eigenbasis density blocks D̂.

    The samples are those of ``random_element`` drawn one after another from
    ``default_rng(seed)`` and scaled to unit Frobenius norm: an (S, 2N) stack of
    normals holds, per sample and block, n² real parts then n² imaginary parts.
    A chunk of samples goes to the eigenbasis in two GEMMs per block, as the
    n × (S·n) row â = [u*a_1u | … | u*a_Su]. There σ_{-iβ/2} scales entry (j, l)
    by e^{β(λ_j−λ_l)/2}, giving b, and the two sides are Tr(â D̂ â*) and
    Tr(b* D̂ b): one GEMM and one conjugate-weighted sum each.
    """
    width = 2 * flow.algebra.coord_dim
    rng = np.random.default_rng(seed)
    residual = 0.0
    per_chunk = max(1, _HALF_SHIFT_CHUNK_ENTRIES // width)
    for start in range(0, samples, per_chunk):
        s = min(per_chunk, samples - start)
        draws = rng.standard_normal((s, width))
        diff, norm2, off = np.zeros(s, dtype=complex), np.zeros(s), 0
        for n, w, u, dd in zip(flow.algebra.block_dims, flow.eigenvalues, flow.eigenvectors,
                               density):
            z = draws[:, off:off + 2 * n * n].reshape(s, 2, n, n) / np.sqrt(2 * n)
            off += 2 * n * n
            norm2 += np.sum(z * z, axis=(1, 2, 3))
            au = ((z[:, 0] + 1j * z[:, 1]).reshape(s * n, n) @ u).reshape(s, n, n)
            hat = (u.conj().T @ au.transpose(1, 0, 2).reshape(n, s * n)).reshape(n, s, n)
            b = np.exp(0.5 * beta * (w[:, None] - w[None, :]))[:, None, :] * hat
            lhs = hat.conj() * (hat.reshape(n * s, n) @ dd).reshape(n, s, n)
            rhs = b.conj() * (dd @ b.reshape(n, s * n)).reshape(n, s, n)
            diff += np.sum(lhs - rhs, axis=(0, 2))
        scaled = np.abs(diff) / np.maximum(norm2, 1e-60)       # a scaled to ‖a‖_F = 1
        residual = float(np.max((residual, scaled.max())))      # NaN propagates
    return residual


def coefficients_of(obj: KmsState | KmsWeight | Functional, flow: InnerFlow | None = None,
                    beta: float | None = None, tol: float = 1e-8) -> np.ndarray:
    """Central coefficients γ with density = Σ γ_i e^{-β(h_i - c)}.

    Raises if the density is not of that form — i.e. the functional is not
    in the β-equilibrium cone of the flow.
    """
    if isinstance(obj, (KmsState, KmsWeight)):
        flow, beta, phi = obj.flow, obj.beta, obj.functional
    else:
        phi = obj
        if flow is None or beta is None:
            raise ValueError("plain functionals need an explicit flow and β")
    mats, traces = _boltzmann(flow, beta)
    scale = phi.density.tol_scale()
    gam = np.empty(len(mats))
    for i, (m, d) in enumerate(zip(mats, phi.density.blocks)):
        gam[i] = float(np.real(np.trace(d))) / traces[i]
        resid = np.max(np.abs(d - gam[i] * m))
        if resid > tol * scale:
            raise ValueError(
                f"block {i}: density is not proportional to e^(-βh) "
                f"(residual {resid:.3e}); functional is outside the equilibrium cone")
    return gam


def _from_coefficients(flow: InnerFlow, beta: float, gam: np.ndarray) -> Functional:
    mats, _ = _boltzmann(flow, beta)
    return Functional(flow.algebra, AlgElement(flow.algebra, [g * m for g, m in zip(gam, mats)]),
                      check=False)


@dataclass
class KmsSimplex:
    """The full β-equilibrium state space: a simplex with one vertex per block."""

    flow: InnerFlow
    beta: float
    vertices: list[KmsState] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def mix(self, weights) -> KmsState:
        w = np.asarray(weights, dtype=float)
        if w.size != len(self.vertices) or np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector over the vertices")
        density = self.flow.algebra.zero()
        for wi, v in zip(w, self.vertices):
            density = density + float(wi) * v.density
        return KmsState(Functional(self.flow.algebra, density, check=False), self.beta, self.flow)

    def barycentric_of(self, psi: KmsState) -> np.ndarray:
        """Weights of ψ in this simplex (γ_i · Tr e^{-βh_i})."""
        gam = coefficients_of(psi)
        _, traces = _boltzmann(self.flow, self.beta)
        return gam * traces


def _simplex_at(flow: InnerFlow, beta: float, normalized: list[np.ndarray]) -> KmsSimplex:
    """The simplex whose vertex i carries block i of the normalized Boltzmann
    blocks e^{-β(h_i - c)}/Tr e^{-β(h_i - c)} and is zero elsewhere."""
    verts = []
    for i, d in enumerate(normalized):
        blocks = [d if j == i else np.zeros_like(m) for j, m in enumerate(normalized)]
        f = Functional(flow.algebra, AlgElement(flow.algebra, blocks), check=False)
        verts.append(KmsState(f, beta, flow))
    return KmsSimplex(flow=flow, beta=beta, vertices=verts)


def kms_simplex(flow: InnerFlow, beta: float) -> KmsSimplex:
    """Vertices: the per-block Gibbs states (all coefficients on one block)."""
    beta = float(beta)
    mats, traces = _boltzmann(flow, beta)
    return _simplex_at(flow, beta, [m / t for m, t in zip(mats, traces)])


def simplex_sweep(flow: InnerFlow, betas) -> np.ndarray:
    """(dimension, vertex count) of the β-equilibrium simplex at each β, in the
    given order, as an (S, 2) integer array; no per-β object is built.

    It makes :func:`kms_simplex`'s checks: the first β in order that is not
    finite or passes ``EXP_CAP`` is refused, and so is the first vertex (by β,
    then by block) whose normalized block fails :class:`KmsState`'s mass test.
    β is taken in chunks of at most ``_HALF_SHIFT_CHUNK_ENTRIES`` density
    entries, so memory stays O(chunk) however long the sweep.
    """
    betas = np.asarray(betas, dtype=float)
    per_chunk = max(1, _HALF_SHIFT_CHUNK_ENTRIES // flow.algebra.coord_dim)
    for start in range(0, len(betas), per_chunk):
        mats, traces = _boltzmann_stack(flow, betas[start:start + per_chunk])
        # the trace of each normalized block m/t, from its diagonal alone
        mass = np.stack([(np.diagonal(m, axis1=1, axis2=2) / t[:, None]).sum(axis=1).real
                         for m, t in zip(mats, traces.T)], axis=1)
        bad = ~(np.abs(mass - 1.0) <= 1e-8)
        if bad.any():
            raise ValueError(f"not normalized (mass {mass.flat[bad.argmax()]:.6g})")
    blocks = flow.algebra.num_blocks
    return np.tile((blocks - 1, blocks), (len(betas), 1))


# -- the bijection with traces ------------------------------------------------

def trace_of(psi: KmsState) -> Functional:
    """The normalized trace paired with ψ via τ(e^{-βh/2}·a·e^{-βh/2}).

    Its density is central with block weights proportional to ψ's
    equilibrium coefficients.
    """
    gam = coefficients_of(psi)
    dims = psi.flow.algebra.block_dims
    mass = float(np.dot(gam, dims))
    if mass <= 0:
        raise ValueError("state has no positive coefficient")
    blocks = [g / mass * np.eye(n, dtype=complex) for g, n in zip(gam, dims)]
    return Functional(psi.flow.algebra, AlgElement(psi.flow.algebra, blocks), check=False)


def from_trace(tau: Functional, flow: InnerFlow, beta: float) -> KmsState:
    """Inverse of :func:`trace_of` up to normalization; τ must be tracial."""
    if not is_trace(tau, 1e-8 * tau.density.tol_scale()):
        raise ValueError("input functional is not a trace")
    dims = flow.algebra.block_dims
    t = np.array([float(np.real(np.trace(d))) / n for d, n in zip(tau.density.blocks, dims)])
    if np.any(t < -1e-12):
        raise ValueError("trace has a negative block weight")
    _, traces = _boltzmann(flow, beta)
    denom = float(np.dot(t, traces))
    if denom <= 0:
        raise ValueError("trace vanishes identically")
    return KmsState(_from_coefficients(flow, beta, t / denom), float(beta), flow)


# -- corners -------------------------------------------------------------------

@dataclass
class CornerRestriction:
    """A state cut down to pAp, with the data needed to undo the cut."""

    corner_algebra: BlockAlgebra
    state: KmsState
    weight: float                       # ψ(p), the lost normalization
    isometries: list                    # per parent block: n_i×r_i matrix or None
    parent_blocks: tuple[int, ...]      # corner block → parent block index
    full: bool                          # p meets every block


def _corner_structure(flow: InnerFlow, p: Projection):
    """Isometries onto range(p) blockwise, plus the compressed flow."""
    h = flow.generator
    comm = max(np.max(np.abs(hb @ pb - pb @ hb)) if hb.size else 0.0
               for hb, pb in zip(h.blocks, p.element.blocks))
    if comm > 1e-9 * max(1.0, h.norm()):
        raise ValueError(f"projection does not commute with the generator "
                         f"(residual {comm:.3e}); the corner flow is undefined")
    isometries, corner_dims, parents, h_blocks = [], [], [], []
    for i, (pb, hb) in enumerate(zip(p.element.blocks, h.blocks)):
        w, u = np.linalg.eigh(pb)
        cols = u[:, w > 0.5]
        if cols.shape[1] == 0:
            isometries.append(None)
            continue
        isometries.append(cols)
        corner_dims.append(cols.shape[1])
        parents.append(i)
        h_blocks.append(cols.conj().T @ hb @ cols)
    if not corner_dims:
        raise ValueError("projection is zero")
    alg_c = BlockAlgebra(tuple(corner_dims))
    flow_c = InnerFlow(alg_c, AlgElement(alg_c, h_blocks))
    return alg_c, flow_c, isometries, tuple(parents)


def restrict_to_corner(psi: KmsState, p: Projection) -> CornerRestriction:
    """ψ(p)⁻¹·ψ restricted to pAp, an equilibrium state for the compressed flow."""
    if p.algebra != psi.flow.algebra:
        raise ValueError("projection lives in a different algebra")
    alg_c, flow_c, isometries, parents = _corner_structure(psi.flow, p)
    weight = float(np.real(psi.functional(p.element)))
    if weight <= 1e-12:
        raise ValueError("state vanishes on the corner; restriction undefined")
    d_blocks = []
    for i in parents:
        v = isometries[i]
        d_blocks.append(v.conj().T @ psi.density.blocks[i] @ v / weight)
    f = Functional(alg_c, AlgElement(alg_c, d_blocks))
    state_c = KmsState(f, psi.beta, flow_c)
    return CornerRestriction(corner_algebra=alg_c, state=state_c, weight=weight,
                             isometries=isometries, parent_blocks=parents,
                             full=p.is_full())


def extend_from_corner(phi: Functional | KmsState, flow: InnerFlow, beta: float,
                       p: Projection) -> KmsState:
    """The unique β-equilibrium state of the ambient flow restricting to φ.

    Requires p to meet every block (otherwise the missing blocks'
    coefficients are undetermined) and φ to be equilibrium for the
    compressed flow.
    """
    if isinstance(phi, KmsState):
        phi = phi.functional
    if not p.is_full():
        missing = [i for i, r in enumerate(p.block_ranks()) if r == 0]
        raise ValueError(f"projection misses block(s) {missing}; extension is not determined")
    alg_c, flow_c, _, parents = _corner_structure(flow, p)
    if phi.algebra != alg_c:
        raise ValueError(f"corner functional has dims {phi.algebra.block_dims}, "
                         f"expected {alg_c.block_dims}")
    c_corner = coefficients_of(phi, flow_c, beta)   # raises if φ is not equilibrium
    _, traces = _boltzmann(flow, beta)
    gam = np.zeros(flow.algebra.num_blocks)
    for idx, i in enumerate(parents):
        gam[i] = c_corner[idx]
    denom = float(np.dot(gam, traces))
    return KmsState(_from_coefficients(flow, beta, gam / denom), float(beta), flow)


def support_compression(psi: KmsState, tol: float = 1e-12) -> tuple[KmsState, tuple[int, ...]]:
    """Drop the blocks ψ does not charge; the result is faithful.

    Needed before GNS-type constructions: a simplex vertex lives on a
    single block and is only faithful there. Returns the compressed state
    together with the indices of the kept blocks.
    """
    masses = [float(np.real(np.trace(d))) for d in psi.density.blocks]
    keep = tuple(i for i, m in enumerate(masses) if m > tol)
    if len(keep) == psi.flow.algebra.num_blocks:
        return psi, keep
    if not keep:
        raise ValueError("state charges no block")
    alg = BlockAlgebra(tuple(psi.flow.algebra.block_dims[i] for i in keep))
    h = AlgElement(alg, [psi.flow.generator.blocks[i] for i in keep])
    d = AlgElement(alg, [psi.density.blocks[i] for i in keep])
    sub_flow = InnerFlow(alg, h)
    return KmsState(Functional(alg, d), psi.beta, sub_flow), keep


# -- domination and the lattice of equilibrium functionals ---------------------

def _cone_pair(phi, psi):
    for x in (phi, psi):
        if not isinstance(x, (KmsState, KmsWeight)):
            raise TypeError("expected KmsState or KmsWeight")
    if phi.flow.algebra != psi.flow.algebra or abs(phi.beta - psi.beta) > 1e-12:
        raise ValueError("cone elements belong to different flows or different β")
    hdiff = (phi.flow.generator - psi.flow.generator).norm()
    if hdiff > 1e-10 * max(1.0, phi.flow.generator.norm()):
        raise ValueError("cone elements belong to different flows")
    return phi, psi


def dominated_decomposition(phi, psi, tol: float = 1e-9) -> AlgElement:
    """For φ ≤ ψ in the equilibrium cone, the central 0 ≤ c ≤ 1 with
    density(φ) = c · density(ψ). Raises with a witness when φ ≰ ψ."""
    phi, psi = _cone_pair(phi, psi)
    scale = psi.functional.density.tol_scale()
    for i, (dp, dq) in enumerate(zip(phi.functional.density.blocks,
                                     psi.functional.density.blocks)):
        w, u = np.linalg.eigh(dq - dp)
        if w[0] < -tol * scale:
            raise ValueError(f"φ is not dominated by ψ: block {i} has "
                             f"eigenvalue {w[0]:.3e} in direction {np.round(u[:, 0], 4)}")
    g_phi, g_psi = phi.coefficients(), psi.coefficients()
    c = np.zeros_like(g_psi)
    for i, (a, b) in enumerate(zip(g_phi, g_psi)):
        if b > 1e-14:
            c[i] = min(max(a / b, 0.0), 1.0)
        elif a > 1e-10:
            raise ValueError(f"φ charges block {i} but ψ does not")
    alg = psi.flow.algebra
    blocks = [ci * np.eye(n, dtype=complex) for ci, n in zip(c, alg.block_dims)]
    return AlgElement(alg, blocks)


def _lattice(phi, psi, combine) -> KmsWeight:
    phi, psi = _cone_pair(phi, psi)
    gam = combine(phi.coefficients(), psi.coefficients())
    return KmsWeight(_from_coefficients(phi.flow, phi.beta, gam), phi.beta, phi.flow)


def lattice_join(phi, psi) -> KmsWeight:
    """Least upper bound in the equilibrium cone: coefficientwise max."""
    return _lattice(phi, psi, np.maximum)


def lattice_meet(phi, psi) -> KmsWeight:
    """Greatest lower bound: coefficientwise min (possibly the zero weight)."""
    return _lattice(phi, psi, np.minimum)
