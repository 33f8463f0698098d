"""Equilibrium states for inner flows at inverse temperature β.

For σ_t = Ad e^{ith} on a block algebra, the β-equilibrium functionals
are exactly the densities Σ_i γ_i e^{-βh_i} with γ_i ≥ 0, one coefficient
per block. That normal form drives everything here: verification works
against the exchange identity ω(ab) = ω(b σ_{iβ}(a)) on matrix units and brackets
the half-shift identity's defect over every element, both in closed form; the
state space is the simplex over the central coefficients, and corners /
domination / lattice operations reduce to coefficient arithmetic.

Every Boltzmann factor comes from one route, ``_boltzmann_factors``, at one β or along
a vector of them: e^{-β(λ − c)} over h's eigenvalues with c the extreme eigenvalue of all
blocks, a shift that never changes a state but keeps the factors from overflowing.
``_boltzmann`` makes the blocks e^{-β(h − c)} from them. Coefficient vectors are only
compared with vectors made under the same shift. At one float β the layers read the
blocks through ``_boltzmann_at``, kept on the flow by :func:`~kmslab.algebra._keep`.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (AlgElement, BlockAlgebra, Functional, Projection, _exchange_sheets,
                      _exchange_witness, _keep, _read_only, _Record, is_trace)
from .flow import InnerFlow

#: |β|·(spectral spread) beyond which e^{-βh} is not representable
EXP_CAP = 700.0
#: density entries per chunk of ``simplex_sweep``'s β: memory stays O(chunk) per sweep
_SWEEP_CHUNK_ENTRIES = 2 ** 15


def _check_exp_cap(beta: float, spread: float) -> None:
    """Refuse a β that is not finite or whose Boltzmann weights over a spectrum
    of this spread are not representable."""
    if not math.isfinite(beta):
        raise ValueError(f"β = {beta} is not finite")
    if abs(beta) * spread > EXP_CAP:
        raise ValueError(f"|β|·spread = {abs(beta) * spread:.3g} exceeds {EXP_CAP:g}; "
                         "Boltzmann weights are not representable")


def _boltzmann_factors(flow: InnerFlow,
                       beta) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """The shifted Boltzmann factors e^{-β(λ - c)} over each block's eigenvalues, their
    sums (the traces) and the weights e^{-β(λ - c)}/Tr: n factors, B traces and n weights
    per block for a float β, (S, …) stacks of them for S values, slice s equal bit for bit
    to the call at β_s. c is the lowest eigenvalue of all blocks for β ≥ 0 and the highest
    otherwise; the first β, in order, that is not finite or passes ``EXP_CAP`` over their
    spread is refused by :func:`_check_exp_cap`."""
    betas = np.asarray(beta, dtype=float)
    low, high = min(w[0] for w in flow.eigenvalues), max(w[-1] for w in flow.eigenvalues)
    spread = float(high - low)                          # each block's w ascends
    # false for a NaN or an ∞ among the β too (∞·0 is NaN)
    if betas.size and not float(np.abs(betas).max()) * spread <= EXP_CAP:
        _check_exp_cap(next(b for b in betas.ravel().tolist() if not abs(b) * spread <= EXP_CAP),
                       spread)
    shift = np.where(betas >= 0, low, high)[..., None]
    factors, traces, weights = [], np.empty(betas.shape + (len(flow.eigenvalues),)), []
    for i, w in enumerate(flow.eigenvalues):
        e = np.exp(-betas[..., None] * (w - shift))
        factors.append(e)
        traces[..., i] = e.sum(axis=-1)
        weights.append(e / traces[..., i, None])
    return factors, traces, weights


def _boltzmann(flow: InnerFlow, beta) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """The shifted Boltzmann blocks e^{-β(h_i - c)} = u·diag(e)·u*, with the traces and
    weights of :func:`_boltzmann_factors`: n × n blocks for a float β, (S, n, n) stacks
    for S values."""
    factors, traces, weights = _boltzmann_factors(flow, beta)
    mats = [(u * e[..., None, :]) @ u.conj().T for e, u in zip(factors, flow.eigenvectors)]
    return mats, traces, weights


def _boltzmann_at(flow: InnerFlow, beta: float) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """``_boltzmann(flow, β)``'s blocks and traces at one float β (no caller reads its weights),
    read-only, kept on the flow for the last β by :func:`~kmslab.algebra._keep`, key ``β.hex()``."""
    beta = float(beta)

    def build():
        mats, traces, _ = _boltzmann(flow, beta)
        return tuple(map(_read_only, mats)), _read_only(traces)

    return _keep(flow, "_kept_boltzmann", beta.hex(), build)


def _check_mass(mass) -> None:
    """:class:`KmsState`'s mass test on one float mass or an array of masses: each must
    be within 1e-8 of 1, so a NaN fails, and the first that is not, in C order, is quoted."""
    ok = abs(mass - 1.0) <= 1e-8
    if ok is not True and not np.all(ok):          # a float that passes takes no array call
        raise ValueError(f"not normalized (mass {np.ravel(mass)[np.argmin(ok)]:.6g})")


class KmsState(_Record):
    """A state satisfying the β-equilibrium condition for its flow."""

    functional: Functional
    beta: float
    flow: InnerFlow

    def __init__(self, functional: Functional, beta: float, flow: InnerFlow):
        self.functional, self.beta, self.flow = functional, beta, flow
        self.__post_init__()

    def __post_init__(self):
        _check_mass(self.functional.total_mass)
        if self.functional.algebra != self.flow.algebra:
            raise ValueError("state and flow live on different algebras")

    @classmethod
    def _certified(cls, functional: Functional, beta: float, flow: InnerFlow) -> "KmsState":
        """The state of a functional its caller has put through ``__post_init__``'s
        checks, installed as given; nothing is checked here."""
        state = cls.__new__(cls)
        state.functional, state.beta, state.flow = functional, beta, flow
        return state

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


class KmsWeight(_Record):
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


class KmsVerdict(_Record):
    """Outcome of verify_kms: route one's residual, route two's bracket
    ``residual_half_shift_lower`` ≤ ‖M‖ ≤ ``residual_half_shift``, and the worst witness."""

    passed: bool
    max_residual: float
    worst_pair: tuple | None
    residual_exchange: float
    residual_half_shift: float
    residual_half_shift_lower: float
    beta: float
    tol: float

    def __init__(self, passed, max_residual, worst_pair, residual_exchange, residual_half_shift,
                 residual_half_shift_lower, beta, tol):
        self.passed, self.max_residual, self.worst_pair = passed, max_residual, worst_pair
        self.residual_exchange, self.residual_half_shift = residual_exchange, residual_half_shift
        self.residual_half_shift_lower, self.beta, self.tol = residual_half_shift_lower, beta, tol

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] β={self.beta:g}: exchange residual {self.residual_exchange:.3e}, "
                f"half-shift residual in [{self.residual_half_shift_lower:.3e}, "
                f"{self.residual_half_shift:.3e}] (tol {self.tol:.1e})")


def gibbs(flow: InnerFlow, beta: float) -> KmsState:
    """The normalized state e^{-βh}/Tr e^{-βh}, faithful for any finite β.

    Each block m/Z is u·diag(p)·u* with p > 0, made by ``_boltzmann``, so the density
    is positive semidefinite by construction: its fresh blocks are adopted and the
    ``Functional`` is built without input checks. ``KmsState`` still checks the mass.
    ``tests/test_certified.py`` runs the checked constructors on its output."""
    beta = float(beta)
    mats, traces = _boltzmann_at(flow, beta)
    z = traces.sum()
    density = AlgElement._adopt(flow.algebra, [m / z for m in mats])
    return KmsState(Functional(flow.algebra, density, check=False), beta, flow)


def verify_kms(flow: InnerFlow, omega: Functional, beta: float,
               tol: float = 1e-8) -> KmsVerdict:
    """Check the β-equilibrium condition along two independent routes.

    Route one tests the exchange identity ω(ab) = ω(b σ_{iβ}(a)) on every
    pair of eigenbasis matrix units (the identity is sesquilinear, so a
    basis suffices), in closed form: O(n²) memory and no loop over the units
    (see :func:`~kmslab.algebra._exchange_sheets`); the worst pair is searched
    in the one block that reports it (:func:`~kmslab.algebra._exchange_witness`).
    Route two tests ω(a*a) = ω(σ_{-iβ/2}(a) σ_{-iβ/2}(a)*) for every a at once: its
    defect at a is the form ⟨Â, M(Â)⟩ in a's eigenbasis coordinates Â, and the norm of
    its operator M is bracketed in closed form, L ≤ ‖M‖ ≤ U, in O(n²) per block once
    the eigenbasis density exists (see :func:`_half_shift_bracket`); the verdict
    reports U as ``residual_half_shift`` and L as ``residual_half_shift_lower``. It
    passes only when the larger of route one's maximum and U is within ``tol``, so a
    pass certifies |ω(a*a) − ω(σ_{-iβ/2}(a) σ_{-iβ/2}(a)*)| ≤ ``tol``·‖a‖²_F for every
    a; for a Hermitian density, L > ``tol`` certifies that some a breaks it. A NaN in
    either route makes the verdict's maximum NaN and fails it. The worst matrix-unit
    pair is reported as a witness.
    """
    beta = float(beta)
    if isinstance(omega, (KmsState, KmsWeight)):
        omega = omega.functional
    if omega.algebra != flow.algebra:
        raise ValueError("state and flow live on different algebras")
    _check_exp_cap(beta, flow.spectral_spread)      # the factors e^{-β(λ_k-λ_l)} below

    # route one, per block in the eigenbasis: for units a=E_kl, b=E_mn the two
    # sides are δ_lm·d[n,k] and e^{-β(λ_k-λ_l)}·δ_nk·d[l,m]. Every block gives its
    # maximum; the witness is searched in one block only: a later block wins a tie,
    # a NaN maximum sticks, and the last NaN block gives the witness. Route two's
    # bracket reads route one's sheet of diagonal defects
    residual_exchange, brackets = 0.0, []
    density = flow.to_eigenbasis(omega.density)
    for b, (w, dd) in enumerate(zip(flow.eigenvalues, density)):
        fac = np.exp(-beta * (w[:, None] - w[None, :]))
        val, sheets = _exchange_sheets(dd, fac)
        if val >= residual_exchange or math.isnan(val):
            residual_exchange, picked = val, (b, dd, fac, sheets)
        brackets.append(_half_shift_bracket(w, dd, beta, sheets[0].T))
    b, dd, fac, sheets = picked
    k, l, m, nn = _exchange_witness(dd, fac, sheets, residual_exchange)
    worst = ((b, k, l), (b, m, nn))

    lower, upper = (float(v) for v in np.max(brackets, axis=0))      # NaN propagates
    max_resid = float(np.max((residual_exchange, upper)))
    return KmsVerdict(passed=bool(max_resid <= tol), max_residual=max_resid,
                      worst_pair=worst, residual_exchange=residual_exchange,
                      residual_half_shift=upper, residual_half_shift_lower=lower,
                      beta=beta, tol=tol)


def _half_shift_bracket(w: np.ndarray, d: np.ndarray, beta: float,
                        defect: np.ndarray) -> tuple[float, float]:
    """(L, U) with L ≤ ‖M‖ ≤ U, for the operator M of route two's defect on one block:
    eigenvalues w, eigenbasis density d, and ``defect`` = |d_ll − F_kl²·d_kk| indexed
    [k, l] (route one's first sheet, transposed). A NaN or ∞ in d makes both NaN.

    With e = e^{β(λ−c)/2}, c the block's mid-spectrum, and F_kl = e_k/e_l, the defect
    ω(a*a) − ω(σ_{-iβ/2}(a) σ_{-iβ/2}(a)*) at a = u·Â·u* is ⟨Â, M(Â)⟩ for
    M(Â) = Â·d − F∘(d·(F∘Â)). M maps the unit E_kl into row k and column l:
    ‖M(E_kl)‖² = Σ_{j≠l}|d_lj|² + (e_k/e_l²)²·Σ_{m≠k}(e_m|d_mk|)² + defect_kl². So
    L = max ‖M(E_kl)‖ and U = ‖M‖_F = (Σ ‖M(E_kl)‖²)^{1/2}, in O(n²) time and memory.
    No factor past e^{|β|·spread} is formed: the sums of squares are taken of entries
    scaled by max|d|, and the unit norms are squared only after scaling by the largest.
    """
    scale = float(np.max(np.abs(d)))
    if not 0.0 < scale < math.inf:              # a zero block, or an entry NaN or ∞
        return (0.0, 0.0) if scale == 0.0 else (math.nan, math.nan)
    e = np.exp(0.5 * beta * (w - 0.5 * (w[0] + w[-1])))
    off = np.abs(d / scale) ** 2
    np.fill_diagonal(off, 0.0)
    rows = scale * np.sqrt(off.sum(axis=1))                     # [l]: row l off the diagonal
    cols = scale * np.sqrt(((e * e)[:, None] * off).sum(axis=0))    # [k]: e∘column k
    units = np.hypot(np.hypot(rows, (e * cols)[:, None] / (e * e)), defect)   # [k, l]
    top = float(np.max(units))
    if top == 0.0:
        return 0.0, 0.0
    return top, top * float(np.sqrt(np.sum((units / top) ** 2)))


def coefficients_of(obj: KmsState | KmsWeight | Functional, flow: InnerFlow | None = None,
                    beta: float | None = None) -> np.ndarray:
    """Central coefficients γ with density = Σ γ_i e^{-β(h_i - c)}.

    Raises if some block is farther than 1e-8·max(1, ‖density‖) (entrywise) from
    that form — i.e. the functional is not in the β-equilibrium cone of the flow.
    """
    if isinstance(obj, (KmsState, KmsWeight)):
        flow, beta, phi = obj.flow, obj.beta, obj.functional
    else:
        phi = obj
        if flow is None or beta is None:
            raise ValueError("plain functionals need an explicit flow and β")
    mats, traces = _boltzmann_at(flow, beta)
    scale = phi.density.tol_scale()
    gam = np.empty(len(mats))
    for i, (m, d) in enumerate(zip(mats, phi.density.blocks)):
        gam[i] = float(np.real(np.trace(d))) / traces[i]
        resid = np.max(np.abs(d - gam[i] * m))
        if resid > 1e-8 * scale:
            raise ValueError(
                f"block {i}: density is not proportional to e^(-βh) "
                f"(residual {resid:.3e}); functional is outside the equilibrium cone")
    return gam


def _from_coefficients(flow: InnerFlow, beta: float, gam: np.ndarray,
                       normalize: bool = False) -> Functional:
    """Σ_i γ_i e^{-β(h_i - c)}, γ first scaled to mass one if ``normalize``."""
    mats, traces = _boltzmann_at(flow, beta)
    if normalize:
        mass = float(np.dot(gam, traces))
        if mass <= 0:
            raise ValueError("trace vanishes identically")
        gam = gam / mass
    return Functional(flow.algebra, AlgElement(flow.algebra, [g * m for g, m in zip(gam, mats)]),
                      check=False)


class KmsSimplex(_Record):
    """The full β-equilibrium state space: a simplex with one vertex per block."""

    flow: InnerFlow
    beta: float
    vertices: list[KmsState]

    def __init__(self, flow: InnerFlow, beta: float, vertices: list[KmsState] | None = None):
        self.flow, self.beta = flow, beta
        self.vertices = [] if vertices is None else vertices

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def mix(self, weights) -> KmsState:
        w = np.asarray(weights, dtype=float)
        # written so that a NaN weight fails them too
        if (w.size != len(self.vertices) or not (w >= -1e-12).all()
                or not abs(w.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be a probability vector over the vertices")
        density = self.flow.algebra.zero()
        for wi, v in zip(w, self.vertices):
            density = density + float(wi) * v.density
        return KmsState(Functional(self.flow.algebra, density, check=False), self.beta, self.flow)

    def barycentric_of(self, psi: KmsState) -> np.ndarray:
        """Weights of ψ in this simplex (γ_i · Tr e^{-βh_i})."""
        gam = coefficients_of(psi)
        _, traces = _boltzmann_at(self.flow, self.beta)
        return gam * traces


def _simplex_at(flow: InnerFlow, beta: float, normalized: list[np.ndarray]) -> KmsSimplex:
    """The simplex whose vertex i carries block i of the normalized Boltzmann
    blocks e^{-β(h_i - c)}/Tr e^{-β(h_i - c)} and is zero elsewhere.

    Vertex i adopts its block, complex as ``_boltzmann`` makes it, as given; every
    other block is one read-only zero block per shape, shared by all the vertices.
    Each vertex is checked once, in order, by :class:`KmsState`'s mass test on the trace
    of its one block: the zero blocks add exactly 0 to its mass. It is then installed
    with ``KmsState._certified``."""
    zeros = {shape: np.zeros(shape, dtype=complex) for shape in {d.shape for d in normalized}}
    verts = []
    for i, d in enumerate(normalized):
        _check_mass(float(np.trace(d).real))
        blocks = [d if j == i else zeros[m.shape] for j, m in enumerate(normalized)]
        f = Functional(flow.algebra, AlgElement._adopt(flow.algebra, blocks), check=False)
        verts.append(KmsState._certified(f, beta, flow))
    return KmsSimplex(flow=flow, beta=beta, vertices=verts)


def kms_simplex(flow: InnerFlow, beta: float) -> KmsSimplex:
    """Vertices: the per-block Gibbs states (all coefficients on one block)."""
    beta = float(beta)
    mats, traces = _boltzmann_at(flow, beta)
    return _simplex_at(flow, beta, [m / t for m, t in zip(mats, traces)])


def simplex_sweep(flow: InnerFlow, betas) -> np.ndarray:
    """(dimension, vertex count) of the β-equilibrium simplex at each β, in the
    given order, as an (S, 2) integer array; no per-β object and no block is built.

    It makes :func:`kms_simplex`'s checks: the first β in order that is not
    finite or passes ``EXP_CAP`` is refused, and so is the first vertex (by β,
    then by block) whose normalized block fails :class:`KmsState`'s mass test.
    That mass, Tr(u·diag(p)·u*), is read off the weights p of
    :func:`_boltzmann_factors` as Σ_j p_j·‖u_j‖², with the squared norms of the block's
    eigenvector columns taken once: O(S·n) per block. β is taken in chunks of
    ``_SWEEP_CHUNK_ENTRIES`` // N values, N the algebra's density entries, so memory
    stays O(chunk) however long the sweep.
    """
    betas = np.asarray(betas, dtype=float)
    per_chunk = max(1, _SWEEP_CHUNK_ENTRIES // flow.algebra.coord_dim)
    norms = [np.vecdot(u, u, axis=0).real for u in flow.eigenvectors]
    for start in range(0, len(betas), per_chunk):
        _, _, weights = _boltzmann_factors(flow, betas[start:start + per_chunk])
        _check_mass(np.stack([p @ q for p, q in zip(weights, norms)], axis=1))
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
    return KmsState(_from_coefficients(flow, beta, t, normalize=True), float(beta), flow)


# -- corners -------------------------------------------------------------------

class CornerRestriction(_Record):
    """A state cut down to pAp, with its lost normalization."""

    state: KmsState
    weight: float                       # ψ(p)
    full: bool                          # p meets every block


def _corner_structure(flow: InnerFlow, p: Projection):
    """Isometries onto range(p) blockwise, plus the compressed flow."""
    h = flow.generator
    comm = max(np.max(np.abs(hb @ pb - pb @ hb)) if hb.size else 0.0
               for hb, pb in zip(h.blocks, p.element.blocks))
    if comm > 1e-9 * max(1.0, flow.generator_norm):
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
    return CornerRestriction(state=state_c, weight=weight, full=p.is_full())


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
    gam = np.zeros(flow.algebra.num_blocks)
    gam[list(parents)] = c_corner
    return KmsState(_from_coefficients(flow, beta, gam, normalize=True), float(beta), flow)


def support_compression(psi: KmsState) -> tuple[KmsState, tuple[int, ...]]:
    """Drop the blocks ψ does not charge (mass at most 1e-12); the result is faithful.

    Needed before GNS-type constructions: a simplex vertex lives on a
    single block and is only faithful there. Returns the compressed state
    together with the indices of the kept blocks.
    """
    masses = [float(np.real(np.trace(d))) for d in psi.density.blocks]
    keep = tuple(i for i, m in enumerate(masses) if m > 1e-12)
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
    if hdiff > 1e-10 * max(1.0, phi.flow.generator_norm):
        raise ValueError("cone elements belong to different flows")
    return phi, psi


def dominated_decomposition(phi, psi) -> AlgElement:
    """For φ ≤ ψ in the equilibrium cone, the central 0 ≤ c ≤ 1 with
    density(φ) = c · density(ψ). Raises with a witness when φ ≰ ψ, that is when
    some block of ψ − φ has an eigenvalue below −1e-9·max(1, ‖ψ‖)."""
    phi, psi = _cone_pair(phi, psi)
    scale = psi.functional.density.tol_scale()
    for i, (dp, dq) in enumerate(zip(phi.functional.density.blocks,
                                     psi.functional.density.blocks)):
        w, u = np.linalg.eigh(dq - dp)
        if w[0] < -1e-9 * scale:
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
