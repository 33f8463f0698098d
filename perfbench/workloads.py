"""The numeric workloads: input generators, op pipelines and their oracles.

Every op is generated from ``(seed, op index)`` alone, so the same seed gives
the same inputs however many ops a run reaches. The op index also fixes the
op's *slot* in the workload's round — a fixed list of sizes — so each round
carries the same size mix and only the values depend on the seed. Slots are
chosen so that an op's code path (node counts, refusals, lanes) depends on
the slot and not on the values, which keeps layer counts repeatable.

An op kind is a pair ``(run, check)``: ``run`` takes the generated input
through the program and is timed; ``check`` compares its output with an
oracle — the second route, a closed form from the generator's known
spectrum, or an expected refusal — and raises :class:`OracleError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import kmslab as km


class OracleError(Exception):
    """An op's output disagrees with its oracle."""


def expect(cond, message: str) -> None:
    if not cond:
        raise OracleError(message)


def op_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """The generator of op ``index``; warm-up ops draw from stream 1."""
    return np.random.default_rng([seed, stream, index])


@dataclass
class Workload:
    name: str
    slots: list                 # one round: (kind, size) per op
    make: object                # (slot, rng) -> input
    kinds: dict                 # kind -> (run, check)
    warmup_slots: list          # one small slot per kind, for set-up
    tail_pct: float             # percentile reported as op_tail_ms
    trace_rounds: int           # rounds in each pass of a traced run
    round_s: float              # seconds one round takes on the reference machine
    mix: str = ""               # the size mix, in words

    def generate(self, seed: int, index: int):
        kind, size = self.slots[index % len(self.slots)]
        return kind, self.make((kind, size), op_rng(seed, index))

    def warmup(self, seed: int):
        """One op per kind, generated lazily: cli_mix inputs share file names."""
        for i, (kind, size) in enumerate(self.warmup_slots):
            yield kind, self.make((kind, size), op_rng(seed, i, stream=1))


# -- shared generators ----------------------------------------------------------------

def with_spectrum(rng, lam):
    """(λ, q, h): a random unitary q and the Hermitian h = q diag(λ) q*."""
    n = lam.size
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = (q * lam) @ q.conj().T
    return lam, q, 0.5 * (h + h.conj().T)


def known_hermitian(rng, n: int, spread: float):
    """A Hermitian n×n generator with known eigenvalues, min 0 and max ``spread``."""
    if n == 1:
        lam = np.array([rng.uniform(0.0, spread)])
    else:
        lam = np.sort(np.concatenate([[0.0, spread], rng.uniform(0.0, spread, n - 2)]))
    return with_spectrum(rng, lam)


def gibbs_closed_form(blocks, beta: float):
    """Gibbs density blocks from the generator's known spectra, and Z per block."""
    shift = min(lam.min() for lam, _, _ in blocks) if beta >= 0 else \
        max(lam.max() for lam, _, _ in blocks)
    weights = [np.exp(-beta * (lam - shift)) for lam, _, _ in blocks]
    z = sum(w.sum() for w in weights)
    dens = [(q * (w / z)) @ q.conj().T for (_, q, _), w in zip(blocks, weights)]
    return dens, np.array([w.sum() / z for w in weights])


def rel_gap(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(1e-300, float(np.max(np.abs(b)))))


# -- equilibrium ----------------------------------------------------------------------

# an odd round length puts the median inside one slot's class, not between two
EQ_PROBLEMS = [(2,), (3, 5), (2, 4, 6), (8,), (2, 3, 4, 5), (12, 4), (16,), (6, 6, 6, 6),
               (24,), (32,), (4, 8), (2, 2), (10, 3, 2), (32, 4), (32, 8, 2), (5,), (4, 4)]
EQ_SITES = [6, 7, 8, 9]


def _eq_slots():
    slots, problems, sites = [], iter(EQ_PROBLEMS), iter(EQ_SITES)
    for i in range(len(EQ_PROBLEMS) + len(EQ_SITES)):
        slots.append(("product", next(sites)) if i % 5 == 4 else ("problem", next(problems)))
    return slots


def _eq_make(slot, rng):
    kind, size = slot
    beta = float(rng.uniform(-3.0, 3.0))
    if kind == "product":
        lam, q, h = known_hermitian(rng, 2, float(rng.uniform(0.5, 2.0)))
        return {"site": (lam, q, h), "beta": beta, "sites": size}
    blocks = [known_hermitian(rng, n, float(rng.uniform(0.5, 3.0))) for n in size]
    a = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
         for n in size]
    return {"dims": size, "blocks": blocks, "beta": beta, "element": a,
            "smooth_n": float(rng.uniform(1.0, 4.0)),
            "grid": beta + np.linspace(-0.5, 0.5, 7)}


def _eq_problem_run(inp):
    alg = km.BlockAlgebra(inp["dims"])
    beta = inp["beta"]
    flow = km.InnerFlow(alg, alg.element([h for _, _, h in inp["blocks"]]))
    psi = km.gibbs(flow, beta)
    good = km.verify_kms(flow, psi, beta)
    d = sum(inp["dims"])
    tracial = km.Functional(alg, alg.element([np.eye(n) / d for n in inp["dims"]]))
    wrong = km.verify_kms(flow, tracial, beta)
    simplex = km.kms_simplex(flow, beta)
    weights = simplex.barycentric_of(psi)
    mixed = simplex.mix(weights)
    _, cert = km.kms_bundle_fd(flow, inp["grid"])
    back = km.from_trace(km.trace_of(psi), flow, beta)
    a, n = alg.element(inp["element"]), inp["smooth_n"]
    closed = flow.smooth(a, n)
    quad = flow.smooth(a, n, method="quadrature")
    return {"psi": psi, "good": good, "wrong": wrong, "simplex": simplex,
            "weights": weights, "mixed": mixed, "cert": cert, "back": back,
            "closed": closed, "quad": quad}


def _eq_problem_check(inp, out):
    beta, blocks, dims = inp["beta"], inp["blocks"], inp["dims"]
    dens, block_mass = gibbs_closed_form(blocks, beta)
    psi = out["psi"]
    for got, ref in zip(psi.density.blocks, dens):
        expect(np.max(np.abs(got - ref)) <= 1e-10, "gibbs density differs from e^{-βh}/Z")
    good, wrong = out["good"], out["wrong"]
    expect(good.passed and good.max_residual <= 1e-8,
           f"verify_kms rejects the Gibbs state ({good.max_residual:.3e})")
    spread = max(lam.max() - lam.min() for lam, _, _ in blocks)
    defect = math.expm1(abs(beta) * spread) / sum(dims)
    expect(not wrong.passed, "verify_kms accepts the tracial state")
    expect(abs(wrong.residual_exchange - defect) <= 1e-9 * max(1.0, defect),
           f"tracial exchange defect {wrong.residual_exchange!r} != (e^(|β|s)-1)/D = {defect!r}")
    expect(len(out["simplex"].vertices) == len(dims), "simplex has the wrong vertex count")
    expect(np.max(np.abs(out["weights"] - block_mass)) <= 1e-10,
           "barycentric weights differ from the block masses")
    for got, ref in zip(out["mixed"].density.blocks, psi.density.blocks):
        expect(np.max(np.abs(got - ref)) <= 1e-10, "mixing the vertices does not rebuild ψ")
    cert = out["cert"]
    expect(cert.ok and cert.vertex_counts == [len(dims)] * len(inp["grid"]),
           "bundle certificate fails on an inner flow")
    for got, ref in zip(out["back"].density.blocks, psi.density.blocks):
        expect(np.max(np.abs(got - ref)) <= 1e-10, "from_trace(trace_of(ψ)) != ψ")
    closed, quad = out["closed"], out["quad"]
    n = inp["smooth_n"]
    for (lam, q, _), a_blk, got in zip(blocks, inp["element"], closed.blocks):
        damp = np.exp(-(lam[:, None] - lam[None, :]) ** 2 / (4.0 * n))
        ref = q @ (damp * (q.conj().T @ a_blk @ q)) @ q.conj().T
        expect(rel_gap(got, ref) <= 1e-10, "closed-form smoothing differs from the known spectrum")
    diff = math.sqrt(sum(np.linalg.norm(q - c) ** 2 for q, c in zip(quad.blocks, closed.blocks)))
    norm = math.sqrt(sum(np.linalg.norm(c) ** 2 for c in closed.blocks))
    expect(diff <= 1e-8 * norm, "quadrature smoothing differs from the closed form")


def _eq_product_run(inp):
    spec = km.ItpfiSpec(inp["site"][2])
    return km.product_kms_state(spec, inp["beta"], inp["sites"])


def _eq_product_check(inp, out):
    site = gibbs_closed_form([inp["site"]], inp["beta"])[0][0]
    ref = np.ones((1, 1), dtype=complex)
    for _ in range(inp["sites"]):
        ref = np.kron(ref, site)
    expect(np.max(np.abs(out.density.blocks[0] - ref)) <= 1e-12,
           "product state differs from the tensor power of the site Gibbs state")


EQUILIBRIUM = Workload(
    name="equilibrium", slots=_eq_slots(), make=_eq_make,
    kinds={"problem": (_eq_problem_run, _eq_problem_check),
           "product": (_eq_product_run, _eq_product_check)},
    warmup_slots=[("problem", (2, 3)), ("product", 6)],
    tail_pct=90.0, trace_rounds=2, round_s=2.0,
    mix=("rounds of 21 ops: 17 problems with block dims "
         + ", ".join(str(d) for d in EQ_PROBLEMS)
         + " (β uniform in [-3, 3], block spreads uniform in [0.5, 3]) and a product "
         "state at 6, 7, 8 and 9 two-level sites as every fifth op"))


# -- modular --------------------------------------------------------------------------

# N = 8 five times puts the median in the middle of that class; N = 12 three
# times, above it N = 13 once, puts the tail in the middle of the N = 12 class
MOD_SHAPES = [(1, 1), (2, 2, 2), (2, 2), (1, 1, 1), (3, 1), (2, 2), (2,), (2, 2, 2), (2, 2),
              (2, 1), (3, 2), (2, 2), (1, 1, 2), (3, 1, 1), (2, 2), (2, 1, 1, 1), (2, 2, 2),
              (3,)]


def _mod_make(slot, rng):
    _, dims = slot
    return {"dims": dims, "beta": float(rng.uniform(-2.0, 2.0)),
            "blocks": [known_hermitian(rng, n, float(rng.uniform(0.5, 2.0))) for n in dims]}


def _mod_run(inp):
    alg = km.BlockAlgebra(inp["dims"])
    flow = km.InnerFlow(alg, alg.element([h for _, _, h in inp["blocks"]]))
    psi = km.gibbs(flow, inp["beta"])
    g = km.gns(alg, psi.functional)
    polar = km.modular_data(g, method="polar")
    closed = km.modular_data(g, method="closed_form")
    return {"polar": polar, "closed": closed,
            "flow": km.verify_modular_flow(flow, psi),
            "commutant": km.commutant_gap(g, polar),
            "center": km.center_dimension(g)}


def _mod_check(inp, out):
    dims = inp["dims"]
    n_coord = sum(n * n for n in dims)
    expect(np.max(np.abs(out["polar"].delta - out["closed"].delta)) <= 1e-9,
           "polar and closed-form modular operators differ")
    dens, _ = gibbs_closed_form(inp["blocks"], inp["beta"])
    ratios = []
    for d in dens:
        p = np.linalg.eigvalsh(d)
        ratios.extend((p[:, None] / p[None, :]).reshape(-1))
    ref = np.sort(ratios)
    got = np.sort(np.linalg.eigvalsh(out["polar"].delta))
    expect(np.max(np.abs(got - ref) / ref) <= 1e-9, "Δ spectrum differs from {p_a/p_b}")
    expect(out["flow"].passed, f"modular flow check fails ({out['flow'].max_residual:.3e})")
    dim_rep, dim_comm, gap = out["commutant"]
    expect(dim_rep == dim_comm == n_coord and gap <= 1e-8,
           f"JπJ is not the commutant (dims {dim_rep}/{dim_comm}, gap {gap:.3e})")
    expect(out["center"] == len(dims), "center dimension differs from the block count")


MODULAR = Workload(
    name="modular", slots=[("gns", s) for s in MOD_SHAPES], make=_mod_make,
    kinds={"gns": (_mod_run, _mod_check)},
    warmup_slots=[("gns", (1, 1))],
    tail_pct=86.0, trace_rounds=2, round_s=2.7,
    mix=(f"rounds of {len(MOD_SHAPES)} ops, with block shapes "
         + ", ".join(str(s) for s in MOD_SHAPES)
         + " (N = Σn² from 2 to 13; N = 8 five times and N = 12 three times), "
           "β uniform in [-2, 2], block spreads in [0.5, 2]"))


# -- cocycle --------------------------------------------------------------------------

# (family, (step, half_range)); K = half_range/step. One round holds 3 grids
# at K = 16 and 32, 9 at K = 64 and 6 at K = 128, so the median falls in the
# middle of the K = 64 class. K = 128 has no perturbed grid: a refusal stops
# before the trivializer's stages, so the class costs the same throughout and
# the tail falls in its middle. K = 256 (2^-7, 2) is left out: one such op
# takes about 8 s, more than a third of a run.
COC_FAMILIES = ("coboundary", "bilinear", "perturbed")
COC_SLOTS = ([(f, (2.0 ** -4, 1.0)) for f in COC_FAMILIES]
             + [(f, (2.0 ** -5, 1.0)) for f in COC_FAMILIES]
             + [(f, (2.0 ** -6, 1.0)) for f in COC_FAMILIES]
             + [(f, (2.0 ** -5, 2.0)) for f in COC_FAMILIES] * 2
             + [(f, (2.0 ** -7, 1.0)) for f in ("coboundary", "bilinear", "coboundary")]
             + [(f, (2.0 ** -6, 2.0)) for f in ("bilinear", "coboundary", "bilinear")])


def _coc_make(slot, rng):
    family, (step, half) = slot
    k = int(round(half / step))
    x = step * np.arange(-k, k + 1)
    # small enough phases that the trivializer's rescale exponent, and so every
    # stage's loop lengths, depend on the grid alone: 0 for half-range 2, 1 for 1
    if family == "bilinear":
        c = float(rng.uniform(0.2, 0.7))
        return {"family": family, "step": step, "half": half, "c": c,
                "phases": -c * np.outer(x, x)}
    chain, phases = coboundary_phases(rng, x)
    if family == "perturbed":
        phases = perturbed(rng, phases, k)
    return {"family": family, "step": step, "half": half, "chain": chain, "phases": phases}


def coboundary_phases(rng, x):
    """(φ(x), φ(s) + φ(t) − φ(s+t) on x × x) for a seeded smooth phase φ with φ(0) = 0."""
    amp = rng.uniform(0.05, 0.15, 3)
    freq = rng.uniform(0.3, 1.0, 3)
    shift = rng.uniform(0.0, 2.0 * np.pi, 3)

    def phi(t):
        return sum(a * (np.sin(f * t + s) - np.sin(s)) for a, f, s in zip(amp, freq, shift))

    return phi(x), phi(x)[:, None] + phi(x)[None, :] - phi(x[:, None] + x[None, :])


def perturbed(rng, phases, k: int):
    """A copy with one off-axis entry kicked by 1.5–3 rad: the identity fails by > 1."""
    i, j = rng.integers(1, k // 2 + 1, size=2) * rng.choice([-1, 1], size=2)
    out = phases.copy()
    out[k + i, k + j] += rng.uniform(1.5, 3.0)
    return out


def in_range_triples(k: int) -> int:
    """Triples (i, j, l) in [-K, K]³ with |i+j| ≤ K and |j+l| ≤ K."""
    return sum((2 * k + 1 - abs(j)) ** 2 for j in range(-k, k + 1))


def _coc_run(inp):
    grid = km.CocycleGrid(step=inp["step"], half_range=inp["half"],
                          values=np.exp(1j * inp["phases"]))
    try:
        return {"result": km.trivialize(grid)}
    except ValueError as e:
        return {"refused": str(e)}


def _coc_check(inp, out):
    if inp["family"] == "perturbed":
        expect("refused" in out and "identity fails" in out["refused"],
               "a perturbed non-cocycle was not refused")
        return
    expect("refused" not in out, f"a cocycle was refused: {out.get('refused')}")
    res = out["result"]
    k = int(round(inp["half"] / inp["step"]))
    expect(res.precheck.checked == in_range_triples(k) and res.precheck.skipped == 0,
           f"check_cocycle counted {res.precheck.checked} triples, expected {in_range_triples(k)}")
    expect(res.achieved_residual <= 1e-6, f"trivializer residual {res.achieved_residual:.3e}")
    chain = res.chain
    if inp["family"] == "bilinear":
        ref = km.bilinear_trivializer(inp["c"], inp["step"], chain.half_range)
    else:
        kf = chain.half_index_count
        ref = km.Cochain(inp["step"], chain.half_range,
                         np.exp(1j * inp["chain"][k - kf:k + kf + 1]))
    gap = km.character_quotient_gap(chain, ref)[1]
    expect(gap <= 1e-6,
           f"trivializer differs from the known chain by more than a character ({gap:.3e})")


COCYCLE = Workload(
    name="cocycle", slots=COC_SLOTS, make=_coc_make,
    kinds={f: (_coc_run, _coc_check) for f in COC_FAMILIES},
    warmup_slots=[(f, (2.0 ** -4, 1.0)) for f in COC_FAMILIES],
    tail_pct=83.5, trace_rounds=1, round_s=6.1,
    mix=(f"rounds of {len(COC_SLOTS)} ops, (family, step, half-range): "
         + ", ".join(f"({f}, 2^{int(round(math.log2(s)))}, {h:g})" for f, (s, h) in COC_SLOTS)
         + "; K = 16 and 32 three times each, K = 64 nine times, K = 128 six times, "
           "c of the bilinear cocycles uniform in [0.2, 0.7]"))
