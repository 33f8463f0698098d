"""Kept results against fresh ones.

A drawn program of public calls runs on one set of shared objects: two flows and one
functional, whose density one step replaces with an equal copy. Every result must equal,
bit for bit, the same call on fresh objects (a new ``InnerFlow`` over a copied generator,
a new ``Functional`` over a copied density), which by construction hold nothing kept.
The program then runs in four threads on new shared objects, each thread from its own
starting step, and must give the serial bits. Identity and call-count claims ("no second
triple") stay with the tests of each module.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from kmslab import (BlockAlgebra, InnerFlow, KmsState, gibbs, gns, kms_simplex, modular_data,
                    random_hermitian, random_state, verify_kms, verify_modular_flow)
from kmslab.algebra import Functional
from kmslab.kms import coefficients_of, from_trace, trace_of

BETAS = (1.3, 1.3 * (1 + 1e-9), 0.0, -0.0, -0.7)     # two keys a rounded one would merge


def _bits(*arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _gibbs(flows, phi, f, beta):
    flow = flows[f]
    psi = gibbs(flow, beta)
    tau = trace_of(psi)
    back = from_trace(tau, flow, beta)
    return _bits(*psi.density.blocks, *tau.density.blocks, *back.density.blocks,
                 coefficients_of(psi.functional, flow, beta), coefficients_of(back))


def _simplex(flows, phi, f, beta):
    simplex = kms_simplex(flows[f], beta)
    return _bits(*(b for v in simplex.vertices for b in v.density.blocks),
                 simplex.barycentric_of(gibbs(flows[f], beta)))


def _verify(flows, phi, f, beta):
    verdict = verify_kms(flows[f], phi, beta)
    return [verdict.residual_exchange.hex(), verdict.residual_half_shift.hex(),
            verdict.residual_half_shift_lower.hex(),
            verdict.worst_pair]


def _gns(flows, phi):
    g = gns(phi.algebra, phi)
    return _bits(*(a for eig in g.density_eigs for a in eig), *g.sqrt_blocks)


def _modular(flows, phi, method):
    md = modular_data(gns(phi.algebra, phi), method)
    return [md.method] + _bits(md.log_eigenvalues, md.log_eigenvectors, md.conj_kernel)


def _modular_flow(flows, phi, f, beta):
    report = verify_modular_flow(flows[f], KmsState(phi, beta, flows[f]))
    return [report.passed, report.max_residual.hex()]


def _smooth(flows, phi, f, method):
    return _bits(*flows[f].smooth(phi.density, 0.7, method=method).blocks)


def _norm(flows, phi, f):
    return [flows[f].generator.norm().hex(), phi.density.norm().hex()]


def _replace(flows, phi):
    phi.density = phi.algebra.element(list(phi.density.blocks))
    return []


CALLS = {"gibbs": _gibbs, "simplex": _simplex, "verify": _verify, "gns": _gns,
         "modular": _modular, "modular_flow": _modular_flow, "smooth": _smooth,
         "norm": _norm, "replace": _replace}

_F, _B = st.integers(0, 1), st.sampled_from(BETAS)
STEPS = st.one_of(
    st.tuples(st.sampled_from(("gibbs", "simplex", "verify", "modular_flow")), _F, _B),
    st.tuples(st.sampled_from(("gns", "replace"))),
    st.tuples(st.just("modular"), st.sampled_from(("polar", "closed_form"))),
    st.tuples(st.just("smooth"), _F, st.sampled_from(("closed_form", "quadrature"))),
    st.tuples(st.just("norm"), _F),
)


def _objects(dims, seed):
    """Two flows and one functional on the algebra of ``dims``, the same for one seed."""
    alg = BlockAlgebra(dims)
    rng = np.random.default_rng(seed)
    flows = [InnerFlow(alg, random_hermitian(alg, rng, scale=2.0)) for _ in range(2)]
    return flows, random_state(alg, rng)


def _fresh(flows, phi):
    """New objects equal to these, holding nothing kept."""
    alg = phi.algebra
    return ([InnerFlow(alg, alg.element(list(f.generator.blocks))) for f in flows],
            Functional(alg, alg.element(list(phi.density.blocks))))


def _call(step, flows, phi):
    name, *args = step
    return CALLS[name](flows, phi, *args)


def _run(program, flows, phi):
    return [_call(step, flows, phi) for step in program]


def _kept_arrays(flows, phi):
    """Every array the objects keep."""
    out = []
    for flow in flows:
        if flow._kept_boltzmann is not None:
            mats, traces = flow._kept_boltzmann[1]
            out += [*mats, traces]
    if phi._gns is not None:
        g = phi._gns[1]
        out += [a for eig in g.density_eigs for a in eig] + list(g.sqrt_blocks)
        for kept in (g._kept_polar, g._kept_closed_form):
            if kept is not None:
                out += [kept[1].log_eigenvalues, kept[1].log_eigenvectors, kept[1].conj_kernel]
    return out


# every β on one flow, the two near-equal ones in turn, while one state's triple and
# modular data are built
@example(dims=(3, 2), seed=3535, program=[
    ("gibbs", 0, 1.3), ("simplex", 0, 1.3 * (1 + 1e-9)), ("modular", "polar"),
    ("gibbs", 0, 0.0), ("simplex", 0, -0.0), ("gns",), ("gibbs", 0, -0.7),
    ("replace",), ("modular_flow", 0, 1.3), ("modular", "closed_form"), ("simplex", 0, 1.3)])
@given(dims=st.sampled_from([(2,), (2, 1), (3, 2)]), seed=st.integers(0, 2 ** 16),
       program=st.lists(STEPS, min_size=1, max_size=8))
def test_kept_results_are_the_bits_of_fresh_objects(dims, seed, program):
    flows, phi = _objects(dims, seed)
    serial = []
    for step in program:
        serial.append(_call(step, flows, phi))
        assert serial[-1] == _call(step, *_fresh(flows, phi)), step
    assert not any(a.flags.writeable for a in _kept_arrays(flows, phi))

    # each thread starts at its own step; a step's bits do not depend on the order
    shared = _objects(dims, seed)
    starts = [i % len(program) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [(s, pool.submit(_run, program[s:] + program[:s], *shared))
                       for s in starts]
            assert all(f.result(timeout=60) == serial[s:] + serial[:s] for s, f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert _run(program, *shared) == serial
