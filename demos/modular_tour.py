"""A walk through the modular machinery attached to one faithful state.

The GNS construction turns a state into a Hilbert space with a cyclic
vector; the modular operator and conjugation fall out of the polar
decomposition of the closure of a*Omega -> a Omega.  At matrix scale all
of this is explicit, so the big structural facts — the modular flow being
a rescaled version of the dynamics, and J mapping the algebra onto its
commutant — become things you can print.
"""

import numpy as np

from kmslab import (BlockAlgebra, InnerFlow, commutant_gap, gibbs, gns,
                    modular_data, random_element, random_hermitian,
                    verify_modular_flow)


def delta_spectrum_demo():
    # h = diag(0,1) at beta = log 2: the density has weights (2/3, 1/3),
    # so Delta eigenvalues are the ratios {1/2, 1, 1, 2}
    alg = BlockAlgebra((2,))
    flow = InnerFlow(alg, alg.element([np.diag([0.0, 1.0]).astype(complex)]))
    psi = gibbs(flow, np.log(2.0))
    g = gns(alg, psi.functional)
    md = modular_data(g)
    print("Delta spectrum:", np.round(np.linalg.eigvalsh(md.delta), 10))

    # two routes to Delta: polar decomposition vs left/right multiplication
    md2 = modular_data(g, method="closed_form")
    print("route gap:", np.linalg.norm(md.delta - md2.delta))


def flow_identity_demo(seed=3):
    rng = np.random.default_rng(seed)
    alg = BlockAlgebra((3,))
    flow = InnerFlow(alg, random_hermitian(alg, rng))
    beta = 1.7
    psi = gibbs(flow, beta)
    rep = verify_modular_flow(flow, psi)
    print(f"modular flow = dynamics at speed -beta: residual at most "
          f"{rep.max_residual:.2e} for |t| <= {max(abs(t) for t in rep.samples)}")

    g = gns(alg, psi.functional)
    md = modular_data(g)
    # spot check one matrix element by hand
    a = random_element(alg, rng)
    t = 0.8
    u = md.flow_unitary(t)
    lhs = u @ g.rep(a) @ u.conj().T
    rhs = g.rep(flow.evolve(a, -beta * t))
    print("hand check at t=0.8:", np.linalg.norm(lhs - rhs))


def commutant_demo(seed=11):
    rng = np.random.default_rng(seed)
    alg = BlockAlgebra((2, 2))
    flow = InnerFlow(alg, random_hermitian(alg, rng))
    psi = gibbs(flow, 0.9)
    g = gns(alg, psi.functional)
    md = modular_data(g)
    dim_alg, dim_comm, gap = commutant_gap(g, md)
    print(f"dim pi(A) = {dim_alg}, dim J pi(A) J = {dim_comm}, "
          f"subspace distance {gap:.2e}")
    # J is antilinear, squares to 1, and inverts Delta:
    n = md.delta.shape[0]
    jj = np.array([md.apply_j(md.apply_j(e)) for e in np.eye(n, dtype=complex)]).T
    print("J^2 = 1:", np.linalg.norm(jj - np.eye(n)) < 1e-12)


if __name__ == "__main__":
    delta_spectrum_demo()
    print()
    flow_identity_demo()
    print()
    commutant_demo()
