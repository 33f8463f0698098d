# Gibbs states and the equilibrium condition on small block algebras.
#
# Everything here is desk-scale: a block algebra is a tuple of full matrix
# algebras, a flow is conjugation by e^{ith}, and the KMS condition at
# inverse temperature beta is an exchange identity we can check numerically
# on a basis.

import numpy as np

from kmslab import (BlockAlgebra, Functional, InnerFlow, gibbs, kms_simplex,
                    verify_kms, trace_of, from_trace)

rng = np.random.default_rng(7)

# ---- a single 4x4 block -----------------------------------------------------

alg = BlockAlgebra((4,))
h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
h = alg.element([(h + h.conj().T) / 2])
flow = InnerFlow(alg, h)

for beta in (-1.0, 0.0, 2.5):
    psi = gibbs(flow, beta)
    rep = verify_kms(flow, psi, beta)
    print(f"beta = {beta:+.1f}   gibbs verifies: {rep.passed}   "
          f"max residual {rep.max_residual:.2e}")

# The tracial state is NOT equilibrium for a nontrivial flow at beta != 0.
# On M_2 with h = diag(0,1) at beta = 1 the defect comes out at (e-1)/2.
alg2 = BlockAlgebra((2,))
flow2 = InnerFlow(alg2, alg2.element([np.diag([0.0, 1.0]).astype(complex)]))
tau = Functional(alg2, 0.5 * alg2.identity())
bad = verify_kms(flow2, tau, 1.0)
print("trace at beta=1 passes?", bad.passed,
      "  exchange residual", bad.residual_exchange, " vs (e-1)/2 =", (np.e - 1) / 2)
print("half-shift defect in", [bad.residual_half_shift_lower, bad.residual_half_shift])
print("worst exchange pair:", bad.worst_pair)

# ---- several blocks: the simplex has one vertex per block -------------------

alg3 = BlockAlgebra((2, 3, 2))
h3 = alg3.element([np.diag(rng.normal(size=n)).astype(complex) for n in (2, 3, 2)])
flow3 = InnerFlow(alg3, h3)
simplex = kms_simplex(flow3, 1.2)
print()
print("blocks:", alg3.num_blocks, " simplex vertices:", len(simplex.vertices),
      " dimension:", simplex.dimension)

# each vertex charges exactly one block
for k, v in enumerate(simplex.vertices):
    masses = [np.trace(b).real for b in v.functional.density.blocks]
    print(f"  vertex {k}: block masses {np.round(masses, 12)}")

# mixtures stay in the simplex and verify like anything else
w = rng.dirichlet(np.ones(3))
mix = simplex.mix(w)
print("random mixture verifies:", verify_kms(flow3, mix, 1.2).passed)
print("recovered weights:", np.round(simplex.barycentric_of(mix), 12))

# ---- the trace bijection -----------------------------------------------------

# every KMS state is a twisted trace; forgetting the twist and putting it
# back is exactly the identity
tr = trace_of(mix)
back = from_trace(tr, flow3, 1.2)
print("trace pairing roundtrip defect:",
      (back.density - mix.density).norm())
