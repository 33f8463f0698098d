"""States built without ``Functional``'s input checks pass the checked constructors.

``gibbs``, the simplex vertices and ``mix``, ``trace_of``, ``from_trace`` and
``product_kms_state`` build their functionals unchecked, on densities that are
positive semidefinite by construction. The property below runs the checked
``Functional`` and ``KmsState`` on each of them, so a route that stops making
positive, Hermitian, finite densities fails here.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from kmslab import (BlockAlgebra, Functional, InnerFlow, KmsState, from_trace, gibbs,
                    kms_simplex, random_hermitian, trace_of)
from kmslab.products import ItpfiSpec, product_kms_state

#: the largest |β|·spread drawn, just below ``EXP_CAP`` = 700
MAX_BETA_SPREAD = 690.0


def _check(state: KmsState) -> None:
    """The checked constructors accept the state's density."""
    KmsState(Functional(state.algebra, state.density), state.beta, state.flow)


_N = st.integers(1, 8)
#: block dims (n,), (n, m) and (1, …, 1)
_SHAPES = st.one_of(st.tuples(_N), st.tuples(_N, _N), st.integers(2, 8).map(lambda k: (1,) * k))


@given(dims=_SHAPES, beta_spread=st.floats(0.0, MAX_BETA_SPREAD), negative=st.booleans(),
       sites=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_property_unchecked_states_pass_the_checked_constructors(dims, beta_spread, negative,
                                                                  sites, seed):
    rng = np.random.default_rng(seed)
    sign = -1.0 if negative else 1.0
    alg = BlockAlgebra(dims)
    flow = InnerFlow(alg, random_hermitian(alg, rng, scale=rng.uniform(0.1, 3.0)))
    spread = (max(float(w[-1]) for w in flow.eigenvalues)
              - min(float(w[0]) for w in flow.eigenvalues))
    beta = sign * beta_spread / spread if spread > 0 else sign * beta_spread

    psi = gibbs(flow, beta)
    _check(psi)
    simplex = kms_simplex(flow, beta)
    for vertex in simplex.vertices:
        _check(vertex)
    mixed = simplex.mix(rng.dirichlet(np.ones(len(simplex.vertices))))
    _check(mixed)
    tau = trace_of(mixed)
    KmsState(Functional(alg, tau.density), 0.0, flow)     # a trace: the β = 0 state
    _check(from_trace(tau, flow, beta))

    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    spec = ItpfiSpec((q * rng.uniform(-1.0, 1.0, 2)) @ q.conj().T)
    w = np.linalg.eigh(spec.site_generator)[0]        # the site spectrum the product reads
    _check(product_kms_state(spec, sign * beta_spread / (sites * float(w[1] - w[0])), sites))
