"""The semantics every record class of the package keeps: its repr, equality by field,
hashing and immutability, fresh defaults, and the ``TypeError`` of a bad argument list.

Each row of ``RECORDS`` builds one record from all of its fields, given in the class's
field order, and names the fields whose default is made anew for each instance."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kmslab.algebra import AlgElement, BlockAlgebra, Projection
from kmslab.bundle import (Atom, BundleCertificate, DimensionGroupSpec, Interval,
                           PointBundleSpec, ScalingCheckReport, ScalingMeasure, SimplexFiber)
from kmslab.cocycle import Cochain, CocycleGrid, CocycleReport, TrivializationResult
from kmslab.flow import InnerFlow
from kmslab.kms import (CornerRestriction, KmsSimplex, KmsState, KmsVerdict, KmsWeight,
                        gibbs)
from kmslab.modular import ModularData, ModularFlowReport
from kmslab.products import (DifferenceGroupReport, FactorTypeReport, GammaReport, ItpfiSpec,
                             MatroidSpec, MatroidVerdict, SpectrumFamily, WindowInterval)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kmslab"

_ALG = BlockAlgebra((2,))
_FLOW = InnerFlow(_ALG, AlgElement(_ALG, [np.diag([0.0, 1.0])]))
_STATE = gibbs(_FLOW, 1.0)
_CHAIN = Cochain(step=1.0, half_range=1.0, values=np.ones(3, dtype=complex))
_REPORT = CocycleReport(max_identity_residual=0.0, max_normalization_residual=0.0, checked=27,
                        skipped=0, step=1.0, half_range=1.0, route="scan")

# (class, every field by name in field order, fields whose default is fresh per instance)
RECORDS = [
    (BlockAlgebra, {"block_dims": (2, 3)}, ()),
    (Projection, {"element": AlgElement(_ALG, [np.diag([1.0, 0.0])])}, ()),
    (DimensionGroupSpec, {"matrix": ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(1, 3))),
                          "order_unit": (Fraction(1), Fraction(1))}, ()),
    (SimplexFiber, {"beta": 1.0, "vertices": [np.array([1.0])], "dimension": 0, "exact": True,
                    "vertices_exact": [(Fraction(1),)]}, ()),
    (PointBundleSpec, {"labels": ("a", "b"), "levels": (0.0, 1.5)}, ()),
    (Atom, {"point": 2.0}, ()),
    (Interval, {"lo": 0.5, "hi": 2.0}, ()),
    (ScalingMeasure, {"kind": "atomic", "lam": 2.0, "beta": 1.0, "x": 1.0, "window": 3,
                      "lam_exact": Fraction(2), "base_exact": None, "x_exact": Fraction(1)}, ()),
    (ScalingCheckReport, {"max_residual": 0.0, "checked": 4, "out_of_window": 1,
                          "exact": True}, ()),
    (BundleCertificate, {"all_nonempty": True, "vertex_counts": [1, 1], "lipschitz_bound": 2.0,
                         "max_step_deviation": 0.5, "ok": True}, ()),
    (CocycleGrid, {"step": 1.0, "half_range": 1.0, "values": np.ones((3, 3), dtype=complex),
                   "in_window": np.ones((3, 3), dtype=bool)}, ()),
    (Cochain, {"step": 1.0, "half_range": 1.0, "values": np.ones(3, dtype=complex)}, ()),
    (CocycleReport, {"max_identity_residual": 0.0, "max_normalization_residual": 0.0,
                     "checked": 27, "skipped": 0, "step": 1.0, "half_range": 1.0,
                     "route": "scan"}, ()),
    (TrivializationResult, {"chain": _CHAIN, "achieved_residual": 0.0, "pairs_checked": 9,
                            "pairs_skipped": 0, "rescale_exponent": 0, "precheck": _REPORT,
                            "stage_windows": {}, "stage_chains": {}},
     ("stage_windows", "stage_chains")),
    (KmsState, {"functional": _STATE.functional, "beta": 1.0, "flow": _FLOW}, ()),
    (KmsWeight, {"functional": _STATE.functional, "beta": 1.0, "flow": _FLOW}, ()),
    (KmsVerdict, {"passed": True, "max_residual": 1e-12, "worst_pair": (0, 0, 0, 0),
                  "residual_exchange": 1e-12, "residual_half_shift": 1e-13,
                  "residual_half_shift_lower": 1e-14, "beta": 1.0, "tol": 1e-8}, ()),
    (KmsSimplex, {"flow": _FLOW, "beta": 1.0, "vertices": []}, ("vertices",)),
    (CornerRestriction, {"state": _STATE, "weight": 1.0, "full": True}, ()),
    (ModularData, {"log_eigenvalues": np.zeros(4), "log_eigenvectors": np.eye(4),
                   "conj_kernel": np.eye(4, dtype=complex), "method": "polar"}, ()),
    (ModularFlowReport, {"passed": True, "max_residual": 1e-12, "beta": 1.0,
                         "samples": (-1.0, 1.0)}, ()),
    (ItpfiSpec, {"site_generator": np.array([[1.0]])}, ()),
    (DifferenceGroupReport, {"kind": "cyclic", "kappa": 1.0, "witness": None}, ()),
    (FactorTypeReport, {"tag": "III_lambda", "lambda_value": 0.5, "kappa": 1.0,
                        "group": DifferenceGroupReport(kind="cyclic", kappa=1.0)}, ()),
    (GammaReport, {"kind": "cyclic", "generator": 1.0}, ()),
    (MatroidSpec, {"kind": "seven_adic", "sites": [], "declared_tail": None}, ("sites",)),
    (MatroidVerdict, {"kind": "bounded", "log_partial_product": 0.25, "terms": 10,
                      "reason": "tail"}, ()),
    (SpectrumFamily, {"kind": "negated", "r": None, "inner": SpectrumFamily("power", r=2.0),
                      "values": ()}, ()),
    (WindowInterval, {"empty": False, "lower": None, "upper": None, "lower_closed": False,
                      "upper_closed": False}, ()),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
FROZEN = {"BlockAlgebra", "Projection", "DimensionGroupSpec", "PointBundleSpec", "Atom",
          "Interval", "ScalingMeasure", "ItpfiSpec", "SpectrumFamily", "WindowInterval"}


class _Unequal:
    """A value equal to nothing; numpy defers its comparisons to it."""

    __array_ufunc__ = None

    def __eq__(self, other):
        return False

    __hash__ = object.__hash__


def _record_classes():
    """Every class in the package that is a record: built by the dataclass decorator or
    derived from the package's record bases."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            marks = [ast.unparse(d) for d in node.decorator_list + node.bases]
            if any(m.startswith("dataclass") or m in ("_Record", "_FrozenRecord") for m in marks):
                found.add(node.name)
    return found


def test_the_table_holds_every_record_class():
    assert _record_classes() == set(IDS) and len(IDS) == 29


@pytest.mark.parametrize("cls, fields, fresh", RECORDS, ids=IDS)
def test_record_semantics(cls, fields, fresh):
    a, b = cls(**fields), cls(**fields)
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__qualname__}({shown})"
    assert cls(*fields.values()) == a

    assert a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    for name in fields:
        other = cls(**fields)
        object.__setattr__(other, name, _Unequal())
        assert a != other and not a == other, name

    name, value = next(iter(fields.items()))
    if cls.__name__ in FROZEN:
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        values = tuple(getattr(a, n) for n in fields)
        try:
            want = hash(values)
        except TypeError:               # a field holds an array
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == want
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(b, name, value)
        assert getattr(b, name) is value

    given = {n: v for n, v in fields.items() if n not in fresh}
    first, second = cls(**given), cls(**given)
    for n in fresh:
        assert getattr(first, n) == fields[n] and getattr(first, n) is not getattr(second, n)

    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)
    with pytest.raises(TypeError):
        cls(value, **fields)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    dropped = {n: v for n, v in fields.items() if n != name}
    if cls is WindowInterval:               # every field has a default
        assert cls(**dropped) == cls() == a
    else:
        with pytest.raises(TypeError):
            cls(**dropped)
