"""Command-line front end: JSON in, JSON/CSV/SVG out, strict exit codes.

Exit codes: 0 — success or a passing verdict; 1 — a verification that ran
to completion and failed; 2 — malformed input (JSON syntax, schema
violation, or a mathematical precondition), with a diagnostic naming the
offending file and field; 3 — an internal fault: a ``LinAlgError`` or any
exception that is neither a ``ValueError`` nor an ``OSError`` (``InternalFault``,
``OverflowError``, a failed assertion, …), reported as ``error: internal
fault: …``, never posing as 1 or 2.
All numeric JSON output uses Python's shortest round-trip float formatting,
so values survive a parse/serialize cycle bit-for-bit; it is strict JSON, and a
payload holding a NaN or ±∞ is an internal fault that writes no file. Outputs are
byte-deterministic for fixed inputs and seed; a ``--beta-range`` sweep runs
in one thread as stacked array operations, and its rows are sorted by β
before emission.

Every document read or written is validated against its schema kind by the
kind's definition, compiled once per process: it decides as jsonschema 4.26.0
does under Draft 2020-12 and words every refusal as jsonschema's ``best_match``
picks it. jsonschema itself is never imported; it is the tests' oracle. Each input
kind then has one reader that converts every field once, in the order of the library's
own checks, and refuses a field by its path; the README lists each reader's order.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import numbers
import os
import re
import sys
from collections.abc import Mapping, Sequence
from importlib import resources

import numpy as np

from . import __version__
from .algebra import BlockAlgebra, Functional, InternalFault
from .flow import InnerFlow
from .kms import gibbs, kms_simplex, simplex_sweep, verify_kms
from .modular import (center_dimension, commutant_gap, gns, modular_data,
                      verify_modular_flow)
from .periodic import PeriodicFlow, cuntz_trace, gauge_kms_beta
from .products import ItpfiSpec, MatroidSpec, SpectrumFamily, factor_type_itpfi, \
    gamma_invariant, matroid_bounded, trace_class_window
from .bundle import (DimensionGroupSpec, PointBundleSpec, _as_fraction, _spectrum_fibers,
                     bundle_from_points, scaling_measure, verify_scaling)
from .cocycle import Cochain, CocycleGrid, _half_index, check_cocycle, trivialize

SCHEMA_VERSION = "1"
#: most --beta-range steps one sweep takes (about 1 s at block dims (16, 16) on a 2-vCPU guest)
MAX_SWEEP_STEPS = 100_000
#: most --terms a matroid prefix sums (seven-adic or factorial: about 0.12 s on a 2-vCPU guest)
MAX_MATROID_TERMS = 100_000


class CliInputError(ValueError):
    """Bad input: carries the diagnostic shown before exiting with code 2."""


# -- schema-backed JSON I/O ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _schema(which: str) -> dict:
    """A schema file, read once per process. Its check against the metaschema it
    declares is a Tier-1 test, not a cost of every process."""
    text = resources.files("kmslab").joinpath(f"schemas/{which}.v1.json").read_text()
    return json.loads(text)


# The exact Python types a compiled check takes as each JSON type: a subset of what
# jsonschema's Draft 2020-12 type checker takes (_JSON_IS), which also counts numpy
# scalars as numbers and 2.0 as an integer, and no bool as a number.
_EXACT = {"number": frozenset({int, float}), "integer": frozenset({int}),
          "string": frozenset({str}), "boolean": frozenset({bool}),
          "null": frozenset({type(None)}), "array": frozenset({list}),
          "object": frozenset({dict})}
_IS = {name: (lambda x, exact=exact: type(x) in exact) for name, exact in _EXACT.items()}
_EXACT_OF = {_IS[name]: exact for name, exact in _EXACT.items()}
_JSON_IS = {"array": lambda x: isinstance(x, list), "object": lambda x: isinstance(x, dict),
            "string": lambda x: isinstance(x, str), "boolean": lambda x: isinstance(x, bool),
            "null": lambda x: x is None,
            "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
            "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                                  or isinstance(x, float) and x.is_integer())}
_SCALARS = frozenset({str, int, float, bool, type(None)})


class _Refusal:
    """What ``best_match`` reads of a jsonschema ``ValidationError``: the message, the
    path below its parent's, the keyword, whether the instance has the type its schema
    names, and, for an ``anyOf``, the refusals of every option."""

    __slots__ = ("message", "path", "keyword", "typed", "context")

    def __init__(self, message: str, context: list = ()):
        self.message, self.context = message, context
        self.path, self.keyword, self.typed = (), None, False


def _at(key, refusals):
    """A child's refusals, their paths put under ``key``."""
    for refusal in refusals:
        refusal.path = (key,) + refusal.path
    return refusals


def _if(ok, message):
    """A keyword's one refusal, ``message(x)``, where ``ok(x)`` fails."""
    return lambda x: () if ok(x) else [_Refusal(message(x))]


def _one(applies: str | None, ok, message):
    """A keyword whose check is jsonschema's own test, with one refusal where it fails."""
    return applies, ok, _if(ok, message)


def _every(checks: list):
    """All of ``checks``; one check is returned as it is."""
    if len(checks) == 1:
        return checks[0]

    def every(x):
        for check in checks:
            if not check(x):
                return False
        return True
    return every


def _values(values: list):
    """``enum``/``const``'s check: equal value of the same type (True ≠ 1). An array or
    object value never matches, so the refusals decide those."""
    keys = {(type(v), v) for v in values if type(v) in _SCALARS}
    return lambda x: type(x) in _SCALARS and (type(x), x) in keys


def _equal(one, two) -> bool:
    """jsonschema's ``_utils.equal``: ``==``, but True ≠ 1 and False ≠ 0, also inside
    arrays and objects."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, Sequence) and isinstance(two, Sequence):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, Mapping) and isinstance(two, Mapping):
        return len(one) == len(two) and all(k in two and _equal(v, two[k])
                                            for k, v in one.items())
    if one is True or one is False or two is True or two is False:
        return False                                # one is not two
    return one == two


def _type(names, schema, sub):
    names = [names] if isinstance(names, str) else names
    exact = frozenset().union(*(_EXACT[t] for t in names))
    listed = ", ".join(map(repr, names))
    return (None, _IS[names[0]] if len(names) == 1 else lambda x: type(x) in exact,
            _if(lambda x: any(_JSON_IS[t](x) for t in names),
                lambda x: f"{x!r} is not of type {listed}"))


def _items(item, schema, sub):
    if not isinstance(item, dict):
        raise NotImplementedError("only a schema is compiled as items")
    check, refusals = sub(item)
    if check in _EXACT_OF:                          # a bare type: one C-level pass
        types = _EXACT_OF[check]
        fast = lambda x: types.issuperset(map(type, x))
    else:
        fast = lambda x: all(map(check, x))
    return "array", fast, lambda x: [r for i, v in enumerate(x) for r in _at(i, refusals(v))]


def _properties(props, schema, sub):
    nodes = {k: sub(v) for k, v in props.items()}
    checks = {k: check for k, (check, _) in nodes.items()}

    def fields(x):
        for k, v in x.items():
            check = checks.get(k)
            if check is not None and not check(v):
                return False
        return True
    return "object", fields, lambda x: [r for k, (_, refusals) in nodes.items() if k in x
                                        for r in _at(k, refusals(x[k]))]


def _closed(extra, schema, sub):
    if extra is not False:
        raise NotImplementedError("only additionalProperties: false is compiled")
    names = frozenset(schema.get("properties", ()))

    def message(x):
        extras = sorted({k for k in x if k not in names}, key=str)
        return (f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                f"{'was' if len(extras) == 1 else 'were'} unexpected)")
    return "object", names.issuperset, _if(names.issuperset, message)


def _all_of(subs, schema, sub):
    nodes = [sub(s) for s in subs]
    return (None, _every([check for check, _ in nodes]),
            lambda x: [r for _, refusals in nodes for r in refusals(x)])


def _any_of(options, schema, sub):
    nodes = [sub(s) for s in options]

    def some(x):
        for check, _ in nodes:
            if check(x):
                return True
        return False

    def refusals(x):
        context = []
        for _, option in nodes:
            found = option(x)
            if not found:
                return ()
            context += found
        return [_Refusal(f"{x!r} is not valid under any of the given schemas", context)]
    return None, some, refusals


# Each keyword compiles, given its value, its schema and ``sub`` (which compiles a
# subschema, or the $defs entry a "$ref" names), to the JSON type it looks at (None: any),
# its fast check, and the refusals jsonschema 4.26.0 yields for it, both to be called on
# that type only. A check may refuse what jsonschema accepts, but never the reverse.
_KEYWORDS = {
    "type": _type, "items": _items, "properties": _properties,
    "additionalProperties": _closed, "allOf": _all_of, "anyOf": _any_of,
    "$ref": lambda target, schema, sub: (None, *sub(target)),
    "minItems": lambda n, schema, sub: _one(
        "array", lambda x: len(x) >= n,
        lambda x: f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}"),
    "maxItems": lambda n, schema, sub: _one(
        "array", lambda x: len(x) <= n,
        lambda x: f"{x!r} {'is expected to be empty' if n == 0 else 'is too long'}"),
    "required": lambda names, schema, sub: (
        "object", frozenset(names).issubset,
        lambda x: [_Refusal(f"{k!r} is a required property") for k in names if k not in x]),
    "enum": lambda values, schema, sub: (
        None, _values(values), _if(lambda x: any(_equal(v, x) for v in values),
                                   lambda x: f"{x!r} is not one of {values!r}")),
    "const": lambda value, schema, sub: (
        None, _values([value]), _if(lambda x: _equal(x, value),
                                    lambda x: f"{value!r} was expected")),
    "minimum": lambda least, schema, sub: _one(
        "number", lambda x: not x < least,
        lambda x: f"{x!r} is less than the minimum of {least!r}"),
    "exclusiveMinimum": lambda below, schema, sub: _one(
        "number", lambda x: not x <= below,
        lambda x: f"{x!r} is less than or equal to the minimum of {below!r}"),
    "pattern": lambda pattern, schema, sub: _one(
        "string", lambda x, search=re.compile(pattern).search: search(x) is not None,
        lambda x: f"{x!r} does not match {pattern!r}"),
    "description": None,                            # an annotation: nothing to check
}


def _compile(defs: dict, kind: str):
    """The check and the refusals of ``defs[kind]``, as jsonschema 4.26.0 validates it
    under Draft 2020-12.

    The check accepts only documents jsonschema accepts; it may refuse some that
    jsonschema accepts (an integer given as 2.0, numpy scalars). The refusals are
    exactly jsonschema's errors, in its order: none for a document it accepts. A
    keyword outside ``_KEYWORDS``, or a form of one that is not compiled, raises
    ``NotImplementedError`` here, so no check is ever dropped silently.
    """
    done: dict = {}

    def ref(target: str):
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise NotImplementedError(f"$ref {target!r} is not an entry of the file's $defs")
        if name not in done:
            done[name] = None                       # under compilation
            done[name] = node(defs[name])
        if done[name] is None:                      # a recursive reference
            return (lambda x: done[name][0](x)), (lambda x: done[name][1](x))
        return done[name]

    def sub(schema):
        return ref(schema) if isinstance(schema, str) else node(schema)

    def node(schema: dict):
        unknown = sorted(schema.keys() - _KEYWORDS.keys())
        if unknown:
            raise NotImplementedError(f"schema keyword(s) {unknown} have no compiled check")
        parts = [(k, *_KEYWORDS[k](v, schema, sub)) for k, v in schema.items() if _KEYWORDS[k]]
        names = schema.get("type", ())
        names = [names] if isinstance(names, str) else names
        only = names[0] if len(names) == 1 else None
        checks, groups = [], {}
        for _, applies, check, _ in parts:
            if applies is None:
                checks.append(check)
            else:
                groups.setdefault(applies, []).append(check)
        for applies, group in groups.items():
            if only is not None and _EXACT[only] <= _EXACT[applies]:
                checks += group                     # the type check guards them
            else:
                checks.append(lambda x, check=_every(group), exact=_EXACT[applies],
                              maybe=_JSON_IS[applies]:
                              check(x) if type(x) in exact else not maybe(x))
        check = _every(checks) if checks else (lambda x: True)

        def refusals(x):
            if check(x):                            # sound: jsonschema accepts it too
                return ()
            found, typed = [], any(_JSON_IS[t](x) for t in names)
            for keyword, applies, _, refuse in parts:
                if applies is None or _JSON_IS[applies](x):
                    for refusal in refuse(x):
                        if refusal.keyword is None:
                            refusal.keyword, refusal.typed = keyword, typed
                        found.append(refusal)
            return found
        return check, refusals

    return ref(f"#/$defs/{kind}")


@functools.lru_cache(maxsize=None)
def _compiled(which: str, kind: str):
    """The compiled check and refusals of one kind."""
    return _compile(_schema(which)["$defs"], kind)


def _relevance(refusal: _Refusal):
    """jsonschema's ``relevance`` key, by which ``best_match`` ranks errors: the path's
    length and the path, whether the keyword is not the weak ``anyOf``, and whether
    the instance is not of the type its schema names (no keyword is strong)."""
    return -len(refusal.path), refusal.path, refusal.keyword != "anyOf", not refusal.typed


def _validate(doc, kind: str, which: str, path: str, error: type = CliInputError) -> None:
    """Accept what the compiled schema accepts; refuse the rest, as ``error``, with the
    diagnostic jsonschema's ``best_match`` picks: the most relevant refusal, then, while
    one refusal in its context is strictly least relevant, that one."""
    found = _compiled(which, kind)[1](doc)
    if not found:
        return
    best = max(found, key=_relevance)
    where = best.path
    while best.context:
        least = sorted(best.context, key=_relevance)[:2]
        if len(least) == 2 and _relevance(least[0]) == _relevance(least[1]):
            break
        best = least[0]
        where += best.path
    raise error(f"{path}: field {'/'.join(map(str, where)) or '(root)'}: {best.message}")


def _load(path: str, kind: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise CliInputError(f"{path}: no such file")
    except json.JSONDecodeError as e:
        raise CliInputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    _validate(doc, kind, "inputs", path)
    return doc


def _load_finite(path: str, kind: str) -> dict:
    """:func:`_load`, refusing the document's first number that is not finite by its field."""
    doc = _load(path, kind)
    for key, value in doc.items():
        _finite_numbers(value, f"{path}: field {key}")
    return doc


def _write_json(path: str, payload: dict, kind: str) -> None:
    """Write ``payload`` as strict JSON. One that its schema refuses, or that holds a NaN
    or ±∞ (named by its first such field), was built wrong here: an internal fault, and
    no file is opened."""
    _validate(payload, kind, "outputs", path, InternalFault)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:                          # a NaN or ±∞ the program put there
        for key, value in payload.items():
            try:
                _finite_numbers(value, f"{path}: field {key}")
            except CliInputError as e:
                raise InternalFault(str(e)) from None
        raise
    with open(path, "w") as f:
        f.write(text + "\n")


def _entry(v) -> complex:
    if isinstance(v, list):
        return complex(v[0], v[1])
    return complex(v)


def _rows(rows: list, where: str) -> list:
    """``rows``, refused unless they are of one length; ``where`` names the field."""
    ragged = next((i for i, row in enumerate(rows) if len(row) != len(rows[0])), None)
    if ragged is not None:
        raise CliInputError(f"{where}/{ragged}: row has {len(rows[ragged])} entries, "
                            f"row 0 has {len(rows[0])}")
    return rows


def _matrix(rows, where: str) -> np.ndarray:
    """The square matrix of a JSON field, refused unless its rows are of one length, it is
    square and every entry is finite; ``where`` ("<file>: field <path>") names the field
    in each refusal. The first bad entry in row order is refused, a NaN or ±∞ (a pair's
    part too) as a non-finite entry, a number that no float holds as :func:`_finite`
    words it."""
    if len(_rows(rows, where)) != len(rows[0]):
        raise CliInputError(f"{where}: matrix must be square, got {len(rows)}×{len(rows[0])}")
    try:
        mat = np.array([[_entry(v) for v in row] for row in rows], dtype=complex)
    except OverflowError:                       # an entry that no float holds
        mat = None
    if mat is None or not np.isfinite(mat).all():
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if any(isinstance(x, float) and not math.isfinite(x)
                       for x in (v if isinstance(v, list) else [v])):
                    raise CliInputError(f"{where}/{i}/{j}: non-finite entry {v!r}")
                _finite_numbers(v, f"{where}/{i}/{j}")
    return mat


def _emit_matrix(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def _problem(path: str) -> tuple[BlockAlgebra, InnerFlow, float | None]:
    doc = _load(path, "problem")
    dims = tuple(doc["block_dims"])
    mats = [_matrix(b, f"{path}: field generator/{i}") for i, b in enumerate(doc["generator"])]
    if len(mats) != len(dims) or any(m.shape[0] != d for m, d in zip(mats, dims)):
        raise CliInputError(f"{path}: generator blocks do not match block_dims {dims}")
    alg = BlockAlgebra(dims)
    flow = InnerFlow(alg, alg.element(mats))
    return alg, flow, doc.get("beta")


def _element(path: str, alg: BlockAlgebra):
    doc = _load(path, "element")
    mats = [_matrix(b, f"{path}: field blocks/{i}") for i, b in enumerate(doc["blocks"])]
    if tuple(m.shape[0] for m in mats) != alg.block_dims:
        raise CliInputError(f"{path}: blocks do not match algebra dims {alg.block_dims}")
    return alg.element(mats)


def _finite(value, where: str) -> float:
    try:
        x = float(value)
    except OverflowError:
        raise CliInputError(f"{where} is beyond the float range") from None
    if not math.isfinite(x):
        raise CliInputError(f"{where} must be finite, got {x!r}")
    return x


def _finite_numbers(value, where: str) -> None:
    """Refuse, as :func:`_finite` words it, the first number in a JSON value that is NaN,
    ±∞ or beyond the float range; ``where`` ("<file>: field <path>") gains its path."""
    if isinstance(value, dict):
        for key, v in value.items():
            _finite_numbers(v, f"{where}/{key}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _finite_numbers(v, f"{where}/{i}")
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        _finite(value, where)


def _rational(value, where: str):
    """A rational JSON value (a number or a ``"p/q"`` string), or a list of them, as
    ``Fraction``s; an entry no fraction reads is refused by its field below ``where``."""
    if isinstance(value, list):
        return [_rational(v, f"{where}/{i}") for i, v in enumerate(value)]
    try:
        return _as_fraction(value)
    except ValueError as e:
        raise CliInputError(f"{where}: {e}") from None


def _need_beta(beta_flag, beta_file, path) -> float:
    if beta_flag is not None:
        return _finite(beta_flag, "--beta")
    if beta_file is not None:
        return _finite(beta_file, f"{path}: field beta")
    raise CliInputError(f"no β given: pass --beta or put a beta field in {path}")


def _beta_range(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise CliInputError(f"--beta-range wants lo:hi:steps, got {text!r}")
    if n < 1:
        raise CliInputError("--beta-range needs at least one step")
    if n > MAX_SWEEP_STEPS:
        raise CliInputError(f"--beta-range asks for {n} steps, above the cap {MAX_SWEEP_STEPS}")
    # (hi - lo)·n finite keeps every step below finite too
    if not all(math.isfinite(x) for x in (lo, hi, (hi - lo) * n)):
        raise CliInputError(f"--beta-range needs finite bounds a finite span apart, got {text!r}")
    # half-open [lo, hi): n equal steps, hi itself excluded
    return lo + (hi - lo) * np.arange(n) / n


# No subcommand reads KMSLAB_THREADS any more; perfbench/worker.py's context line
# still calls this, so it goes when the benchmark stops doing so.
def _thread_cap() -> int:
    raw = os.environ.get("KMSLAB_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise CliInputError(f"KMSLAB_THREADS must be an integer, got {raw!r}")
    return min(4, os.cpu_count() or 1)


# -- deterministic SVG --------------------------------------------------------------

def emit_plot(path: str, xs, series: dict, marks=None) -> None:
    """Hand-rolled static SVG scatter/line plot; byte-identical across runs.

    ``series`` maps a label to a list of y-values over ``xs``; ``marks``
    draws dashed vertical reference lines. Refuses empty data.
    """
    xs = [float(x) for x in xs]
    if not xs or not series or all(len(v) == 0 for v in series.values()):
        raise CliInputError("nothing to plot: sweep produced no data")
    width, height = 640.0, 400.0
    ml, mr, mt, mb = 64.0, 20.0, 28.0, 44.0
    ys_all = [float(y) for v in series.values() for y in v]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    f = lambda v: f"{v:.12g}"
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {f(width)} {f(height)}">',
        f'<rect width="{f(width)}" height="{f(height)}" fill="white"/>',
        f'<line x1="{f(ml)}" y1="{f(height - mb)}" x2="{f(width - mr)}" y2="{f(height - mb)}" stroke="black"/>',
        f'<line x1="{f(ml)}" y1="{f(mt)}" x2="{f(ml)}" y2="{f(height - mb)}" stroke="black"/>',
    ]
    for i in range(5):
        xt = x0 + (x1 - x0) * i / 4
        yt = y0 + (y1 - y0) * i / 4
        parts.append(f'<line x1="{f(sx(xt))}" y1="{f(height - mb)}" x2="{f(sx(xt))}" '
                     f'y2="{f(height - mb + 5)}" stroke="black"/>')
        parts.append(f'<text x="{f(sx(xt))}" y="{f(height - mb + 18)}" font-size="11" '
                     f'text-anchor="middle">{xt:.6g}</text>')
        parts.append(f'<line x1="{f(ml - 5)}" y1="{f(sy(yt))}" x2="{f(ml)}" '
                     f'y2="{f(sy(yt))}" stroke="black"/>')
        parts.append(f'<text x="{f(ml - 8)}" y="{f(sy(yt) + 4)}" font-size="11" '
                     f'text-anchor="end">{yt:.6g}</text>')
    parts.append(f'<text x="{f((ml + width - mr) / 2)}" y="{f(height - 8)}" font-size="12" '
                 f'text-anchor="middle">beta</text>')
    for mark in (marks or []):
        parts.append(f'<line x1="{f(sx(mark))}" y1="{f(mt)}" x2="{f(sx(mark))}" '
                     f'y2="{f(height - mb)}" stroke="#888888" stroke-dasharray="4 3"/>')
    for idx, (label, ys) in enumerate(sorted(series.items())):
        color = colors[idx % len(colors)]
        pts = " ".join(f"{f(sx(x))},{f(sy(float(y)))}" for x, y in zip(xs, ys))
        if len(xs) > 1:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{f(sx(x))}" cy="{f(sy(float(y)))}" r="3" fill="{color}"/>')
        parts.append(f'<text x="{f(width - mr - 6)}" y="{f(mt + 14 + 14 * idx)}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# -- subcommand handlers ------------------------------------------------------------

def _cmd_gibbs(args) -> int:
    alg, flow, beta_file = _problem(args.problem)
    beta = _need_beta(args.beta, beta_file, args.problem)
    state = gibbs(flow, beta)
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "gibbs", "beta": beta,
        "block_dims": list(alg.block_dims),
        "blocks": [_emit_matrix(b) for b in state.density.blocks],
    }, kind="gibbs")
    return 0


def _cmd_verify(args) -> int:
    tol = _finite(args.tol, "--tol")
    alg, flow, beta_file = _problem(args.problem)
    beta = _need_beta(args.beta, beta_file, args.problem)
    if args.state:
        dens = _element(args.state, alg)
        omega = Functional(alg, dens)
    else:
        omega = gibbs(flow, beta).functional
    verdict = verify_kms(flow, omega, beta, tol=tol)
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "verify",
        "passed": verdict.passed, "max_residual": verdict.max_residual,
        "residual_exchange": verdict.residual_exchange,
        "residual_half_shift": verdict.residual_half_shift,
        "residual_half_shift_lower": verdict.residual_half_shift_lower,
        "beta": verdict.beta, "tol": verdict.tol,
        "worst_pair": list(verdict.worst_pair) if verdict.worst_pair else None,
    }, kind="verify")
    print(verdict)
    return 0 if verdict.passed else 1


def _cmd_simplex(args) -> int:
    alg, flow, beta_file = _problem(args.problem)
    if args.beta_range:
        betas = _beta_range(args.beta_range)
        # rows ascend in β, whichever way the range runs
        rows = sorted(zip(betas.tolist(), *simplex_sweep(flow, betas).T.tolist()))
        # what csv.writer writes for these rows: floats by repr, ints, no quoting
        with open(args.out, "w", newline="") as fh:
            fh.write("beta,dimension,vertex_count\n"
                     + "".join(f"{b!r},{d},{c}\n" for b, d, c in rows))
        if args.plot:
            emit_plot(args.plot, [r[0] for r in rows],
                      {"dimension": [r[1] for r in rows],
                       "vertex_count": [r[2] for r in rows]})
        return 0
    beta = _need_beta(args.beta, beta_file, args.problem)
    simplex = kms_simplex(flow, beta)
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "simplex", "beta": beta,
        "dimension": simplex.dimension,
        "vertices": [[_emit_matrix(b) for b in v.density.blocks] for v in simplex.vertices],
    }, kind="simplex")
    return 0


def _cmd_modular(args) -> int:
    tol = _finite(args.tol, "--tol")
    alg, flow, beta_file = _problem(args.problem)
    beta = _need_beta(args.beta, beta_file, args.problem)
    state = gibbs(flow, beta)
    triple = gns(alg, state.functional)
    md_polar = modular_data(triple, method="polar")
    md_closed = modular_data(triple, method="closed_form")
    route_gap = float(np.max(np.abs(md_polar.log_delta - md_closed.log_delta)))
    flow_residual = verify_modular_flow(flow, state).max_residual
    dim_alg, dim_comm, gap = commutant_gap(triple, md_polar)
    passed = dim_comm == dim_alg and flow_residual <= tol and gap <= tol and route_gap <= tol
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "modular", "passed": passed,
        "delta_eigenvalues": sorted(np.exp(md_polar.log_eigenvalues).tolist()),
        "route_gap": route_gap, "flow_residual": flow_residual,
        "commutant_gap": float(gap), "center_dimension": center_dimension(triple),
    }, kind="modular")
    print(f"[{'PASS' if passed else 'FAIL'}] modular: route gap {route_gap:.3e}, "
          f"flow residual {flow_residual:.3e}, commutant gap {gap:.3e}")
    return 0 if passed else 1


def _cmd_fejer(args) -> int:
    alg, flow, _ = _problem(args.problem)
    a = _element(args.element, alg)
    periodic = PeriodicFlow(flow)
    _finite(args.order, "--order")
    mean = periodic.fejer_mean(a, args.order)
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "fejer", "order": args.order,
        "blocks": [_emit_matrix(b) for b in mean.blocks],
        "norm_input": a.norm(), "norm_mean": mean.norm(),
    }, kind="fejer")
    return 0


def _cmd_decompose(args) -> int:
    alg, flow, _ = _problem(args.problem)
    a = _element(args.element, alg)
    periodic = PeriodicFlow(flow)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["degree", "frobenius_norm"])
        for k in sorted(periodic.occupied_degrees()):
            w.writerow([k, periodic.spectral_component(a, k).fro_norm()])
    return 0


def _itpfi(path: str) -> tuple[ItpfiSpec, float]:
    """The site spec and β of a site-family file: the site generator, then β."""
    doc = _load(path, "itpfi")
    spec = ItpfiSpec(_matrix(doc["site_generator"], f"{path}: field site_generator"))
    return spec, _finite(doc["beta"], f"{path}: field beta")


def _cmd_factor_type(args) -> int:
    report = factor_type_itpfi(*_itpfi(args.itpfi))
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "factor-type", "tag": report.tag,
        "lambda_value": report.lambda_value, "kappa": report.kappa,
        "group_kind": report.group.kind if report.group else "trivial",
    }, kind="factor_type")
    print(f"type: {report.tag}" + (f" (lambda = {report.lambda_value:.12g})"
                                   if report.lambda_value is not None else ""))
    return 0


def _cmd_gamma(args) -> int:
    report = gamma_invariant(*_itpfi(args.itpfi))
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "gamma",
        "kind": report.kind, "generator": report.generator,
    }, kind="gamma")
    return 0


def _cmd_matroid(args) -> int:
    if args.terms < 1:
        raise CliInputError(f"--terms must be at least 1, got {args.terms}")
    if args.terms > MAX_MATROID_TERMS:
        raise CliInputError(f"--terms asks for {args.terms} terms, "
                            f"above the cap {MAX_MATROID_TERMS}")
    doc = _load(args.family, "matroid")
    where = f"{args.family}: field sites"
    sites = [(_matrix(s["generator"], f"{where}/{k}/generator"),
              _matrix(s["projection"], f"{where}/{k}/projection"))
             for k, s in enumerate(doc.get("sites", []))]
    spec = MatroidSpec(kind=doc["kind"], sites=sites,
                       declared_tail=doc.get("declared_tail"))
    beta = _finite(args.beta, "--beta")
    try:
        verdict = matroid_bounded(spec, beta, prefix_terms=args.terms)
    except ValueError as e:     # an explicit site's refusal; a LinAlgError stays a fault
        raise type(e)(f"{args.family}: {e}") from e
    if not math.isfinite(verdict.log_partial_product):
        raise CliInputError(f"the log partial product over {verdict.terms} terms at β = {beta!r} "
                            "is beyond the float range; lower --terms or --beta")
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "matroid",
        "verdict": verdict.kind, "reason": verdict.reason,
        "log_partial_product": verdict.log_partial_product, "terms": verdict.terms,
    }, kind="matroid")
    print(f"{verdict.kind}: {verdict.reason}")
    return 0


def _family_from_doc(doc) -> SpectrumFamily:
    kind = doc["kind"]
    if kind == "negated":
        inner = _family_from_doc(doc["inner"]) if "inner" in doc else None
        return SpectrumFamily(kind="negated", inner=inner)
    if kind == "explicit_prefix":
        return SpectrumFamily(kind="explicit_prefix", values=tuple(doc.get("values", ())))
    if kind == "zero":
        return SpectrumFamily(kind="zero")
    return SpectrumFamily(kind=kind, r=doc.get("r"))


def _cmd_window(args) -> int:
    doc = _load_finite(args.family, "window_family")
    interval = trace_class_window(_family_from_doc(doc))
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "window",
        "empty": interval.empty, "lower": interval.lower, "upper": interval.upper,
        "lower_closed": interval.lower_closed, "upper_closed": interval.upper_closed,
        "text": str(interval),
    }, kind="window")
    print(str(interval))
    return 0


def _dimension_group(path: str) -> DimensionGroupSpec:
    """The spec of a dimension-group file, its ρ and unit entries read as fractions; an
    entry no float holds, refused by the spec's float lane after its other checks, by field."""
    doc = _load_finite(path, "dimension_group")
    rank = len(doc["rho"])
    if doc.get("rank", rank) != rank:
        raise CliInputError(f"{path}: declared rank {doc['rank']} != matrix size {rank}")
    rho = _rational(doc["rho"], f"{path}: field rho")
    unit = _rational(doc["unit"], f"{path}: field unit")
    try:
        return DimensionGroupSpec(matrix=rho, order_unit=unit)
    except ValueError as e:
        if isinstance(e.__cause__, OverflowError):
            _finite_numbers(rho, f"{path}: field rho")
            _finite_numbers(unit, f"{path}: field unit")
        raise


def _cmd_bundle(args) -> int:
    fibers = _spectrum_fibers(_dimension_group(args.dg))
    betas = [f.beta for f in fibers]
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["beta", "fiber_dimension", "vertex_count", "vertices"])
        for b, fib in zip(betas, fibers):
            verts = " | ".join(" ".join(f"{x:.12g}" for x in v) for v in fib.vertices)
            w.writerow([f"{b:.17g}", fib.dimension, fib.vertex_count, verts])
    if args.json:
        _write_json(args.json, {
            "schema_version": SCHEMA_VERSION, "command": "bundle",
            "betas": [float(b) for b in betas],
            "dimensions": [f.dimension for f in fibers],
            "vertex_counts": [f.vertex_count for f in fibers],
            "exact": [f.exact for f in fibers],
        }, kind="bundle")
    if args.plot:
        emit_plot(args.plot, betas,
                  {"dimension": [f.dimension for f in fibers],
                   "vertex_count": [f.vertex_count for f in fibers]},
                  marks=list(betas))
    print(f"{len(betas)} fiber(s) at beta = "
          + ", ".join(f"{b:.6g}" for b in betas))
    return 0


def _cmd_point_bundle(args) -> int:
    doc = _load_finite(args.points, "points")
    spec = PointBundleSpec.from_pairs([(p["label"], p["level"]) for p in doc["points"]])
    level = _finite(args.level, "--level")
    fiber = bundle_from_points(spec, level)
    members = [spec.labels[int(np.argmax(v))] for v in fiber.vertices]
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "point-bundle",
        "level": level, "dimension": fiber.dimension,
        "vertex_count": fiber.vertex_count, "members": members,
    }, kind="point_bundle")
    return 0


def _cmd_measure(args) -> int:
    tol = _finite(args.tol, "--tol")
    doc = _load_finite(args.measure, "measure")
    fields = {"lam": doc["lam"], "beta": doc["beta"], "kind": doc["kind"],
              "x": doc.get("x", 1.0), "window": doc.get("window", 8)}
    scaling_measure(**fields)                   # its refusals come before an exact field's
    exact = {key: _rational(doc[key], f"{args.measure}: field {key}")
             for key in ("lam_exact", "base_exact", "x_exact") if key in doc}
    mu = scaling_measure(**fields, **exact)
    lam = float(doc["lam"])
    sets = [tuple(s) for s in doc.get("sets", [])] or [(1.0, lam), (1.0 / lam, 1.0)]
    report = verify_scaling(mu, sets)
    passed = report.max_residual <= tol
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "measure", "kind": mu.kind,
        "alpha": mu.alpha if mu.kind == "density" else None,
        "passed": passed, "max_residual": float(report.max_residual),
        "checked": report.checked, "out_of_window": report.out_of_window,
        "exact": report.exact,
    }, kind="measure")
    print(f"[{'PASS' if passed else 'FAIL'}] scaling residual {report.max_residual:.3e} "
          f"on {report.checked} set(s), {report.out_of_window} outside the window")
    return 0 if passed else 1


def _cocycle_grid(path: str) -> CocycleGrid:
    """The grid of a cocycle file, its phases read as e^{iθ}. The sizes are refused first,
    then ragged rows, then a phase that no float holds; a NaN or ±∞ phase is named by its
    field only on a table of the grid's shape, which ``CocycleGrid`` refuses otherwise."""
    doc = _load(path, "cocycle_grid")
    k = _half_index(doc["step"], doc["half_range"])
    where = f"{path}: field values"
    rows = _rows(doc["values"], where)
    try:
        phases = np.array(rows, dtype=float)
    except OverflowError:                       # an integer that no float holds
        for i, j in np.ndindex(len(rows), len(rows[0])):
            if isinstance(rows[i][j], int):
                _finite(rows[i][j], f"{where}/{i}/{j}")
        raise
    bad = np.argwhere(~np.isfinite(phases))
    if bad.size and phases.shape == (2 * k + 1, 2 * k + 1):
        i, j = bad[0].tolist()
        _finite(phases[i, j], f"{where}/{i}/{j}")
    with np.errstate(invalid="ignore"):         # CocycleGrid refuses the table's shape
        values = np.exp(1j * phases)
    return CocycleGrid(step=doc["step"], half_range=doc["half_range"], values=values)


def _cmd_cocycle(args) -> int:
    if args.tol is not None:
        _finite(args.tol, "--tol")
    grid = _cocycle_grid(args.infile)
    if args.action == "check":
        report = check_cocycle(grid)
        passed = args.tol is None or report.max_identity_residual <= args.tol
        if args.report:
            payload = {
                "schema_version": SCHEMA_VERSION, "command": "cocycle",
                "max_identity_residual": report.max_identity_residual,
                "max_normalization_residual": report.max_normalization_residual,
                "checked": report.checked, "skipped": report.skipped,
            }
            if args.tol is not None:
                payload["passed"] = passed
            _write_json(args.report, payload, kind="cocycle_check")
        print(f"identity residual {report.max_identity_residual:.3e} over "
              f"{report.checked} triples ({report.skipped} skipped)")
        return 0 if passed else 1
    # trivialize
    result = trivialize(grid)
    if args.out:
        _write_json(args.out, {
            "schema_version": SCHEMA_VERSION,
            "step": result.chain.step, "half_range": result.chain.half_range,
            "values": np.angle(result.chain.values).tolist(),
        }, kind="cochain")
    passed = args.tol is None or result.achieved_residual <= args.tol
    if args.report:
        payload = {
            "schema_version": SCHEMA_VERSION, "command": "cocycle",
            "achieved_residual": result.achieved_residual,
            "pairs_checked": result.pairs_checked,
            "pairs_skipped": result.pairs_skipped,
            "rescale_exponent": result.rescale_exponent,
            "final_half_range": result.chain.half_range,
            "precheck_route": result.precheck.route,
            "precheck_bound": result.precheck.max_identity_residual,
        }
        if args.tol is not None:
            payload["passed"] = passed
        _write_json(args.report, payload, kind="cocycle_report")
    print(f"trivialized: residual {result.achieved_residual:.3e} on "
          f"{result.pairs_checked} pairs (window ±{result.chain.half_range:g})")
    return 0 if passed else 1


def _word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliInputError(f"words are comma-separated integers, got {text!r}")


def _cmd_cuntz(args) -> int:
    a, b = _word(args.word_a), _word(args.word_b)
    value = cuntz_trace(args.m, a, b)
    rho = None if args.rho is None else _finite(args.rho, "--rho")
    try:
        beta = None if rho is None else gauge_kms_beta(args.m, rho)
    except ValueError as e:
        raise CliInputError(f"--rho: {e}") from None
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "cuntz", "m": args.m,
        "word_a": list(a), "word_b": list(b), "value": str(value),
        "gauge_beta": beta,
    }, kind="cuntz")
    print(f"trace value {value}" + (f", gauge beta {beta:.12g}" if beta is not None else ""))
    return 0


# -- parser -------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. It holds no handler: ``main`` looks the
    handler up by command name on each call."""
    parser = argparse.ArgumentParser(
        prog="kmslab",
        description="Equilibrium states, modular data, and simplex bundles "
                    "for finite-dimensional flows.")
    parser.add_argument("--version", action="version",
                        version=f"kmslab {__version__} (schemas v{SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    add = sub.add_parser

    p = add("gibbs", help="Gibbs state of a problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--out", required=True)

    p = add("verify", help="two-route equilibrium check (exit 1 on failure)")
    p.add_argument("--problem", required=True)
    p.add_argument("--state", help="density to test (default: the Gibbs state)")
    p.add_argument("--beta", type=float)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)

    p = add("simplex", help="equilibrium simplex at one β or over a sweep")
    p.add_argument("--problem", required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-range", help="lo:hi:steps, half-open [lo, hi)")
    p.add_argument("--plot", help="SVG path (sweeps only)")
    p.add_argument("--out", required=True)

    p = add("modular", help="modular operator by two routes + theorems")
    p.add_argument("--problem", required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--tol", type=float, default=1e-8, help="bound on all three checks' outputs")
    p.add_argument("--out", required=True)

    p = add("fejer", help="Cesàro mean of an element under a periodic flow")
    p.add_argument("--problem", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("decompose", help="spectral component norms to CSV")
    p.add_argument("--problem", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--out", required=True)

    p = add("factor-type", help="product-factor type of a site family")
    p.add_argument("--itpfi", required=True)
    p.add_argument("--out", required=True)

    p = add("gamma", help="Connes Γ invariant of a site family")
    p.add_argument("--itpfi", required=True)
    p.add_argument("--out", required=True)

    p = add("matroid", help="boundedness verdict for a corner family")
    p.add_argument("--family", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--terms", type=int, default=24)
    p.add_argument("--out", required=True)

    p = add("window", help="trace-class β window of a spectrum family")
    p.add_argument("--family", required=True)
    p.add_argument("--out", required=True)

    p = add("bundle", help="fiber sweep of a dimension-group spec")
    p.add_argument("--dg", required=True)
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--json", help="optional JSON summary path")
    p.add_argument("--plot", help="optional SVG path")

    p = add("point-bundle", help="Dirac simplex over a finite level map")
    p.add_argument("--points", required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--out", required=True)

    p = add("measure", help="self-similar measure + scaling check")
    p.add_argument("--measure", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)

    p = add("cocycle", help="check or trivialize a phase 2-cocycle grid")
    p.add_argument("action", choices=["check", "trivialize"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="cochain output (trivialize)")
    p.add_argument("--report", help="JSON report path")
    p.add_argument("--tol", type=float, help="residual bound turning the run into a verdict")

    p = add("cuntz", help="exact word trace and gauge β")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", dest="word_a", default="", help="comma-separated letters")
    p.add_argument("--b", dest="word_b", default="", help="comma-separated letters")
    p.add_argument("--rho", type=float)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except Exception as e:        # bad input is a ValueError or OSError, but no LinAlgError
        if isinstance(e, (ValueError, OSError)) and not isinstance(e, np.linalg.LinAlgError):
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"error: internal fault: {type(e).__name__}: {e}", file=sys.stderr)
        return 3

if __name__ == "__main__":
    sys.exit(main())
