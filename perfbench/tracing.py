"""Per-layer spans recorded from outside the library.

The benchmark wraps kmslab's public functions and methods in place: every
module-level binding that refers to a wrapped function is replaced, because
kmslab modules import each other's functions by name (``cli.gibbs`` is
``kms.gibbs``). Each wrapper records one span — name, start, end, parent
span, op id and the problem sizes — into an in-memory list that is written
out when the run ends. A layer's self time is its busy time minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import threading
import tracemalloc
from time import perf_counter

# Wrapped functions: (module, attribute, span name). Names follow
# ``<module>.<function>``; methods keep their class where the bare method
# name would be ambiguous.
FUNCTIONS = [
    ("kmslab.kms", "gibbs", "kms.gibbs"),
    ("kmslab.kms", "verify_kms", "kms.verify_kms"),
    ("kmslab.kms", "kms_simplex", "kms.kms_simplex"),
    ("kmslab.kms", "trace_of", "kms.trace_of"),
    ("kmslab.kms", "from_trace", "kms.from_trace"),
    ("kmslab.modular", "gns", "modular.gns"),
    ("kmslab.modular", "verify_modular_flow", "modular.verify_modular_flow"),
    ("kmslab.modular", "commutant_gap", "modular.commutant_gap"),
    ("kmslab.modular", "center_dimension", "modular.center_dimension"),
    ("kmslab.algebra", "commutant_basis", "algebra.commutant_basis"),
    ("kmslab.products", "product_kms_state", "products.product_kms_state"),
    ("kmslab.cocycle", "check_cocycle", "cocycle.check_cocycle"),
    ("kmslab.cocycle", "trivialize", "cocycle.trivialize"),
    ("kmslab.bundle", "fiber_simplex", "bundle.fiber_simplex"),
    ("kmslab.bundle", "beta_spectrum", "bundle.beta_spectrum"),
    ("kmslab.bundle", "kms_bundle_fd", "bundle.kms_bundle_fd"),
    ("kmslab.cli", "main", "cli.main"),
]
METHODS = [
    ("kmslab.flow", "InnerFlow", "__init__", "flow.InnerFlow.init"),
    ("kmslab.flow", "InnerFlow", "continue_analytic", "flow.continue_analytic"),
    ("kmslab.flow", "InnerFlow", "smooth", "flow.smooth"),
    ("kmslab.periodic", "PeriodicFlow", "spectral_component", "periodic.spectral_component"),
    ("kmslab.periodic", "PeriodicFlow", "fejer_mean", "periodic.fejer_mean"),
]
# modular_data gets one span name per route, read off its ``method`` argument
MODULAR_DATA = ("modular.modular_data.polar", "modular.modular_data.closed_form")
SCHEMA_VALIDATE = "cli.schema_validate"      # jsonschema.validate, as cli calls it
PEAK_SPANS = ("kms.verify_kms", "modular.commutant_gap")

SPAN_NAMES = ([name for _, _, name in FUNCTIONS] + [name for *_, name in METHODS]
              + list(MODULAR_DATA) + [SCHEMA_VALIDATE])

# Metrics derived from one span name each; every span name gets all three.
SPAN_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
# Counts, ratios and peaks beyond calls/busy/self, with their units.
EXTRA_METRICS = [
    ("algebra.AlgElement.constructs", "count"),
    ("kms.verify_kms.peak_mb", "MB"),
    ("modular.commutant_gap.peak_mb", "MB"),
    ("cocycle.check_cocycle.triples_checked", "count"),
    ("cocycle.check_cocycle.triples_per_s", "1/s"),
    ("cocycle.check_cocycle.op_share", "ratio"),
    ("cocycle.trivialize.pairs_checked_ratio", "ratio"),
    ("bundle.fiber_simplex.exact_share", "ratio"),
    ("cli.schema_validate.main_self_share", "ratio"),
    ("trace.ops", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
]


def layer_metric_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        for stat, unit in SPAN_STATS:
            units[f"{name}.{stat}"] = unit
    units.update(EXTRA_METRICS)
    return units


def _sizes(args, kwargs) -> dict | None:
    """Problem sizes read off a wrapped call's arguments, where present."""
    out = {}
    for a in list(args[:3]) + list(kwargs.values()):
        alg = getattr(a, "algebra", a)
        dims = getattr(alg, "block_dims", None)
        if dims is not None and "n" not in out:
            out["n"] = max(dims)
            out["N"] = sum(d * d for d in dims)
        if hasattr(a, "half_index_count") and "K" not in out:
            out["K"] = a.half_index_count
        if hasattr(a, "order_unit") and "rank" not in out:
            out["rank"] = len(a.order_unit)
    if "sites" in kwargs:
        out["sites"] = kwargs["sites"]
    elif len(args) >= 3 and hasattr(args[0], "site_generator"):
        out["sites"] = args[2]
    return out or None


class Recorder:
    """In-memory span list plus the counters the wrappers keep."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op, sizes]
        self.op = -1
        self.counts = collections.Counter()
        self.peak_mb: dict[str, float] = {}
        self.track_peaks = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = self._stack()
        self._peak_depth = 0
        self._peak_base = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ------------------------------------------------------------

    def wrap(self, fn, name, observe=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack = rec._stack()
            # a pool thread's outermost span belongs to the span its caller waits in
            parent = stack[-1] if stack else (rec._main_stack[-1] if rec._main_stack else -1)
            row = [span_name, 0.0, 0.0, parent, rec.op, _sizes(args, kwargs)]
            with rec._lock:
                idx = len(rec.spans)
                rec.spans.append(row)
            stack.append(idx)
            peak = rec.track_peaks and span_name in PEAK_SPANS
            if peak:
                rec._peak_enter()
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
                if peak:
                    rec._peak_exit(span_name)
            if observe is not None:
                observe(rec, args, result)
            return result

        return wrapper

    def _peak_enter(self):
        if self._peak_depth == 0:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()
            self._peak_base = tracemalloc.get_traced_memory()[0]
        self._peak_depth += 1

    def _peak_exit(self, name):
        self._peak_depth -= 1
        if self._peak_depth == 0:
            peak = (tracemalloc.get_traced_memory()[1] - self._peak_base) / 2 ** 20
            tracemalloc.stop()
            self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)

    # -- results --------------------------------------------------------------

    def span_stats(self) -> dict:
        """name → [calls, busy_s, self_s]; self time is a span's duration minus the
        union of its direct children's intervals (pool threads may overlap)."""
        children = collections.defaultdict(list)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(i, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - covered
        return stats

    def main_self_share(self, stats) -> float:
        """Share of cli.main's own time (not in library spans) spent in schema validation."""
        validate = 0.0
        main_self = stats["cli.main"][2]
        for name, start, end, parent, _, _ in self.spans:
            if name == SCHEMA_VALIDATE and parent >= 0 and self.spans[parent][0] == "cli.main":
                validate += end - start
        total = validate + main_self
        return validate / total if total > 0 else 0.0

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, sizes in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "sizes": sizes}) + "\n")


# -- installation --------------------------------------------------------------------

def _on_check(rec, args, report):
    rec.counts["cocycle.check_cocycle.triples_checked"] += report.checked


def _on_trivialize(rec, args, result):
    k = args[0].half_index_count
    rec.counts["cocycle.trivialize.pairs_checked"] += result.pairs_checked
    rec.counts["cocycle.trivialize.pairs_total"] += (2 * k + 1) ** 2


def _on_fiber(rec, args, fiber):
    rec.counts["bundle.fiber_simplex.exact"] += int(bool(fiber.exact))


OBSERVERS = {"cocycle.check_cocycle": _on_check, "cocycle.trivialize": _on_trivialize,
             "bundle.fiber_simplex": _on_fiber}


def _modular_data_name(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "polar")
    return f"modular.modular_data.{method}"


def _rebind(orig, wrapper):
    """Point every kmslab module attribute that is ``orig`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "kmslab" or mod_name.startswith("kmslab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every layer function listed above; kmslab must be imported first."""
    import jsonschema

    import kmslab.cli  # noqa: F401  (cli holds bindings of its own)

    for mod_name, attr, name in FUNCTIONS:
        orig = getattr(sys.modules[mod_name], attr)
        _rebind(orig, rec.wrap(orig, name, OBSERVERS.get(name)))
    orig = sys.modules["kmslab.modular"].modular_data
    _rebind(orig, rec.wrap(orig, _modular_data_name))
    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name))
    jsonschema.validate = rec.wrap(jsonschema.validate, SCHEMA_VALIDATE)

    alg_element = sys.modules["kmslab.algebra"].AlgElement
    orig_init = alg_element.__init__
    counts, lock = rec.counts, rec._lock

    def counted_init(self, *args, **kwargs):
        with lock:                       # simplex sweeps construct from pool threads
            counts["algebra.AlgElement.constructs"] += 1
        orig_init(self, *args, **kwargs)

    alg_element.__init__ = counted_init


def layer_metrics(rec: Recorder, op_wall_s: float, untraced_wall_s: float,
                  traced_wall_s: float, ops: int) -> dict:
    """The per-layer metrics of a traced pass, keyed by name, as plain numbers; the
    ``peak_mb`` ones come from :func:`peak_metrics` over a separate pass."""
    out = {}
    stats = rec.span_stats()
    for name in SPAN_NAMES:
        calls, busy, self_s = stats[name]
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
        out[f"{name}.self_s"] = self_s
    c = rec.counts
    check_busy = stats["cocycle.check_cocycle"][1]
    fiber_calls = stats["bundle.fiber_simplex"][0]
    out.update({
        "algebra.AlgElement.constructs": c["algebra.AlgElement.constructs"],
        "cocycle.check_cocycle.triples_checked": c["cocycle.check_cocycle.triples_checked"],
        "cocycle.check_cocycle.triples_per_s":
            c["cocycle.check_cocycle.triples_checked"] / check_busy if check_busy > 0 else 0.0,
        "cocycle.check_cocycle.op_share": check_busy / op_wall_s if op_wall_s > 0 else 0.0,
        "cocycle.trivialize.pairs_checked_ratio":
            (c["cocycle.trivialize.pairs_checked"] / c["cocycle.trivialize.pairs_total"]
             if c["cocycle.trivialize.pairs_total"] else 0.0),
        "bundle.fiber_simplex.exact_share":
            c["bundle.fiber_simplex.exact"] / fiber_calls if fiber_calls else 0.0,
        "cli.schema_validate.main_self_share": rec.main_self_share(stats),
        "trace.ops": ops,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.traced_wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.overhead_pct": 100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    })
    return out


def peak_metrics(rec: Recorder) -> dict:
    return {f"{name}.peak_mb": rec.peak_mb.get(name, 0.0) for name in PEAK_SPANS}
