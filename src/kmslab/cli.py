"""Command-line front end: JSON in, JSON/CSV/SVG out, strict exit codes.

Exit codes: 0 — success or a passing verdict; 1 — a verification that ran
to completion and failed; 2 — malformed input (JSON syntax, schema
violation, or a mathematical precondition), with a diagnostic naming the
offending file and field. All numeric JSON output uses Python's shortest
round-trip float formatting, so values survive a parse/serialize cycle
bit-for-bit. Outputs are byte-deterministic for fixed inputs and seed; a
``--beta-range`` sweep runs in one thread as stacked array operations, and
its rows are sorted by β before emission.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .algebra import BlockAlgebra, Functional
from .flow import InnerFlow
from .kms import gibbs, kms_simplex, simplex_sweep, verify_kms
from .modular import (_check_gns_dim, gns, modular_data, center_dimension,
                      commutant_gap, verify_modular_flow)
from .periodic import PeriodicFlow, cuntz_trace, gauge_kms_beta
from .products import ItpfiSpec, MatroidSpec, SpectrumFamily, factor_type_itpfi, \
    gamma_invariant, matroid_bounded, trace_class_window
from .bundle import (DimensionGroupSpec, PointBundleSpec, _spectrum_fibers, bundle_from_points,
                     scaling_measure, verify_scaling)
from .cocycle import Cochain, CocycleGrid, check_cocycle, trivialize

SCHEMA_VERSION = "1"
#: most --beta-range steps one sweep takes (about 1 s at block dims (16, 16) on a 2-vCPU guest)
MAX_SWEEP_STEPS = 100_000


class CliInputError(ValueError):
    """Bad input: carries the diagnostic shown before exiting with code 2."""


# -- schema-backed JSON I/O ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _schema(which: str) -> dict:
    """A schema file, checked against the metaschema it declares once per process."""
    import jsonschema

    text = resources.files("kmslab").joinpath(f"schemas/{which}.v1.json").read_text()
    schema = json.loads(text)
    jsonschema.validators.validator_for(schema).check_schema(schema)
    return schema


@functools.lru_cache(maxsize=None)
def _validator(which: str, kind: str):
    """A validator for one kind: its definition, carrying every ``$defs`` entry of the
    file. It declares no ``$schema``, so it takes the default class, 2020-12."""
    import jsonschema

    defs = _schema(which)["$defs"]
    schema = dict(defs[kind])
    schema["$defs"] = defs
    return jsonschema.validators.validator_for(schema)(schema)


def _validate(doc, kind: str, which: str, path: str) -> None:
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator(which, kind).iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "(root)"
        raise CliInputError(f"{path}: field {where}: {error.message}") from error


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


def _write_json(path: str, payload: dict, kind: str | None = None) -> None:
    if kind is not None:
        _validate(payload, kind, "outputs", path)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _entry(v) -> complex:
    if isinstance(v, list):
        return complex(v[0], v[1])
    return complex(v)


def _matrix(rows) -> np.ndarray:
    mat = np.array([[_entry(v) for v in row] for row in rows], dtype=complex)
    if mat.shape[0] != mat.shape[1]:
        raise CliInputError(f"matrix must be square, got {mat.shape[0]}×{mat.shape[1]}")
    return mat


def _emit_matrix(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def _problem(path: str) -> tuple[BlockAlgebra, InnerFlow, float | None]:
    doc = _load(path, "problem")
    dims = tuple(doc["block_dims"])
    mats = [_matrix(b) for b in doc["generator"]]
    if len(mats) != len(dims) or any(m.shape[0] != d for m, d in zip(mats, dims)):
        raise CliInputError(f"{path}: generator blocks do not match block_dims {dims}")
    alg = BlockAlgebra(dims)
    flow = InnerFlow(alg, alg.element(mats))
    return alg, flow, doc.get("beta")


def _element(path: str, alg: BlockAlgebra):
    doc = _load(path, "element")
    mats = [_matrix(b) for b in doc["blocks"]]
    if tuple(m.shape[0] for m in mats) != alg.block_dims:
        raise CliInputError(f"{path}: blocks do not match algebra dims {alg.block_dims}")
    return alg.element(mats)


def _need_beta(beta_flag, beta_file, path) -> float:
    if beta_flag is not None:
        beta, where = float(beta_flag), "--beta"
    elif beta_file is not None:
        beta, where = float(beta_file), f"{path}: field beta"
    else:
        raise CliInputError(f"no β given: pass --beta or put a beta field in {path}")
    if not math.isfinite(beta):
        raise CliInputError(f"{where} must be finite, got {beta!r}")
    return beta


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

def emit_plot(path: str, xs, series: dict, marks=None, x_label: str = "beta") -> None:
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
                 f'text-anchor="middle">{x_label}</text>')
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
    alg, flow, beta_file = _problem(args.problem)
    beta = _need_beta(args.beta, beta_file, args.problem)
    if args.state:
        dens = _element(args.state, alg)
        omega = Functional(alg, dens)
    else:
        omega = gibbs(flow, beta).functional
    verdict = verify_kms(flow, omega, beta, tol=args.tol, seed=args.seed)
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "verify",
        "passed": verdict.passed, "max_residual": verdict.max_residual,
        "residual_exchange": verdict.residual_exchange,
        "residual_half_shift": verdict.residual_half_shift,
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
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["beta", "dimension", "vertex_count"])
            w.writerows(rows)
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
    alg, flow, beta_file = _problem(args.problem)
    beta = _need_beta(args.beta, beta_file, args.problem)
    state = gibbs(flow, beta)
    triple = gns(alg, state.functional)
    _check_gns_dim(triple)
    md_polar = modular_data(triple, method="polar")
    md_closed = modular_data(triple, method="closed_form")
    route_gap = float(np.max(np.abs(md_polar.delta - md_closed.delta)))
    flow_report = verify_modular_flow(flow, state, tol=args.tol)
    dim_alg, dim_comm, gap = commutant_gap(triple, md_polar)
    passed = flow_report.passed and gap <= 1e-8 and route_gap <= args.tol
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "modular", "passed": passed,
        "delta_eigenvalues": sorted(np.linalg.eigvalsh(md_polar.delta).tolist()),
        "route_gap": route_gap, "flow_residual": flow_report.max_residual,
        "commutant_gap": float(gap), "center_dimension": center_dimension(triple),
    }, kind="modular")
    print(f"[{'PASS' if passed else 'FAIL'}] modular: route gap {route_gap:.3e}, "
          f"flow residual {flow_report.max_residual:.3e}, commutant gap {gap:.3e}")
    return 0 if passed else 1


def _cmd_fejer(args) -> int:
    alg, flow, _ = _problem(args.problem)
    a = _element(args.element, alg)
    periodic = PeriodicFlow(flow)
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


def _cmd_factor_type(args) -> int:
    doc = _load(args.itpfi, "itpfi")
    spec = ItpfiSpec(_matrix(doc["site_generator"]))
    report = factor_type_itpfi(spec, float(doc["beta"]))
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "factor-type", "tag": report.tag,
        "lambda_value": report.lambda_value, "kappa": report.kappa,
        "group_kind": report.group.kind if report.group else "trivial",
    }, kind="factor_type")
    print(f"type: {report.tag}" + (f" (lambda = {report.lambda_value:.12g})"
                                   if report.lambda_value is not None else ""))
    return 0


def _cmd_gamma(args) -> int:
    doc = _load(args.itpfi, "itpfi")
    spec = ItpfiSpec(_matrix(doc["site_generator"]))
    report = gamma_invariant(spec, float(doc["beta"]))
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "gamma",
        "kind": report.kind, "generator": report.generator,
    }, kind="gamma")
    return 0


def _cmd_matroid(args) -> int:
    doc = _load(args.family, "matroid")
    sites = [(_matrix(s["generator"]), _matrix(s["projection"]))
             for s in doc.get("sites", [])]
    spec = MatroidSpec(kind=doc["kind"], sites=sites,
                       declared_tail=doc.get("declared_tail"))
    verdict = matroid_bounded(spec, args.beta, prefix_terms=args.terms)
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
        return SpectrumFamily(kind="negated", inner=_family_from_doc(doc["inner"]))
    if kind == "explicit_prefix":
        return SpectrumFamily(kind="explicit_prefix", values=tuple(doc.get("values", ())))
    if kind == "zero":
        return SpectrumFamily(kind="zero")
    return SpectrumFamily(kind=kind, r=doc.get("r"))


def _cmd_window(args) -> int:
    doc = _load(args.family, "window_family")
    interval = trace_class_window(_family_from_doc(doc))
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "window",
        "empty": interval.empty, "lower": interval.lower, "upper": interval.upper,
        "lower_closed": interval.lower_closed, "upper_closed": interval.upper_closed,
        "text": str(interval),
    }, kind="window")
    print(str(interval))
    return 0


def _cmd_bundle(args) -> int:
    doc = _load(args.dg, "dimension_group")
    rho, unit = doc["rho"], doc["unit"]
    if "rank" in doc and doc["rank"] != len(rho):
        raise CliInputError(f"{args.dg}: declared rank {doc['rank']} != matrix size {len(rho)}")
    spec = DimensionGroupSpec(matrix=rho, order_unit=unit)
    fibers = _spectrum_fibers(spec)
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
    doc = _load(args.points, "points")
    spec = PointBundleSpec.from_pairs([(p["label"], p["level"]) for p in doc["points"]])
    fiber = bundle_from_points(spec, args.level)
    members = [spec.labels[int(np.argmax(v))] for v in fiber.vertices]
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "point-bundle",
        "level": float(args.level), "dimension": fiber.dimension,
        "vertex_count": fiber.vertex_count, "members": members,
    }, kind="point_bundle")
    return 0


def _cmd_measure(args) -> int:
    doc = _load(args.measure, "measure")
    kwargs = {}
    for key in ("lam_exact", "base_exact", "x_exact"):
        if key in doc:
            kwargs[key] = doc[key]
    mu = scaling_measure(doc["lam"], doc["beta"], kind=doc["kind"],
                         x=doc.get("x", 1.0), window=doc.get("window", 8), **kwargs)
    lam = float(doc["lam"])
    sets = [tuple(s) for s in doc.get("sets", [])] or [(1.0, lam), (1.0 / lam, 1.0)]
    report = verify_scaling(mu, sets)
    passed = report.max_residual <= args.tol
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


def _grid_from_doc(doc) -> CocycleGrid:
    phases = np.array(doc["values"], dtype=float)
    return CocycleGrid(step=doc["step"], half_range=doc["half_range"],
                       values=np.exp(1j * phases))


def _cmd_cocycle(args) -> int:
    doc = _load(args.infile, "cocycle_grid")
    grid = _grid_from_doc(doc)
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
    beta = gauge_kms_beta(args.m, args.rho) if args.rho is not None else None
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION, "command": "cuntz", "m": args.m,
        "word_a": list(a), "word_b": list(b), "value": str(value),
        "gauge_beta": beta,
    }, kind="cuntz")
    print(f"trace value {value}" + (f", gauge beta {beta:.12g}" if beta is not None else ""))
    return 0


# -- parser -------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmslab",
        description="Equilibrium states, modular data, and simplex bundles "
                    "for finite-dimensional flows.")
    parser.add_argument("--version", action="version",
                        version=f"kmslab {__version__} (schemas v{SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("gibbs", _cmd_gibbs, help="Gibbs state of a problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--out", required=True)

    p = add("verify", _cmd_verify, help="two-route equilibrium check (exit 1 on failure)")
    p.add_argument("--problem", required=True)
    p.add_argument("--state", help="density to test (default: the Gibbs state)")
    p.add_argument("--beta", type=float)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("simplex", _cmd_simplex, help="equilibrium simplex at one β or over a sweep")
    p.add_argument("--problem", required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-range", help="lo:hi:steps, half-open [lo, hi)")
    p.add_argument("--plot", help="SVG path (sweeps only)")
    p.add_argument("--out", required=True)

    p = add("modular", _cmd_modular, help="modular operator by two routes + theorems")
    p.add_argument("--problem", required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)

    p = add("fejer", _cmd_fejer, help="Cesàro mean of an element under a periodic flow")
    p.add_argument("--problem", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("decompose", _cmd_decompose, help="spectral component norms to CSV")
    p.add_argument("--problem", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--out", required=True)

    p = add("factor-type", _cmd_factor_type, help="product-factor type of a site family")
    p.add_argument("--itpfi", required=True)
    p.add_argument("--out", required=True)

    p = add("gamma", _cmd_gamma, help="Connes Γ invariant of a site family")
    p.add_argument("--itpfi", required=True)
    p.add_argument("--out", required=True)

    p = add("matroid", _cmd_matroid, help="boundedness verdict for a corner family")
    p.add_argument("--family", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--terms", type=int, default=24)
    p.add_argument("--out", required=True)

    p = add("window", _cmd_window, help="trace-class β window of a spectrum family")
    p.add_argument("--family", required=True)
    p.add_argument("--out", required=True)

    p = add("bundle", _cmd_bundle, help="fiber sweep of a dimension-group spec")
    p.add_argument("--dg", required=True)
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--json", help="optional JSON summary path")
    p.add_argument("--plot", help="optional SVG path")

    p = add("point-bundle", _cmd_point_bundle, help="Dirac simplex over a finite level map")
    p.add_argument("--points", required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--out", required=True)

    p = add("measure", _cmd_measure, help="self-similar measure + scaling check")
    p.add_argument("--measure", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)

    p = add("cocycle", _cmd_cocycle, help="check or trivialize a phase 2-cocycle grid")
    p.add_argument("action", choices=["check", "trivialize"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="cochain output (trivialize)")
    p.add_argument("--report", help="JSON report path")
    p.add_argument("--tol", type=float, help="residual bound turning the run into a verdict")

    p = add("cuntz", _cmd_cuntz, help="exact word trace and gauge β")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", dest="word_a", default="", help="comma-separated letters")
    p.add_argument("--b", dest="word_b", default="", help="comma-separated letters")
    p.add_argument("--rho", type=float)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:             # CliInputError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
