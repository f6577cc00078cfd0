"""Command-line entry point wiring configs to the library modules.

Subcommands: ``verify`` (identity/inequality suite; nonzero exit on any
failure), ``weights`` (Muckenhoupt constants), ``poincare``, ``solve``,
``op`` (apply one fractional operator to a field file), ``sweep``
(parameter grids).  Every run writes a manifest recording the exact
configuration, seed, package version and sha256 of each artifact (``solve``
adds its wall time per stage); identical config and seed reproduce identical
artifact bytes.

Exit codes: 0 success, 1 numeric violation in verify, 2 config/schema
violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np
import jsonschema

from . import __version__
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    bump,
    field_to_csv,
    make_grid,
    read_field,
    sample,
    write_field,
)
from . import fracops as fo
from . import inequalities as iq
from . import solver as sv
from . import suite as suite_mod
from . import weights as wt

GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "enum": [1, 2, 3]},
        "N": {"type": "integer", "minimum": 8},
        "L": {"type": "number", "exclusiveMinimum": 0},
        "origin": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["n", "N", "L"],
    "additionalProperties": False,
}


def _kind_requires(key: str, reads: dict) -> list:
    """Draft 2020-12 clauses requiring, per value of ``key``, the keys its kind reads."""
    return [
        {"if": {"properties": {key: {"const": value}}, "required": [key]},
         "then": {"required": required}}
        for value, required in reads.items()
    ]


OMEGA_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"type": "string", "enum": ["ball", "box", "full"]},
        "center": {"type": "array", "items": {"type": "number"}},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "lo": {"type": "array", "items": {"type": "number"}},
        "hi": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["type"],
    "additionalProperties": False,
    "allOf": _kind_requires("type", {"ball": ["center", "radius"],
                                     "box": ["lo", "hi"]}),
}

COEFF_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"type": "string", "enum": ["scalar", "matrix"]},
        "family": {"type": "string", "enum": ["constant", "power"]},
        "alpha": {"type": "number"},
        "x0": {"type": "array", "items": {"type": "number"}},
        "c1": {"type": "number", "exclusiveMinimum": 0},
        "c2": {"type": "number", "exclusiveMinimum": 0},
        "rank_one_scale": {"type": "number"},
        "rank_one_direction": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["kind", "family"],
    "additionalProperties": False,
}

RHS_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"type": "string", "enum": ["manufactured", "field", "modes", "none"]},
        "path": {"type": "string"},
        "center": {"type": "array", "items": {"type": "number"}},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "sharpness": {"type": "number", "exclusiveMinimum": 0},
        "modes": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "k": {"type": "array", "items": {"type": "integer"}},
                    "amplitude": {"type": "number"},
                },
                "required": ["k", "amplitude"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["kind"],
    "additionalProperties": False,
    "allOf": _kind_requires("kind", {"manufactured": ["center", "radius"],
                                     "field": ["path"],
                                     "modes": ["modes"]}),
}

SOLVE_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": GRID_SCHEMA,
        "omega": OMEGA_SCHEMA,
        "s": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "p": {"type": "number", "exclusiveMinimum": 1},
        "coefficient": COEFF_SCHEMA,
        "rhs": RHS_SCHEMA,
        "g": RHS_SCHEMA,
        "solver": {
            "type": "object",
            "properties": {
                "method": {"type": "string", "enum": ["pcg", "kacanov", "newton", "descent"]},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
            "additionalProperties": False,
        },
    },
    "required": ["grid", "omega", "s", "p", "coefficient", "rhs"],
    "additionalProperties": False,
}

SWEEP_SCHEMA = {
    "type": "object",
    "properties": {
        "task": {"type": "string", "enum": ["weights", "poincare"]},
        "base": {"type": "object"},
        "vary": {
            "type": "object",
            "additionalProperties": {"type": "array", "minItems": 1},
        },
    },
    "required": ["task", "base", "vary"],
    "additionalProperties": False,
}


#: One sweep case (``base`` updated by one combination of ``vary``) per task:
#: the keys ``_sweep_case`` reads.
SWEEP_CASE_SCHEMAS = {
    "weights": {
        "type": "object",
        "properties": {
            **GRID_SCHEMA["properties"],
            "x0": {"type": "array", "items": {"type": "number"}},
            "alpha": {"type": "number"},
            "p": SOLVE_SCHEMA["properties"]["p"],
            "levels": {"type": "integer", "minimum": 0},
        },
        "required": ["n", "N", "L", "x0", "alpha", "p"],
        "additionalProperties": False,
    },
    "poincare": {
        "type": "object",
        "properties": {
            **{k: GRID_SCHEMA["properties"][k] for k in ("n", "N", "L")},
            "omega": OMEGA_SCHEMA,
            "s": SOLVE_SCHEMA["properties"]["s"],
            "p": SOLVE_SCHEMA["properties"]["p"],
            "alpha": {"type": ["number", "null"]},
            "seed": {"type": "integer"},
        },
        "required": ["n", "N", "L", "omega", "s", "p"],
        "additionalProperties": False,
    },
}

# Built once: ``jsonschema.validate`` checks its schema against the
# metaschema on every call, which costs far more than checking a config.
# The tests run that metaschema check on each of these schemas.
SOLVE_VALIDATOR = jsonschema.Draft202012Validator(SOLVE_SCHEMA)
SWEEP_VALIDATOR = jsonschema.Draft202012Validator(SWEEP_SCHEMA)
SWEEP_CASE_VALIDATORS = {
    task: jsonschema.Draft202012Validator(schema)
    for task, schema in SWEEP_CASE_SCHEMAS.items()
}


class ConfigError(Exception):
    pass


def _validate(config: dict, validator: jsonschema.Draft202012Validator,
              what: str = "config") -> None:
    """Raise ConfigError naming the error ``jsonschema.validate`` would raise."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"{what} invalid at '{path}': {error.message}")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Manifest:
    """Reproducibility record written next to every command's artifacts."""

    def __init__(self, out_dir: Path, command: str, config, seed: int | None):
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(config, sort_keys=True).encode()
        self.record = {
            "command": command,
            "config_hash": hashlib.sha256(blob).hexdigest(),
            "seed": seed,
            "version": __version__,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "artifacts": [],
        }

    def add(self, path: Path) -> None:
        self.record["artifacts"].append(
            {"path": path.name, "sha256": _sha256(path)}
        )

    def close(self) -> Path:
        self.record["finished"] = time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime()
        )
        self.record["artifacts"].sort(key=lambda a: a["path"])
        path = self.out / "manifest.json"
        _dump_json(self.record, path)
        return path


def emit(obj, fmt: str, path) -> Path:
    """Serialize a field or report: json/csv for records, bin/csv for fields."""
    path = Path(path)
    if isinstance(obj, ScalarField):
        if fmt == "bin":
            write_field(obj, path)
        elif fmt == "csv":
            field_to_csv(obj, path)
        else:
            raise ValueError(f"fields serialize to bin or csv, not {fmt!r}")
        return path
    record = obj.to_record() if hasattr(obj, "to_record") else obj
    if fmt == "json":
        _dump_json(record, path)
    elif fmt == "csv":
        if hasattr(obj, "history_rows"):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iteration", "residual", "energy"])
                writer.writerows(obj.history_rows())
        elif hasattr(obj, "rows"):
            rows = obj.rows()
            if not rows:
                raise ValueError("report has no sample rows to serialize")
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=sorted(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
        else:
            raise ValueError("object has no tabular representation")
    else:
        raise ValueError(f"unsupported format {fmt!r}")
    return path


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def _build_grid(cfg: dict):
    spec = GridSpec(
        n=cfg["n"],
        N=cfg["N"],
        L=cfg["L"],
        origin=tuple(cfg.get("origin", ())) or (),
    )
    return make_grid(spec)


def _build_mask(grid, cfg: dict) -> np.ndarray:
    kind = cfg["type"]
    if kind == "full":
        return np.ones(grid.spec.shape, dtype=bool)
    coords = grid.coords()
    if kind == "ball":
        center = cfg["center"]
        if len(center) != grid.spec.n:
            raise ConfigError("omega/center has wrong dimension")
        r2 = sum((c - c0) ** 2 for c, c0 in zip(coords, center))
        return r2 <= cfg["radius"] ** 2
    lo, hi = cfg["lo"], cfg["hi"]
    if len(lo) != grid.spec.n or len(hi) != grid.spec.n:
        raise ConfigError("omega/lo,hi have wrong dimension")
    mask = np.ones(grid.spec.shape, dtype=bool)
    for d in range(grid.spec.n):
        mask &= (coords[d] >= lo[d]) & (coords[d] <= hi[d])
    return mask


def _build_weight(grid, cfg: dict, p: float):
    if cfg["family"] == "constant":
        return wt.tabulated_weight(grid, np.ones(grid.spec.shape), p)
    x0 = cfg.get("x0", [grid.spec.origin[d] + grid.spec.L / 2 for d in range(grid.spec.n)])
    return wt.power_weight(grid, x0, cfg.get("alpha", 0.0), p)


def _build_field(grid, cfg: dict, base_dir: Path) -> ScalarField:
    kind = cfg["kind"]
    if kind == "field":
        f = read_field(base_dir / cfg["path"])
        if f.grid != grid:
            raise ConfigError("field file grid does not match config grid")
        return f
    if kind == "modes":
        vals = np.zeros(grid.spec.shape)
        coords = grid.coords()
        for mode in cfg["modes"]:
            k = mode["k"]
            if len(k) != grid.spec.n:
                raise ConfigError("rhs mode has wrong dimension")
            phase = sum(
                2.0 * np.pi * k[d] * coords[d] / grid.spec.L
                for d in range(grid.spec.n)
            )
            vals += mode["amplitude"] * np.sin(phase)
        return ScalarField(grid, vals)
    # manufactured handled by the caller (needs the operator)
    raise ConfigError(f"cannot build a field of kind {kind!r} here")


def _build_problem(config: dict, base_dir: Path):
    grid = _build_grid(config["grid"])
    mask = _build_mask(grid, config["omega"])
    s, p = config["s"], config["p"]
    coeff = config["coefficient"]
    w = _build_weight(grid, coeff, p)
    matrix = None
    c1 = c2 = None
    if coeff["kind"] == "matrix":
        n = grid.spec.n
        e = np.asarray(
            coeff.get("rank_one_direction", [1.0] * n), dtype=np.float64
        )
        e /= np.linalg.norm(e)
        scale = coeff.get("rank_one_scale", 0.5)
        A = np.zeros((n, n) + grid.spec.shape)
        for i in range(n):
            for j in range(n):
                A[i, j] = w.values * ((1.0 if i == j else 0.0) + scale * e[i] * e[j])
        matrix = A
        c1 = coeff.get("c1", min(1.0, 1.0 + scale))
        c2 = coeff.get("c2", max(1.0, 1.0 + scale))
    gcfg = config.get("g", {"kind": "none"})
    exterior = None
    if gcfg.get("kind", "none") not in ("none",):
        exterior = _build_field(grid, gcfg, base_dir)
    rhs_cfg = config["rhs"]
    if rhs_cfg["kind"] == "manufactured":
        ustar = bump(
            grid,
            rhs_cfg["center"],
            rhs_cfg["radius"],
            rhs_cfg.get("sharpness", 1.0),
        )
        if np.any(ustar.values[~mask] != 0.0):
            raise ConfigError("manufactured bump must be supported inside omega")
        prob = sv.manufacture(
            grid, mask, s, p, w, ustar, matrix=matrix, c1=c1, c2=c2
        )
        return prob, ustar
    rhs = _build_field(grid, rhs_cfg, base_dir)
    prob = sv.PDEProblem(
        grid=grid,
        mask=mask,
        s=s,
        p=p,
        weight=w,
        rhs=rhs,
        matrix=matrix,
        c1=c1,
        c2=c2,
        exterior=exterior,
    )
    return prob, None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    results = suite_mod.run_suite(quick=args.quick, seed=args.seed)
    out = Path(args.out)
    manifest = Manifest(out, "verify", {"quick": args.quick}, args.seed)
    records = [r.to_record() for r in results]
    report = out / "verify_report.json"
    manifest.out.mkdir(parents=True, exist_ok=True)
    _dump_json(records, report)
    manifest.add(report)
    rows = out / "verify_report.csv"
    with open(rows, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "passed", "observed", "tolerance"])
        for r in results:
            writer.writerow([r.name, r.passed, repr(r.observed), repr(r.tolerance)])
    manifest.add(rows)
    manifest.close()
    failures = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  "
              f"observed={r.observed:.3e}  tolerance={r.tolerance:.3e}")
    print(f"{len(results)} checks, {len(failures)} failures -> {report}")
    return 1 if failures else 0


def _cmd_weights(args) -> int:
    spec = GridSpec(n=args.n, N=args.N, L=args.L, origin=tuple(args.origin or ()))
    grid = make_grid(spec)
    x0 = args.x0 if args.x0 else [spec.origin[d] + spec.L / 2 for d in range(spec.n)]
    if args.family == "power":
        w = wt.power_weight(grid, x0, args.alpha, args.p)
    else:
        raise ConfigError(f"unsupported weight family {args.family!r}")
    lo = tuple(spec.origin)
    fam = wt.CubeFamily(lo=lo, size=spec.L, level_min=0, level_max=args.levels)
    est = wt.ap_constant(w, args.p, fam)
    record = est.to_record()
    record["in_class"] = w.in_class
    if args.q is not None:
        record["apq"] = wt.apq_constant(w, args.p, args.q, fam).to_record()
        record["sawyer_wheeden"] = wt.sawyer_wheeden_constant(
            w, w, args.s, args.p, args.q, fam
        )
    out = Path(args.out)
    manifest = Manifest(
        out, "weights",
        {k: getattr(args, k) for k in
         ("family", "alpha", "p", "q", "levels", "n", "N", "L")},
        None,
    )
    path = out / "weights.json"
    _dump_json(record, path)
    manifest.add(path)
    manifest.close()
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_poincare(args) -> int:
    spec = GridSpec(n=args.n, N=args.N, L=args.L)
    grid = make_grid(spec)
    mask = _build_mask(
        grid,
        {
            "type": args.omega,
            "center": args.center or [spec.L / 2] * spec.n,
            "radius": args.radius,
            "lo": args.lo,
            "hi": args.hi,
        },
    )
    w = None
    if args.alpha is not None:
        w = wt.power_weight(grid, args.center or [spec.L / 2] * spec.n, args.alpha, args.p)
    est = iq.poincare_constant(grid, mask, args.s, args.p, w=w, seed=args.seed)
    out = Path(args.out)
    manifest = Manifest(
        out, "poincare",
        {k: getattr(args, k) for k in
         ("omega", "s", "p", "n", "N", "L", "alpha")},
        args.seed,
    )
    path = out / "poincare.json"
    record = est.to_record()
    record.update({"s": args.s, "p": args.p, "omega": args.omega})
    _dump_json(record, path)
    manifest.add(path)
    manifest.close()
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if est.converged else 1


def _cmd_solve(args) -> int:
    cfg_path = Path(args.config)
    config = json.loads(cfg_path.read_text())
    marks = [time.perf_counter()]
    _validate(config, SOLVE_VALIDATOR)
    marks.append(time.perf_counter())
    prob, ustar = _build_problem(config, cfg_path.parent)
    marks.append(time.perf_counter())
    scfg = config.get("solver", {})
    method = scfg.get("method", sv.default_method(prob.p))
    tol = scfg.get("tol")
    if method == "pcg":
        report = sv.solve_linear(
            prob, tol=tol if tol is not None else 1e-10,
            max_iter=scfg.get("max_iter", 2000),
        )
    else:
        report = sv.solve_plaplace(
            prob, method=method, tol=tol, max_outer=scfg.get("max_iter", 200)
        )
    rec = report.to_record()
    rec["residual_final"] = sv.weak_residual_norm(prob, report.solution)
    if ustar is not None:
        num = np.sqrt(np.sum((report.solution.values - ustar.values) ** 2))
        den = np.sqrt(np.sum(ustar.values**2))
        rec["manufactured_relative_error"] = float(num / den)
    marks.append(time.perf_counter())
    out = Path(args.out)
    manifest = Manifest(out, "solve", config, scfg.get("seed"))
    path = out / "solve_report.json"
    _dump_json(rec, path)
    manifest.add(path)
    manifest.add(emit(report.solution, "bin", out / "solution.bin"))
    manifest.add(emit(report, "csv", out / "history.csv"))
    marks.append(time.perf_counter())
    # wall-clock seconds per stage; only the manifest may hold them
    manifest.record["timings"] = {
        stage: end - start for stage, start, end in
        zip(("validate", "build", "solve", "write"), marks, marks[1:])
    }
    manifest.close()
    print(json.dumps({k: rec[k] for k in
                      ("method", "iterations", "converged", "residual_final")},
                     indent=2, sort_keys=True))
    return 0 if report.converged else 1


_OPERATORS = {
    "grad": ("s", lambda u, order, j: fo.riesz_gradient(u, order)),
    "div": ("s", None),  # special-cased: needs n inputs
    "riesz": ("sigma", lambda u, order, j: fo.riesz_potential(u, order)),
    "bessel": ("sigma", lambda u, order, j: fo.bessel_potential(u, order)),
    "flap": ("sigma", lambda u, order, j: fo.fractional_laplacian(u, order)),
    "rt": (None, lambda u, order, j: fo.riesz_transform(u, j)),
    "Ts": ("s", lambda u, order, j: fo.ts_multiplier(u, order)),
    "Gs": ("s", lambda u, order, j: fo.gs_multiplier(u, order)),
}


def _cmd_op(args) -> int:
    fields = [read_field(p) for p in args.input]
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ConfigError("input fields live on different grids")
    order = args.s if args.s is not None else args.sigma
    name = args.operator
    needs, fn = _OPERATORS[name]
    if needs and order is None:
        raise ConfigError(f"operator {name} needs --{needs}")
    if name == "rt" and args.component is None:
        raise ConfigError("rt needs --component")
    if name == "div" and len(fields) != grid.spec.n:
        raise ConfigError(f"div needs {grid.spec.n} component files")
    # the operators check their order and component: apply them before
    # the output directory is made
    if name == "div":
        vf = VectorField(grid, tuple(fields))
        result = [fo.fractional_divergence(vf, order)]
        names = ["divergence.bin"]
    elif name == "grad":
        vf = fo.riesz_gradient(fields[0], order)
        result = list(vf.components)
        names = [f"gradient_{j}.bin" for j in range(grid.spec.n)]
    else:
        result = [fn(fields[0], order, args.component)]
        names = [f"{name}.bin"]
    out = Path(args.out)
    manifest = Manifest(
        out, "op",
        {"operator": name, "s": args.s, "sigma": args.sigma,
         "component": args.component, "inputs": [str(p) for p in args.input]},
        None,
    )
    for r, nm in zip(result, names):
        manifest.add(emit(r, "bin", out / nm))
        if args.csv:
            manifest.add(emit(r, "csv", out / (nm[:-4] + ".csv")))
    manifest.close()
    print(f"wrote {len(result)} field(s) to {out}")
    return 0


def _sweep_case(task: str, cfg: dict) -> dict:
    if task == "weights":
        grid = make_grid(GridSpec(n=cfg["n"], N=cfg["N"], L=cfg["L"],
                                  origin=tuple(cfg.get("origin", ()))))
        w = wt.power_weight(grid, cfg["x0"], cfg["alpha"], cfg["p"])
        fam = wt.CubeFamily(lo=tuple(grid.spec.origin), size=cfg["L"],
                            level_min=0, level_max=cfg.get("levels", 5))
        est = wt.ap_constant(w, cfg["p"], fam)
        return {"constant": est.value, "in_class": w.in_class}
    grid = make_grid(GridSpec(n=cfg["n"], N=cfg["N"], L=cfg["L"]))
    mask = _build_mask(grid, cfg["omega"])
    west = None
    if cfg.get("alpha") is not None:
        west = wt.power_weight(grid, cfg["omega"].get("center", [cfg["L"] / 2] * cfg["n"]),
                               cfg["alpha"], cfg["p"])
    est = iq.poincare_constant(grid, mask, cfg["s"], cfg["p"], w=west,
                               seed=cfg.get("seed", 0))
    return {"constant": est.constant, "converged": est.converged,
            "product_shape": est.constant * (1.0 - 2.0 ** (-cfg["s"]))}


def _cmd_sweep(args) -> int:
    cfg_path = Path(args.config)
    config = json.loads(cfg_path.read_text())
    _validate(config, SWEEP_VALIDATOR)
    task = config["task"]
    keys = sorted(config["vary"].keys())
    cases = []
    for combo in itertools.product(*(config["vary"][k] for k in keys)):
        case = dict(config["base"])
        case.update(dict(zip(keys, combo)))
        case_id = ",".join(f"{k}={v}" for k, v in zip(keys, combo))
        _validate(case, SWEEP_CASE_VALIDATORS[task], f"sweep case '{case_id}'")
        cases.append((case_id, case))
    out = Path(args.out)
    manifest = Manifest(out, "sweep", config, None)
    ordered = {cid: _sweep_case(task, c) for cid, c in sorted(cases)}
    path = out / "sweep.json"
    _dump_json(ordered, path)
    manifest.add(path)
    rows_path = out / "sweep.csv"
    with open(rows_path, "w", newline="") as fh:
        first = next(iter(ordered.values()))
        writer = csv.writer(fh)
        writer.writerow(["case"] + sorted(first.keys()))
        for cid, rec in ordered.items():
            writer.writerow([cid] + [repr(rec[k]) for k in sorted(rec.keys())])
    manifest.add(rows_path)
    manifest.close()
    print(f"{len(cases)} cases -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rieszgrad",
        description="Riesz fractional calculus: verification, weights, and solvers",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity/inequality suite")
    v.add_argument("--quick", action="store_true", default=False)
    v.add_argument("--full", dest="quick", action="store_false")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default="verify_out")
    v.set_defaults(func=_cmd_verify)

    w = sub.add_parser("weights", help="estimate Muckenhoupt constants")
    w.add_argument("--family", default="power")
    w.add_argument("--alpha", type=float, required=True)
    w.add_argument("--p", type=float, required=True)
    w.add_argument("--q", type=float, default=None)
    w.add_argument("--s", type=float, default=0.5)
    w.add_argument("--levels", type=int, default=6)
    w.add_argument("--n", type=int, default=1)
    w.add_argument("--N", type=int, default=512)
    w.add_argument("--L", type=float, default=2.0)
    w.add_argument("--origin", type=float, nargs="*", default=[-1.0])
    w.add_argument("--x0", type=float, nargs="*", default=[0.0])
    w.add_argument("--out", default="weights_out")
    w.set_defaults(func=_cmd_weights)

    pc = sub.add_parser("poincare", help="estimate the Poincare constant")
    pc.add_argument("--omega", choices=["ball", "box"], default="box")
    pc.add_argument("--center", type=float, nargs="*", default=None)
    pc.add_argument("--radius", type=float, default=0.25)
    pc.add_argument("--lo", type=float, nargs="*", default=[0.75])
    pc.add_argument("--hi", type=float, nargs="*", default=[1.25])
    pc.add_argument("--s", type=float, required=True)
    pc.add_argument("--p", type=float, default=2.0)
    pc.add_argument("--alpha", type=float, default=None)
    pc.add_argument("--n", type=int, default=1)
    pc.add_argument("--N", type=int, default=256)
    pc.add_argument("--L", type=float, default=2.0)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", default="poincare_out")
    pc.set_defaults(func=_cmd_poincare)

    so = sub.add_parser(
        "solve",
        help="solve a problem config (solver.method: pcg, kacanov, newton or "
        "descent; default pcg at p = 2, newton for p > 2, kacanov for p < 2)",
    )
    so.add_argument("--config", required=True)
    so.add_argument("--out", default="solve_out")
    so.set_defaults(func=_cmd_solve)

    op = sub.add_parser("op", help="apply one fractional operator to a field")
    op.add_argument("operator", choices=sorted(_OPERATORS.keys()))
    op.add_argument("--in", dest="input", nargs="+", required=True)
    op.add_argument("--s", type=float, default=None)
    op.add_argument("--sigma", type=float, default=None)
    op.add_argument("--component", type=int, default=None)
    op.add_argument("--csv", action="store_true")
    op.add_argument("--out", default="op_out")
    op.set_defaults(func=_cmd_op)

    sw = sub.add_parser("sweep", help="run a parameter grid")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", default="sweep_out")
    sw.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
