"""Command-line entry point wiring configs to the library modules.

Subcommands: ``verify`` (identity/inequality suite; nonzero exit on any
failure), ``weights`` (Muckenhoupt constants), ``poincare``, ``solve``,
``op`` (apply one fractional operator to a field file), ``sweep``
(parameter grids).  Every run writes a manifest with the seed, package
version, sha256 of each artifact (``solve`` adds its wall time per stage)
and a hash of the configuration: the config file for ``solve`` and
``sweep``, every parsed flag but ``--out`` otherwise.  So runs with
different results never share a hash; two spellings of one default
(``--x0`` left out, ``--x0 0.0``) hash apart, which is harmless.  Each
artifact's file suffix picks its format.  Identical config and seed
reproduce identical artifact bytes.

Exit codes: 0 success, 1 numeric violation in verify, 2 config/schema
violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    bump,
    field_to_csv,
    make_grid,
    read_field,
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

def _field_schema(kinds: list) -> dict:
    """A field config (``rhs`` or ``g``) of one of the given kinds."""
    return {
        "type": "object",
        "properties": {
            "kind": {"type": "string", "enum": kinds},
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


#: the right-hand side, and the exterior data g outside omega
RHS_SCHEMA = _field_schema(["manufactured", "field", "modes"])
G_SCHEMA = _field_schema(["none", "field", "modes"])

SOLVE_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": GRID_SCHEMA,
        "omega": OMEGA_SCHEMA,
        "s": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "p": {"type": "number", "exclusiveMinimum": 1},
        "coefficient": COEFF_SCHEMA,
        "rhs": RHS_SCHEMA,
        "g": G_SCHEMA,
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


@functools.cache
def _validators() -> dict:
    """The validators of SOLVE_SCHEMA, SWEEP_SCHEMA and each sweep case
    schema, keyed SOLVE_VALIDATOR, SWEEP_VALIDATOR and SWEEP_CASE_VALIDATORS
    (a dict by task), built once, on first use.

    Built once because ``jsonschema.validate`` checks its schema against
    the metaschema on every call, which costs far more than checking a
    config (the tests run that check on each of these schemas); on first
    use because importing jsonschema costs more than the set-up of most
    runs, and only ``solve`` and ``sweep`` validate.
    """
    from jsonschema import Draft202012Validator as Validator

    return {
        "SOLVE_VALIDATOR": Validator(SOLVE_SCHEMA),
        "SWEEP_VALIDATOR": Validator(SWEEP_SCHEMA),
        "SWEEP_CASE_VALIDATORS": {
            task: Validator(schema) for task, schema in SWEEP_CASE_SCHEMAS.items()
        },
    }


class ConfigError(Exception):
    pass


def _validate(config: dict, validator, what: str = "config") -> None:
    """Raise ConfigError naming the error ``jsonschema.validate`` would raise."""
    from jsonschema.exceptions import best_match

    error = best_match(validator.iter_errors(config))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"{what} invalid at '{path}': {error.message}")


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Manifest:
    """Reproducibility record written next to every command's artifacts,
    each of which goes through ``Manifest.emit``."""

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

    def emit(self, obj, name: str) -> Path:
        """``emit`` obj to the file ``name`` of the output directory and
        record the file's sha256."""
        path = emit(obj, self.out / name)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.record["artifacts"].append({"path": path.name, "sha256": digest})
        return path

    def close(self) -> Path:
        self.record["finished"] = time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime()
        )
        self.record["artifacts"].sort(key=lambda a: a["path"])
        path = self.out / "manifest.json"
        _dump_json(self.record, path)
        return path


def emit(obj, path) -> Path:
    """Serialize obj in the format of path's suffix: a field to .bin or
    .csv, a record (or an object with ``to_record``) to .json, a
    (header, rows) table whose rows the caller has formatted to .csv."""
    path = Path(path)
    fmt = path.suffix[1:]
    if isinstance(obj, ScalarField):
        if fmt == "bin":
            write_field(obj, path)
        elif fmt == "csv":
            field_to_csv(obj, path)
        else:
            raise ValueError(f"fields serialize to bin or csv, not {fmt!r}")
    elif fmt == "json":
        _dump_json(obj.to_record() if hasattr(obj, "to_record") else obj, path)
    elif fmt == "csv":
        header, rows = obj
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        raise ValueError(f"unsupported format {fmt!r}")
    return path


def _flags(args) -> dict:
    """Every parsed flag but ``--out``, and not the dispatch function: the
    configuration a flag-driven command hashes."""
    return {k: v for k, v in vars(args).items() if k not in ("out", "func")}


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def _build_grid(cfg: dict):
    return make_grid(GridSpec(n=cfg["n"], N=cfg["N"], L=cfg["L"],
                              origin=tuple(cfg.get("origin") or ())))


def _centre(grid, point) -> list[float]:
    """point, or the box centre when point is None: where a weight or a
    ball sits unless told otherwise."""
    if point is not None:
        return point
    return [o + grid.spec.L / 2 for o in grid.spec.origin]


def _build_mask(grid, cfg: dict) -> np.ndarray:
    kind = cfg["type"]
    if kind == "full":
        return np.ones(grid.spec.shape, dtype=bool)
    coords = grid.coords()
    if kind == "ball":
        center = _centre(grid, cfg.get("center"))
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
    return wt.power_weight(grid, _centre(grid, cfg.get("x0")), cfg.get("alpha", 0.0), p)


def _build_field(grid, cfg: dict, base_dir: Path, key: str) -> ScalarField:
    """The field of a ``field`` or ``modes`` config read from ``key``: the
    schema admits no other kind here (manufactured needs the operator, so the
    caller builds it)."""
    if cfg["kind"] == "field":
        f = read_field(base_dir / cfg["path"])
        if f.grid != grid:
            raise ConfigError("field file grid does not match config grid")
        return f
    vals = np.zeros(grid.spec.shape)
    coords = grid.coords()
    for mode in cfg["modes"]:
        k = mode["k"]
        if len(k) != grid.spec.n:
            raise ConfigError(f"{key} mode has wrong dimension")
        phase = sum(
            2.0 * np.pi * k[d] * coords[d] / grid.spec.L
            for d in range(grid.spec.n)
        )
        vals += mode["amplitude"] * np.sin(phase)
    return ScalarField(grid, vals)


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
    if gcfg["kind"] != "none":
        exterior = _build_field(grid, gcfg, base_dir, "g")
    rhs_cfg = config["rhs"]
    if rhs_cfg["kind"] == "manufactured":
        if exterior is not None:
            raise ConfigError("a manufactured rhs solves with g = 0: give g "
                              "only with an rhs of kind field or modes")
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
    rhs = _build_field(grid, rhs_cfg, base_dir, "rhs")
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


def _weights_estimate(case: dict):
    """The power weight of a weights case, its whole-box cube family and
    the A_p estimate over that family."""
    grid = _build_grid(case)
    w = wt.power_weight(grid, _centre(grid, case.get("x0")), case["alpha"], case["p"])
    fam = wt.CubeFamily(lo=grid.spec.origin, size=grid.spec.L, level_min=0,
                        level_max=case.get("levels", 5))
    return w, fam, wt.ap_constant(w, case["p"], fam)


def _poincare_estimate(case: dict):
    """The Poincare estimate of a poincare case; a weight sits at the
    centre of omega, or else of the box."""
    grid = _build_grid(case)
    mask = _build_mask(grid, case["omega"])
    w = None
    if case.get("alpha") is not None:
        w = wt.power_weight(grid, _centre(grid, case["omega"].get("center")),
                            case["alpha"], case["p"])
    return iq.poincare_constant(grid, mask, case["s"], case["p"], w=w,
                                seed=case.get("seed", 0))


def _cmd_verify(args) -> int:
    results = suite_mod.run_suite(quick=args.quick, seed=args.seed)
    manifest = Manifest(Path(args.out), "verify", _flags(args), args.seed)
    report = manifest.emit([r.to_record() for r in results], "verify_report.json")
    manifest.emit((["name", "passed", "observed", "tolerance"],
                   [[r.name, r.passed, repr(r.observed), repr(r.tolerance)]
                    for r in results]), "verify_report.csv")
    manifest.close()
    failures = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  "
              f"observed={r.observed:.3e}  tolerance={r.tolerance:.3e}")
    print(f"{len(results)} checks, {len(failures)} failures -> {report}")
    return 1 if failures else 0


def _cmd_weights(args) -> int:
    w, fam, est = _weights_estimate({
        "n": args.n, "N": args.N, "L": args.L,
        "origin": [-1.0] * args.n if args.origin is None else args.origin,
        "x0": args.x0,
        "alpha": args.alpha, "p": args.p, "levels": args.levels,
    })
    record = {**est.to_record(), "in_class": w.in_class}
    if args.q is not None:
        record["apq"] = wt.apq_constant(w, args.p, args.q, fam).to_record()
        record["sawyer_wheeden"] = wt.sawyer_wheeden_constant(
            w, w, args.s, args.p, args.q, fam
        )
    manifest = Manifest(Path(args.out), "weights", _flags(args), None)
    manifest.emit(record, "weights.json")
    manifest.close()
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_poincare(args) -> int:
    est = _poincare_estimate({
        "n": args.n, "N": args.N, "L": args.L,
        "omega": {"type": args.omega, "center": args.center, "radius": args.radius,
                  "lo": [0.75] * args.n if args.lo is None else args.lo,
                  "hi": [1.25] * args.n if args.hi is None else args.hi},
        "s": args.s, "p": args.p, "alpha": args.alpha, "seed": args.seed,
    })
    record = {**est.to_record(), "s": args.s, "p": args.p, "omega": args.omega}
    manifest = Manifest(Path(args.out), "poincare", _flags(args), args.seed)
    manifest.emit(record, "poincare.json")
    manifest.close()
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if est.converged else 1


def _cmd_solve(args) -> int:
    cfg_path = Path(args.config)
    config = json.loads(cfg_path.read_text())
    marks = [time.perf_counter()]
    _validate(config, _validators()["SOLVE_VALIDATOR"])
    marks.append(time.perf_counter())
    prob, ustar = _build_problem(config, cfg_path.parent)
    marks.append(time.perf_counter())
    scfg = config.get("solver", {})
    method = scfg.get("method", sv.default_method(prob.p))
    # pass only the keys the config sets, so every default lives in the
    # solver; max_iter bounds CG iterations for pcg and outer steps otherwise
    kwargs = {"tol": scfg["tol"]} if "tol" in scfg else {}
    if "max_iter" in scfg:
        kwargs["max_iter" if method == "pcg" else "max_outer"] = scfg["max_iter"]
    if method == "pcg":
        report = sv.solve_linear(prob, **kwargs)
    else:
        report = sv.solve_plaplace(prob, method=method, **kwargs)
    rec = report.to_record()
    rec["residual_final"] = sv.weak_residual_norm(prob, report.solution)
    if ustar is not None:
        num = np.sqrt(np.sum((report.solution.values - ustar.values) ** 2))
        den = np.sqrt(np.sum(ustar.values**2))
        rec["manufactured_relative_error"] = float(num / den)
    marks.append(time.perf_counter())
    manifest = Manifest(Path(args.out), "solve", config, scfg.get("seed"))
    manifest.emit(rec, "solve_report.json")
    manifest.emit(report.solution, "solution.bin")
    manifest.emit((["iteration", "residual", "energy"], report.history_rows()),
                  "history.csv")
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


#: operator -> (the one flag it takes: its order, or rt's component; how
#: many input files it takes, "n" for one per axis; a map from the input
#: fields and that flag's value to the output fields by file stem)
_OPERATORS = {
    "grad": ("s", 1, lambda fs, order: {
        f"gradient_{i}": c
        for i, c in enumerate(fo.riesz_gradient(fs[0], order).components)}),
    "div": ("s", "n", lambda fs, order: {"divergence": fo.fractional_divergence(
        VectorField(fs[0].grid, tuple(fs)), order)}),
    "riesz": ("sigma", 1, lambda fs, order: {"riesz": fo.riesz_potential(fs[0], order)}),
    "bessel": ("sigma", 1, lambda fs, order: {"bessel": fo.bessel_potential(fs[0], order)}),
    "flap": ("sigma", 1, lambda fs, order: {"flap": fo.fractional_laplacian(fs[0], order)}),
    "rt": ("component", 1, lambda fs, j: {"rt": fo.riesz_transform(fs[0], j)}),
    "Ts": ("s", 1, lambda fs, order: {"Ts": fo.ts_multiplier(fs[0], order)}),
    "Gs": ("s", 1, lambda fs, order: {"Gs": fo.gs_multiplier(fs[0], order)}),
}


def _cmd_op(args) -> int:
    fields = [read_field(p) for p in args.input]
    for f in fields[1:]:
        if f.grid != fields[0].grid:
            raise ConfigError("input fields live on different grids")
    name = args.operator
    needs, count, fn = _OPERATORS[name]
    if count == "n":
        count = fields[0].grid.spec.n
    if len(fields) != count:
        raise ConfigError(f"operator {name} takes {count} input file(s), got {len(fields)}")
    for flag in ("s", "sigma", "component"):
        if flag != needs and getattr(args, flag) is not None:
            raise ConfigError(f"operator {name} takes no --{flag}")
    value = getattr(args, needs)
    if value is None:
        raise ConfigError(f"operator {name} needs --{needs}")
    # the operators check their order and component: apply them before
    # the output directory is made
    result = fn(fields, value)
    manifest = Manifest(Path(args.out), "op", _flags(args), None)
    for stem, field in result.items():
        manifest.emit(field, f"{stem}.bin")
        if args.csv:
            manifest.emit(field, f"{stem}.csv")
    manifest.close()
    print(f"wrote {len(result)} field(s) to {manifest.out}")
    return 0


def _sweep_case(task: str, case: dict) -> dict:
    if task == "weights":
        w, _, est = _weights_estimate(case)
        return {"constant": est.value, "in_class": w.in_class}
    est = _poincare_estimate(case)
    return {"constant": est.constant, "converged": est.converged,
            "product_shape": est.constant * (1.0 - 2.0 ** (-case["s"]))}


def _cmd_sweep(args) -> int:
    cfg_path = Path(args.config)
    config = json.loads(cfg_path.read_text())
    _validate(config, _validators()["SWEEP_VALIDATOR"])
    task = config["task"]
    keys = sorted(config["vary"].keys())
    cases = []
    for combo in itertools.product(*(config["vary"][k] for k in keys)):
        case = dict(config["base"])
        case.update(dict(zip(keys, combo)))
        case_id = ",".join(f"{k}={v}" for k, v in zip(keys, combo))
        _validate(case, _validators()["SWEEP_CASE_VALIDATORS"][task],
                  f"sweep case '{case_id}'")
        cases.append((case_id, case))
    manifest = Manifest(Path(args.out), "sweep", config, None)
    ordered = {cid: _sweep_case(task, c) for cid, c in sorted(cases)}
    path = manifest.emit(ordered, "sweep.json")
    fields = sorted(next(iter(ordered.values())))
    manifest.emit((["case", *fields],
                   [[cid] + [repr(rec[k]) for k in fields] for cid, rec in ordered.items()]),
                  "sweep.csv")
    manifest.close()
    print(f"{len(cases)} cases -> {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each subcommand's handler is bound at build time."""
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
    w.add_argument("--alpha", type=float, required=True)
    w.add_argument("--p", type=float, required=True)
    w.add_argument("--q", type=float, default=None)
    w.add_argument("--s", type=float, default=0.5)
    w.add_argument("--levels", type=int, default=6)
    w.add_argument("--n", type=int, default=1)
    w.add_argument("--N", type=int, default=512)
    w.add_argument("--L", type=float, default=2.0)
    w.add_argument("--origin", type=float, nargs="*", default=None,
                   help="lower box corner (default -1 per axis)")
    w.add_argument("--x0", type=float, nargs="*", default=None,
                   help="weight centre (default the box centre)")
    w.add_argument("--out", default="weights_out")
    w.set_defaults(func=_cmd_weights)

    pc = sub.add_parser("poincare", help="estimate the Poincare constant")
    pc.add_argument("--omega", choices=["ball", "box"], default="box")
    pc.add_argument("--center", type=float, nargs="*", default=None,
                    help="ball and weight centre (default the box centre)")
    pc.add_argument("--radius", type=float, default=0.25)
    pc.add_argument("--lo", type=float, nargs="*", default=None,
                    help="box lower corner (default 0.75 per axis)")
    pc.add_argument("--hi", type=float, nargs="*", default=None,
                    help="box upper corner (default 1.25 per axis)")
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
