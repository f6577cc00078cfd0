"""CLI subcommand, serialization, and determinism tests."""

import argparse
import functools
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from rieszgrad.grid import GridSpec, ScalarField, bump, make_grid, read_field, write_field
from rieszgrad import cli
from rieszgrad.solver import SolveReport


def run(args):
    return cli.main([str(a) for a in args])


#: A valid 1D p = 2 manufactured problem; tests derive malformed configs from it.
SOLVE_CFG = {
    "grid": {"n": 1, "N": 128, "L": 2.0},
    "omega": {"type": "box", "lo": [0.6], "hi": [1.4]},
    "s": 0.5,
    "p": 2.0,
    "coefficient": {"kind": "scalar", "family": "constant"},
    "rhs": {"kind": "manufactured", "center": [1.0], "radius": 0.3},
    "solver": {"method": "pcg"},
}


def with_keys(base, **changes):
    """A copy of ``base`` with keys replaced; a value of None drops the key."""
    cfg = dict(base)
    for key, value in changes.items():
        if value is None:
            del cfg[key]
        else:
            cfg[key] = value
    return cfg


class TestVerify:
    def test_quick_passes_and_is_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "v1"
        out2 = tmp_path / "v2"
        assert run(["verify", "--quick", "--seed", 0, "--out", out1]) == 0
        assert run(["verify", "--quick", "--seed", 0, "--out", out2]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["artifacts"] == m2["artifacts"]
        assert m1["config_hash"] == m2["config_hash"]
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text


class TestWeights:
    def test_power_half_constant(self, tmp_path, capsys):
        out = tmp_path / "w"
        code = run(["weights", "--alpha", 0.5, "--p", 2,
                    "--levels", 7, "--N", 512, "--out", out])
        assert code == 0
        rec = json.loads((out / "weights.json").read_text())
        assert abs(rec["constant"] - 4.0 / 3.0) <= 0.02 * 4.0 / 3.0
        assert rec["in_class"] is True
        # the hash covers every flag but --out, and the flags name no
        # weight family
        params = {"command": "weights", "alpha": 0.5, "p": 2.0, "q": None,
                  "s": 0.5, "levels": 7, "n": 1, "N": 512, "L": 2.0,
                  "origin": None, "x0": None}
        blob = json.dumps(params, sort_keys=True).encode()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == hashlib.sha256(blob).hexdigest()

    def test_family_flag_refused(self, tmp_path, capsys):
        # the weight is always a power weight: there is nothing to select
        out = tmp_path / "w"
        with pytest.raises(SystemExit) as exc:
            run(["weights", "--family", "power", "--alpha", 0.5, "--p", 2,
                 "--out", out])
        assert exc.value.code == 2
        assert "--family" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--p", "inf"], ["--p", "nan"],
                                       ["--p", 2, "--q", "inf"]])
    def test_non_finite_exponent_refused(self, tmp_path, capsys, flags):
        # every A_p constant is at least 1, and inf is not valid JSON: no
        # estimate is made and no artifact written
        out = tmp_path / "w"
        assert run(["weights", "--alpha", 0.5, *flags, "--out", out]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_follow_n(self, tmp_path):
        # origin -1 and the box centre per axis, as if given
        base = ["weights", "--n", 2, "--N", 64, "--alpha", 0.5, "--p", 2, "--levels", 4]
        outs = [tmp_path / "default", tmp_path / "given"]
        assert run([*base, "--out", outs[0]]) == 0
        assert run([*base, "--origin", -1, -1, "--x0", 0, 0, "--out", outs[1]]) == 0
        texts = [(out / "weights.json").read_text() for out in outs]
        assert texts[0] == texts[1]
        rec = json.loads(texts[0])
        assert rec["family"]["x0"] == [0.0, 0.0]
        assert rec["cube_family"]["lo"] == [-1.0, -1.0]
        assert rec["in_class"] is True and rec["constant"] >= 1.0


class TestSolve:
    def test_manufactured_config(self, tmp_path):
        cfg = {
            "grid": {"n": 1, "N": 128, "L": 2.0},
            "omega": {"type": "box", "lo": [0.6], "hi": [1.4]},
            "s": 0.5,
            "p": 2.0,
            "coefficient": {"kind": "scalar", "family": "constant"},
            "rhs": {"kind": "manufactured", "center": [1.0], "radius": 0.3},
            "solver": {"method": "pcg", "tol": 1e-11},
        }
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert run(["solve", "--config", path, "--out", out]) == 0
        rec = json.loads((out / "solve_report.json").read_text())
        assert rec["converged"] is True
        assert rec["manufactured_relative_error"] <= 1e-8
        sol = read_field(out / "solution.bin")
        assert sol.grid.spec.N == 128
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "iteration,residual,energy"

    @pytest.mark.parametrize("p,method", [(3.0, "newton"), (1.5, "kacanov")])
    def test_nonlinear_default_method(self, tmp_path, p, method):
        cfg = {
            "grid": {"n": 1, "N": 128, "L": 2.0},
            "omega": {"type": "box", "lo": [0.6], "hi": [1.4]},
            "s": 0.5,
            "p": p,
            "coefficient": {"kind": "scalar", "family": "constant"},
            "rhs": {"kind": "manufactured", "center": [1.0], "radius": 0.3},
        }
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert run(["solve", "--config", path, "--out", out]) == 0
        rec = json.loads((out / "solve_report.json").read_text())
        assert rec["method"] == method and rec["converged"] is True
        assert rec["stalled"] is False
        assert type(rec["inner_iterations"]) is int and rec["inner_iterations"] > 0

    @pytest.mark.parametrize("p,method", [(3.0, "newton"), (1.5, "kacanov")])
    def test_step_lengths_recorded_deterministically(self, tmp_path, p, method):
        cfg = {
            "grid": {"n": 1, "N": 128, "L": 2.0},
            "omega": {"type": "box", "lo": [0.6], "hi": [1.4]},
            "s": 0.5,
            "p": p,
            "coefficient": {"kind": "scalar", "family": "power", "alpha": 0.5},
            "rhs": {"kind": "manufactured", "center": [1.0], "radius": 0.3},
            "solver": {"method": method},
        }
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(cfg))
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(["solve", "--config", path, "--out", out]) == 0
        for name in ("solve_report.json", "history.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        rec = json.loads((outs[0] / "solve_report.json").read_text())
        steps = rec["step_lengths"]
        assert len(steps) == rec["iterations"] > 0
        assert all(isinstance(t, float) and t > 0.0 for t in steps)
        rows = rec["steps"]
        assert len(rows) == rec["iterations"]
        assert all(set(row) == {"inner_iterations", "inner_converged",
                                "inner_tol", "eps"}
                   for row in rows)
        assert sum(row["inner_iterations"] for row in rows) < rec["inner_iterations"]
        history = (outs[0] / "history.csv").read_text().splitlines()
        assert history[0] == "iteration,residual,energy"

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = {"grid": {"n": 1, "N": 128, "L": -1.0},
               "omega": {"type": "box", "lo": [0.6], "hi": [1.4]},
               "s": 0.5, "p": 2.0,
               "coefficient": {"kind": "scalar", "family": "constant"},
               "rhs": {"kind": "modes", "modes": []}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run(["solve", "--config", path, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "grid/L" in err

    @pytest.mark.parametrize("section,value,key", [
        ("omega", {"type": "box"}, "lo"),
        ("omega", {"type": "ball"}, "center"),
        ("rhs", {"kind": "manufactured"}, "center"),
        ("rhs", {"kind": "modes"}, "modes"),
        ("rhs", {"kind": "field"}, "path"),
    ])
    def test_kind_dependent_key_missing_exit_2(self, tmp_path, capsys,
                                               section, value, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(with_keys(SOLVE_CFG, **{section: value})))
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"at '{section}'" in err and f"'{key}' is a required property" in err
        assert not out.exists()

    @pytest.mark.parametrize("section,value", [
        ("rhs", {"kind": "none"}),
        ("g", {"kind": "manufactured"}),
    ])
    def test_field_kind_it_cannot_build_refused_by_schema(self, tmp_path, capsys,
                                                          section, value):
        # rhs needs a field and g has no operator to manufacture one
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(with_keys(SOLVE_CFG, **{section: value})))
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"config invalid at '{section}/kind'" in err
        assert f"{value['kind']!r} is not one of" in err
        assert not out.exists()

    @pytest.mark.parametrize("section,value,key", [
        ("solver", {"method": "pcg", "seed": 0}, "seed"),
        ("g", {"kind": "none", "center": [1.0]}, "center"),
        ("g", {"kind": "none", "radius": 0.3}, "radius"),
        ("g", {"kind": "modes", "modes": [], "sharpness": 1.0}, "sharpness"),
    ])
    def test_key_nothing_reads_exit_2(self, tmp_path, capsys, section, value, key):
        # no solve draws a random number, and only a manufactured rhs reads
        # a bump's keys
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(with_keys(SOLVE_CFG, **{section: value})))
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"config invalid at '{section}'" in err and f"'{key}' was unexpected" in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["NaN", "Infinity"])
    @pytest.mark.parametrize("p,method", [(2.0, "pcg"), (3.0, "newton")])
    def test_tolerance_the_schema_admits_refused(self, tmp_path, capsys, tol, p, method):
        # json reads both and exclusiveMinimum admits both; "Infinity" once
        # exited 0, converged after one CG iteration at a manufactured error
        # of 0.28
        cfg = json.dumps(with_keys(SOLVE_CFG, p=p, solver={"method": method, "tol": 1.0}))
        path = tmp_path / "bad.json"
        path.write_text(cfg.replace('"tol": 1.0', f'"tol": {tol}'))
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: tol must be finite and positive, got {float(tol)}\n")
        assert not out.exists()

    def test_infinite_ellipticity_constant_refused(self, tmp_path, capsys):
        # exclusiveMinimum admits Infinity; with c2 = inf the sampled upper
        # ellipticity test passes for any matrix, and the solve exited 0
        cfg = {
            "grid": {"n": 2, "N": 16, "L": 2.0},
            "omega": {"type": "box", "lo": [0.6, 0.6], "hi": [1.4, 1.4]},
            "s": 0.5,
            "p": 2.0,
            "coefficient": {"kind": "matrix", "family": "constant",
                            "c1": 1.0, "c2": 2.0},
            "rhs": {"kind": "manufactured", "center": [1.0, 1.0], "radius": 0.3},
            "solver": {"method": "pcg"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg).replace('"c2": 2.0', '"c2": Infinity'))
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: matrix problems need ellipticity constants 0 < c1 <= c2 "
            "< inf, got c1 = 1.0, c2 = inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("size", [3, 24])
    def test_truncated_rhs_field_exit_2(self, tmp_path, capsys, size):
        g = make_grid(GridSpec(n=1, N=128, L=2.0))
        write_field(bump(g, [1.0], 0.3), tmp_path / "f.bin")
        (tmp_path / "cut.bin").write_bytes((tmp_path / "f.bin").read_bytes()[:size])
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(with_keys(
            SOLVE_CFG, rhs={"kind": "field", "path": "cut.bin"})))
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == 2
        assert "error: field header is cut short" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["rhs", "g"])
    def test_mode_of_wrong_dimension_exit_2(self, tmp_path, capsys, section):
        modes = {"kind": "modes", "modes": [{"k": [1, 2], "amplitude": 0.1}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(with_keys(SOLVE_CFG, **{section: modes})))
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {section} mode has wrong dimension\n"
        assert not (out / "solution.bin").exists()

    @pytest.mark.parametrize("g", [
        {"kind": "modes", "modes": [{"k": [3], "amplitude": 5.0}]},
        {"kind": "field", "path": "g.bin"},
    ])
    def test_g_with_manufactured_rhs_exit_2(self, tmp_path, capsys, g):
        # a manufactured problem has g = 0: a given g would be dropped
        grid = make_grid(GridSpec(n=1, N=128, L=2.0))
        write_field(bump(grid, [0.2], 0.1), tmp_path / "g.bin")
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(with_keys(SOLVE_CFG, g=g)))
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: a manufactured rhs solves with g = 0: give g only with an "
            "rhs of kind field or modes\n")
        assert not out.exists()

    def test_manifest_timings(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(SOLVE_CFG))
        out = tmp_path / "s"
        assert run(["solve", "--config", path, "--out", out]) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        assert set(timings) == {"validate", "build", "solve", "write"}
        assert all(type(t) is float and math.isfinite(t) and t >= 0.0
                   for t in timings.values())
        assert "timings" not in (out / "solve_report.json").read_text()

    def test_missing_config_exit_2(self, tmp_path):
        assert run(["solve", "--config", tmp_path / "nope.json",
                    "--out", tmp_path / "o"]) == 2

    def test_matrix_coefficient_with_exterior_data(self, tmp_path):
        cfg = {
            "grid": {"n": 2, "N": 32, "L": 2.0},
            "omega": {"type": "ball", "center": [1.0, 1.0], "radius": 0.45},
            "s": 0.5,
            "p": 2.0,
            "coefficient": {"kind": "matrix", "family": "power", "alpha": 0.5,
                            "x0": [1.0, 1.0], "rank_one_scale": 0.5,
                            "c1": 1.0, "c2": 1.5},
            "rhs": {"kind": "modes", "modes": [{"k": [1, 0], "amplitude": 1.0}]},
            "g": {"kind": "modes", "modes": [{"k": [0, 1], "amplitude": 0.05}]},
            "solver": {"method": "pcg", "tol": 1e-10},
        }
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "m"
        assert run(["solve", "--config", path, "--out", out]) == 0
        rec = json.loads((out / "solve_report.json").read_text())
        assert rec["converged"] is True
        assert rec["residual_final"] <= 1e-8

    @pytest.mark.parametrize("p,method", [(2.0, "pcg"), (3.0, "newton")])
    def test_max_iter_caps_the_solve(self, tmp_path, p, method):
        # CG iterations for pcg, outer steps for newton
        cfg = with_keys(SOLVE_CFG, p=p, solver={"method": method, "max_iter": 1})
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert run(["solve", "--config", path, "--out", out]) == 1
        rec = json.loads((out / "solve_report.json").read_text())
        assert rec["method"] == method
        assert rec["iterations"] == 1 and rec["converged"] is False

    def test_stop_at_the_certificate_floor_exits_1(self, tmp_path):
        # the benchmark's `1d p=1.3 constant` config: its certificate stalls
        # at a round-off floor above tol, so the solve stops unconverged
        cfg = with_keys(SOLVE_CFG, grid={"n": 1, "N": 256, "L": 2.0},
                        omega={"type": "box", "lo": [0.55], "hi": [1.45]}, p=1.3,
                        rhs={"kind": "manufactured", "center": [1.0],
                             "radius": 0.3, "sharpness": 1.0},
                        solver=None)
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert run(["solve", "--config", path, "--out", out]) == 1
        rec = json.loads((out / "solve_report.json").read_text())
        assert rec["method"] == "kacanov" and rec["converged"] is False
        assert rec["stop_reason"] == "certificate at its round-off floor"
        assert rec["certificate_floor"] >= rec["tol"] and rec["stalled"] is True
        assert rec["iterations"] <= 50

    def test_full_omega(self, tmp_path):
        cfg = with_keys(SOLVE_CFG, omega={"type": "full"},
                        rhs={"kind": "modes", "modes": [{"k": [2], "amplitude": 1.0}]})
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert run(["solve", "--config", path, "--out", out]) == 0
        rec = json.loads((out / "solve_report.json").read_text())
        assert rec["converged"] is True and rec["residual_final"] <= 1e-8
        # on the whole torus the solution is mean-free
        assert abs(np.mean(read_field(out / "solution.bin").values)) <= 1e-12


class TestOp:
    def test_grad_div_roundtrip(self, tmp_path):
        g = make_grid(GridSpec(n=1, N=128, L=1.0))
        u = bump(g, [0.5], 0.2)
        write_field(u, tmp_path / "u.bin")
        out1 = tmp_path / "g"
        assert run(["op", "grad", "--in", tmp_path / "u.bin", "--s", 0.5,
                    "--out", out1]) == 0
        grad0 = read_field(out1 / "gradient_0.bin")
        out2 = tmp_path / "d"
        assert run(["op", "div", "--in", out1 / "gradient_0.bin", "--s", 0.5,
                    "--out", out2]) == 0
        div = read_field(out2 / "divergence.bin")
        from rieszgrad import fracops as fo
        expected = fo.fractional_divergence(fo.riesz_gradient(u, 0.5), 0.5)
        assert np.max(np.abs(div.values - expected.values)) <= 1e-12 * np.max(
            np.abs(expected.values)
        )

    def test_bessel_inverse_pair(self, tmp_path):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        u = bump(g, [0.5], 0.2)
        write_field(u, tmp_path / "u.bin")
        assert run(["op", "bessel", "--in", tmp_path / "u.bin", "--sigma", 0.7,
                    "--out", tmp_path / "b1"]) == 0
        assert run(["op", "bessel", "--in", tmp_path / "b1" / "bessel.bin",
                    "--sigma", -0.7, "--out", tmp_path / "b2"]) == 0
        v = read_field(tmp_path / "b2" / "bessel.bin")
        assert np.max(np.abs(v.values - u.values)) <= 1e-11

    def test_rt_requires_component(self, tmp_path, capsys):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        write_field(bump(g, [0.5], 0.2), tmp_path / "u.bin")
        assert run(["op", "rt", "--in", tmp_path / "u.bin",
                    "--out", tmp_path / "r"]) == 2
        assert not (tmp_path / "r").exists()

    def test_div_needs_n_components(self, tmp_path):
        g = make_grid(GridSpec(n=2, N=16, L=1.0))
        write_field(bump(g, [0.5, 0.5], 0.2), tmp_path / "u.bin")
        assert run(["op", "div", "--in", tmp_path / "u.bin", "--s", 0.5,
                    "--out", tmp_path / "d"]) == 2
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("name,flags", [
        ("grad", ["--s", 0.5]),
        ("div", ["--s", 0.5]),
        ("riesz", ["--sigma", 0.5]),
        ("bessel", ["--sigma", 0.5]),
        ("flap", ["--sigma", 1.0]),
        ("rt", ["--component", 0]),
        ("Ts", ["--s", 0.5]),
        ("Gs", ["--s", 0.5]),
    ])
    def test_input_count_checked_before_output(self, tmp_path, capsys, name, flags):
        # in 1D every operator, div too, takes exactly one input file
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        write_field(bump(g, [0.5], 0.2), tmp_path / "a.bin")
        write_field(bump(g, [0.4], 0.2), tmp_path / "b.bin")
        out = tmp_path / "o"
        assert run(["op", name, "--in", tmp_path / "a.bin", tmp_path / "b.bin",
                    *flags, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: operator {name} takes 1 input file(s), got 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("name,flags,message", [
        ("grad", [], "operator grad needs --s"),
        ("div", [], "operator div needs --s"),
        ("riesz", [], "operator riesz needs --sigma"),
        ("rt", ["--component", 1], "riesz_transform needs a component index in [0, 1)"),
        ("grad", ["--s", 1.5], "riesz_gradient needs s in (0, 1), got 1.5"),
        ("flap", ["--sigma", 3], "fractional_laplacian needs order in (0, 2), got 3.0"),
        ("grad", ["--sigma", 0.5], "operator grad takes no --sigma"),
        ("grad", ["--s", 0.5, "--sigma", 0.5], "operator grad takes no --sigma"),
        ("bessel", ["--s", 0.5], "operator bessel takes no --s"),
        ("bessel", ["--s", 0.5, "--sigma", 0.7], "operator bessel takes no --s"),
        ("rt", ["--component", 0, "--s", 0.5], "operator rt takes no --s"),
        ("grad", ["--s", 0.5, "--component", 0], "operator grad takes no --component"),
        ("bessel", ["--sigma", "nan"], "bessel_potential needs a finite order, got nan"),
        ("bessel", ["--sigma", "inf"], "bessel_potential needs a finite order, got inf"),
    ])
    def test_arguments_checked_before_output(self, tmp_path, capsys, name,
                                             flags, message):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        write_field(bump(g, [0.5], 0.2), tmp_path / "u.bin")
        out = tmp_path / "o"
        assert run(["op", name, "--in", tmp_path / "u.bin", *flags,
                    "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("size", [3, 24, 32])
    def test_truncated_field_header_exit_2(self, tmp_path, capsys, size):
        # 3 bytes: short of n and N; 24: cut after L; 32: inside the origin
        g = make_grid(GridSpec(n=2, N=16, L=1.0))
        write_field(bump(g, [0.5, 0.5], 0.2), tmp_path / "u.bin")
        cut = tmp_path / "cut.bin"
        cut.write_bytes((tmp_path / "u.bin").read_bytes()[:size])
        out = tmp_path / "o"
        assert run(["op", "grad", "--in", cut, "--s", 0.5, "--out", out]) == 2
        assert "error: field header is cut short" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_origin_field_exit_2(self, tmp_path, capsys):
        # a hand-made 1D N = 8 file whose header origin is NaN
        header = struct.pack("<qqd", 1, 8, 1.0) + struct.pack("<d", math.nan)
        (tmp_path / "u.bin").write_bytes(header + np.ones(8).astype("<f8").tobytes())
        out = tmp_path / "o"
        assert run(["op", "grad", "--in", tmp_path / "u.bin", "--s", 0.5,
                    "--csv", "--out", out]) == 2
        assert "error: origin entries must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,flags,outfile",
        [
            ("riesz", ["--sigma", 0.5], "riesz.bin"),
            ("flap", ["--sigma", 1.0], "flap.bin"),
            ("rt", ["--component", 0], "rt.bin"),
            ("Ts", ["--s", 0.5], "Ts.bin"),
            ("Gs", ["--s", 0.5], "Gs.bin"),
        ],
    )
    def test_every_operator_name(self, tmp_path, name, flags, outfile):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        write_field(bump(g, [0.5], 0.2), tmp_path / "u.bin")
        out = tmp_path / "o"
        assert run(["op", name, "--in", tmp_path / "u.bin", *flags,
                    "--out", out, "--csv"]) == 0
        result = read_field(out / outfile)
        assert np.all(np.isfinite(result.values))
        assert (out / (outfile[:-4] + ".csv")).exists()


class TestPoincareCli:
    def test_ball_weighted(self, tmp_path):
        out = tmp_path / "p"
        code = run(["poincare", "--omega", "ball", "--center", 1.0,
                    "--radius", 0.3, "--s", 0.5, "--alpha", 0.5,
                    "--N", 128, "--out", out])
        assert code == 0
        rec = json.loads((out / "poincare.json").read_text())
        assert rec["converged"] is True
        assert rec["constant"] > 0

    def test_general_p_converges(self, tmp_path):
        out = tmp_path / "p3"
        assert run(["poincare", "--s", 0.5, "--p", 3, "--out", out]) == 0

        def refuse(name):
            raise ValueError(f"non-finite {name} in poincare.json")

        rec = json.loads((out / "poincare.json").read_text(), parse_constant=refuse)
        assert rec["converged"] is True
        assert rec["residual"] < 1e-8


    @pytest.mark.parametrize("flags,given", [
        ([], ["--lo", 0.75, 0.75, "--hi", 1.25, 1.25]),
        (["--omega", "ball", "--alpha", 0.5], ["--center", 1.0, 1.0]),
    ])
    def test_defaults_follow_n(self, tmp_path, flags, given):
        # lo/hi repeat 0.75/1.25 per axis; a ball and its weight sit at the
        # box centre
        base = ["poincare", "--n", 2, "--N", 32, "--s", 0.5, *flags]
        outs = [tmp_path / "default", tmp_path / "given"]
        assert run([*base, "--out", outs[0]]) == 0
        assert run([*base, *given, "--out", outs[1]]) == 0
        texts = [(out / "poincare.json").read_text() for out in outs]
        assert texts[0] == texts[1]
        rec = json.loads(texts[0])
        assert rec["converged"] is True and rec["constant"] > 0


class TestOnePathPerTask:
    """A subcommand and a one-case sweep with the same parameters run the
    same estimate."""

    def test_weights(self, tmp_path):
        assert run(["weights", "--alpha", 0.5, "--p", 2, "--levels", 5, "--N", 256,
                    "--out", tmp_path / "w"]) == 0
        rec = json.loads((tmp_path / "w" / "weights.json").read_text())
        base = {"n": 1, "N": 256, "L": 2.0, "origin": [-1.0], "x0": [0.0],
                "p": 2.0, "levels": 5}
        case = run_sweep(tmp_path, {"task": "weights", "base": base,
                                    "vary": {"alpha": [0.5]}})["alpha=0.5"]
        assert case == {"constant": rec["constant"], "in_class": rec["in_class"]}

    def test_poincare(self, tmp_path):
        assert run(["poincare", "--s", 0.5, "--N", 128, "--alpha", 0.5,
                    "--out", tmp_path / "p"]) == 0
        rec = json.loads((tmp_path / "p" / "poincare.json").read_text())
        base = {"n": 1, "N": 128, "L": 2.0, "p": 2.0, "alpha": 0.5, "seed": 0,
                "omega": {"type": "box", "lo": [0.75], "hi": [1.25]}}
        case = run_sweep(tmp_path, {"task": "poincare", "base": base,
                                    "vary": {"s": [0.5]}})["s=0.5"]
        assert case["constant"] == rec["constant"]
        assert case["converged"] is rec["converged"] is True


def run_sweep(tmp_path, cfg):
    """Run a sweep config and return its sweep.json."""
    path = tmp_path / "sweep_cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["sweep", "--config", path, "--out", tmp_path / "sw"]) == 0
    return json.loads((tmp_path / "sw" / "sweep.json").read_text())


class TestDeterminism:
    """Criterion 10 beyond verify: the same arguments give the same
    artifact bytes."""

    @pytest.mark.parametrize("command", ["weights", "poincare", "sweep", "op"])
    def test_same_arguments_same_artifacts(self, tmp_path, command):
        if command == "weights":
            args = ["weights", "--alpha", 0.5, "--p", 2, "--q", 4, "--levels", 5,
                    "--N", 256]
        elif command == "poincare":
            args = ["poincare", "--s", 0.5, "--p", 3, "--N", 128, "--alpha", 0.5]
        elif command == "sweep":
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps({
                "task": "poincare",
                "base": {"n": 1, "N": 64, "L": 2.0, "p": 2.0,
                         "omega": {"type": "ball", "center": [1.0], "radius": 0.3}},
                "vary": {"s": [0.25, 0.75], "alpha": [None, 0.5]},
            }))
            args = ["sweep", "--config", path]
        else:
            g = make_grid(GridSpec(n=2, N=16, L=1.0))
            write_field(bump(g, [0.5, 0.5], 0.2), tmp_path / "u.bin")
            args = ["op", "grad", "--in", tmp_path / "u.bin", "--s", 0.5, "--csv"]
        manifests = []
        for name in ("a", "b"):
            assert run([*args, "--out", tmp_path / name]) == 0
            manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"]
        assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
        assert len(manifests[0]["artifacts"]) >= 1


class TestConfigHash:
    """config_hash covers every flag but --out: runs that differ in one
    flag, and so may differ in result, get different hashes."""

    @pytest.mark.parametrize("base,a,b", [
        (["verify", "--quick"], ["--seed", 0], ["--seed", 1]),
        (["weights", "--alpha", 0.5, "--p", 2, "--N", 64, "--levels", 3],
         ["--x0", 0.0], ["--x0", 0.3]),
        (["weights", "--alpha", 0.5, "--p", 2, "--N", 64, "--levels", 3],
         [], ["--origin", -1.5]),
        (["weights", "--alpha", 0.5, "--p", 2, "--q", 4, "--N", 64, "--levels", 3],
         [], ["--s", 0.25]),
        (["poincare", "--s", 0.5, "--N", 64], ["--lo", 0.7], ["--lo", 0.75]),
        (["poincare", "--s", 0.5, "--N", 64], [], ["--hi", 1.3]),
        (["poincare", "--s", 0.5, "--N", 64, "--omega", "ball"], [], ["--center", 1.05]),
        (["poincare", "--s", 0.5, "--N", 64, "--omega", "ball"], [], ["--radius", 0.3]),
        (["op", "grad", "--s", 0.5], [], ["--csv"]),
    ], ids=["verify-seed", "weights-x0", "weights-origin", "weights-s",
            "poincare-lo", "poincare-hi", "poincare-center", "poincare-radius",
            "op-csv"])
    def test_one_flag_changes_hash(self, tmp_path, base, a, b):
        if base[0] == "op":
            g = make_grid(GridSpec(n=1, N=64, L=1.0))
            write_field(bump(g, [0.5], 0.2), tmp_path / "u.bin")
            base = [*base, "--in", tmp_path / "u.bin"]
        hashes = []
        for name, flags in (("a", a), ("again", a), ("b", b)):
            out = tmp_path / name
            assert run([*base, *flags, "--out", out]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1] != hashes[2]


class TestManifestStart:
    """A manifest's started is stamped when the command begins, before its
    work, and finished after it."""

    @pytest.mark.parametrize("command", ["verify", "weights", "poincare", "solve", "op"])
    def test_started_before_the_work(self, tmp_path, monkeypatch, command):
        # a fake clock that stands still except where the command's work
        # moves it on by an hour
        clock = [1.0e9]
        gmtime = time.gmtime
        monkeypatch.setattr(time, "gmtime", lambda secs=None: gmtime(clock[0]))

        def hour_long(fn):
            def work(*args, **kwargs):
                clock[0] += 3600.0
                return fn(*args, **kwargs)
            return work

        out = tmp_path / "o"
        argv = {
            "verify": ["verify", "--quick"],
            "weights": ["weights", "--alpha", 0.5, "--p", 2, "--N", 64, "--levels", 3],
            "poincare": ["poincare", "--s", 0.5, "--N", 64],
            "solve": ["solve", "--config", tmp_path / "prob.json"],
            "op": ["op", "grad", "--s", 0.5, "--in", tmp_path / "u.bin"],
        }[command]
        module, name = {
            "verify": (cli.suite_mod, "run_suite"),
            "weights": (cli, "_weights_estimate"),
            "poincare": (cli, "_poincare_estimate"),
            "solve": (cli.sv, "solve_linear"),
            "op": (cli.fo, "riesz_gradient"),
        }[command]
        if command == "verify":
            # the suite's own results do not matter here
            monkeypatch.setattr(module, name, hour_long(lambda **kwargs: []))
        else:
            monkeypatch.setattr(module, name, hour_long(getattr(module, name)))
        (tmp_path / "prob.json").write_text(json.dumps(SOLVE_CFG))
        write_field(bump(make_grid(GridSpec(n=1, N=64, L=1.0)), [0.5], 0.2),
                    tmp_path / "u.bin")
        assert run([*argv, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["started"] == time.strftime("%Y-%m-%dT%H:%M:%S", gmtime(1.0e9))
        assert manifest["finished"] == time.strftime("%Y-%m-%dT%H:%M:%S",
                                                     gmtime(1.0e9 + 3600.0))


class TestSweep:
    def test_weights_sweep(self, tmp_path):
        cfg = {
            "task": "weights",
            "base": {"n": 1, "N": 256, "L": 2.0, "origin": [-1.0],
                     "x0": [0.0], "p": 2.0, "levels": 5},
            "vary": {"alpha": [0.0, 0.5]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sw"
        assert run(["sweep", "--config", path, "--out", out]) == 0
        rec = json.loads((out / "sweep.json").read_text())
        assert abs(rec["alpha=0.0"]["constant"] - 1.0) < 1e-12
        assert rec["alpha=0.5"]["constant"] > 1.2

    def test_case_checked_before_output(self, tmp_path, capsys):
        cfg = {"task": "weights", "base": {"n": 1}, "vary": {"alpha": [0.5]}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sw"
        assert run(["sweep", "--config", path, "--out", out]) == 2
        assert "'N' is a required property" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_vary_list_refused_before_output(self, tmp_path, capsys):
        cfg = {"task": "weights", "base": _WEIGHTS_BASE, "vary": {"alpha": []}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sw"
        assert run(["sweep", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == validate_error(cfg, cli.SWEEP_SCHEMA, "config")
        assert "invalid at 'vary/alpha'" in err
        assert not out.exists()

    def test_failing_case_raises_before_output(self, tmp_path, capsys):
        # the whole torus at p = 3 passes the schema and is refused by the
        # estimate itself, after the cases have started
        base = {"n": 1, "N": 64, "L": 2.0, "p": 3.0, "omega": {"type": "full"}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"task": "poincare", "base": base,
                                    "vary": {"s": [0.5]}}))
        out = tmp_path / "sw"
        assert run(["sweep", "--config", path, "--out", out]) == 2
        assert "whole torus" in capsys.readouterr().err
        assert not out.exists()


_WEIGHTS_BASE = {"n": 1, "N": 64, "L": 2.0, "origin": [-1.0], "x0": [0.0], "p": 2.0}


def validate_error(instance, schema, what):
    """The stderr line for the error ``jsonschema.validate`` raises."""
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(instance, schema)
    where = "/".join(str(p) for p in info.value.absolute_path) or "<root>"
    return f"error: {what} invalid at '{where}': {info.value.message}\n"


@pytest.mark.parametrize("module", ["jsonschema", "scipy", "mpmath"])
def test_import_leaves_module_out(module):
    """Importing the package and its CLI loads none of these: jsonschema is
    imported on the first validation, numpy is the only numeric dependency,
    and mpmath is a test extra."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, rieszgrad, rieszgrad.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    """main parses every call with one parser, and a flag given to one call
    does not carry over to the next."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    flags = ["weights", "--alpha", 0.5, "--p", 2, "--levels", 3, "--N", 64]
    assert run([*flags, "--q", 4, "--x0", 0.1, "--out", tmp_path / "a"]) == 0
    # the top-level parser and one per subcommand
    assert len(built) == 7
    assert run([*flags, "--out", tmp_path / "b"]) == 0
    assert len(built) == 7
    args = cli.build_parser().parse_args([str(f) for f in flags])
    assert (args.q, args.x0, args.out) == (None, None, "weights_out")


class TestSchemas:
    @pytest.mark.parametrize("validator", [
        cli._validators()["SOLVE_VALIDATOR"], cli._validators()["SWEEP_VALIDATOR"],
        *cli._validators()["SWEEP_CASE_VALIDATORS"].values(),
    ])
    def test_schema_passes_metaschema(self, validator):
        jsonschema.Draft202012Validator.check_schema(validator.schema)
        # the class jsonschema.validate would pick for this schema
        assert jsonschema.validators.validator_for(validator.schema) is type(validator)

    def test_solve_does_not_recheck_schema(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("schema checked at run time")

        monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema", refuse)
        monkeypatch.setattr(jsonschema, "validate", refuse)
        monkeypatch.setattr(jsonschema.validators, "validate", refuse)
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(SOLVE_CFG))
        for name in ("a", "b"):
            assert run(["solve", "--config", path, "--out", tmp_path / name]) == 0

    @pytest.mark.parametrize("command,config,schema", [
        ("solve", with_keys(SOLVE_CFG, grid={"n": 1, "N": 128, "L": -1.0}),
         cli.SOLVE_SCHEMA),
        ("solve", with_keys(SOLVE_CFG, tolerance=1e-8), cli.SOLVE_SCHEMA),
        ("solve", with_keys(SOLVE_CFG, solver={"method": "gmres"}), cli.SOLVE_SCHEMA),
        ("solve", with_keys(SOLVE_CFG, rhs=None), cli.SOLVE_SCHEMA),
        ("solve", with_keys(SOLVE_CFG, rhs={"kind": "modes", "modes": [{"k": [1]}]}),
         cli.SOLVE_SCHEMA),
        ("sweep", {"task": "solve", "base": {}, "vary": {}}, cli.SWEEP_SCHEMA),
        ("sweep", {"task": "weights", "base": _WEIGHTS_BASE, "vary": {"alpha": 0.5}},
         cli.SWEEP_SCHEMA),
    ])
    def test_error_matches_jsonschema_validate(self, tmp_path, capsys,
                                               command, config, schema):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run([command, "--config", path, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == validate_error(config, schema, "config")

    def test_sweep_case_error_matches_jsonschema_validate(self, tmp_path, capsys):
        cfg = {"task": "weights", "base": _WEIGHTS_BASE, "vary": {"alpha": ["high"]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run(["sweep", "--config", path, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == validate_error(
            with_keys(_WEIGHTS_BASE, alpha="high"), cli.SWEEP_CASE_SCHEMAS["weights"],
            "sweep case 'alpha=high'")


class TestEmit:
    def test_field_formats(self, tmp_path):
        g = make_grid(GridSpec(n=1, N=16, L=1.0))
        u = ScalarField(g, np.arange(16.0))
        cli.emit(u, tmp_path / "u.bin")
        assert np.array_equal(read_field(tmp_path / "u.bin").values, u.values)
        cli.emit(u, tmp_path / "u.csv")
        assert (tmp_path / "u.csv").read_text().startswith("x1,value")
        with pytest.raises(ValueError, match="bin or csv"):
            cli.emit(u, tmp_path / "u.json")

    def test_report_formats(self, tmp_path):
        g = make_grid(GridSpec(n=1, N=16, L=1.0))
        rep = SolveReport(
            solution=ScalarField(g, np.zeros(16)),
            iterations=2,
            residuals=[1.0, 0.1, 0.01],
            energies=[3.0, 2.0, 1.0],
            converged=True,
            method="pcg",
        )
        cli.emit(rep, tmp_path / "r.json")
        rec = json.loads((tmp_path / "r.json").read_text())
        assert rec["residuals"] == [1.0, 0.1, 0.01]
        cli.emit((["iteration", "residual", "energy"], rep.history_rows()),
                 tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert len(lines) == 4
        with pytest.raises(ValueError, match="unsupported format"):
            cli.emit(rep, tmp_path / "r.bin")

    @pytest.mark.parametrize("name", ["r.txt", "r", "r.JSON"])
    def test_unknown_suffix_refused(self, tmp_path, name):
        g = make_grid(GridSpec(n=1, N=16, L=1.0))
        for obj, message in [({"a": 1}, "unsupported format"),
                             (ScalarField(g, np.zeros(16)), "bin or csv")]:
            with pytest.raises(ValueError, match=message):
                cli.emit(obj, tmp_path / name)
        assert list(tmp_path.iterdir()) == []


def solve_argv(tmp_path, **changes):
    """solve on SOLVE_CFG with the given sections replaced; a field file
    f.bin on a 1D grid of N = 64, not the config's 128, sits beside it."""
    write_field(bump(make_grid(GridSpec(n=1, N=64, L=2.0)), [1.0], 0.3), tmp_path / "f.bin")
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(with_keys(SOLVE_CFG, **changes)))
    return ["solve", "--config", path]


def op_argv(tmp_path):
    """div on two 2D fields whose grids differ in L."""
    for name, L in (("a.bin", 1.0), ("b.bin", 2.0)):
        g = make_grid(GridSpec(n=2, N=16, L=L))
        write_field(bump(g, [L / 2, L / 2], L / 5), tmp_path / name)
    return ["op", "div", "--in", tmp_path / "a.bin", tmp_path / "b.bin", "--s", 0.5]


@pytest.mark.parametrize("argv,message", [
    pytest.param(lambda t: solve_argv(t, omega={"type": "ball", "center": [1.0, 1.0],
                                                "radius": 0.3}),
                 "omega/center has wrong dimension", id="omega center"),
    pytest.param(lambda t: solve_argv(t, omega={"type": "box", "lo": [0.6, 0.6],
                                                "hi": [1.4, 1.4]}),
                 "omega/lo,hi have wrong dimension", id="omega lo hi"),
    pytest.param(lambda t: solve_argv(t, rhs={"kind": "field", "path": "f.bin"}),
                 "field file grid does not match config grid", id="field grid"),
    # the bump's support [0.55, 1.45] leaves omega = [0.6, 1.4]
    pytest.param(lambda t: solve_argv(t, rhs={"kind": "manufactured", "center": [1.0],
                                              "radius": 0.45}),
                 "u_star must vanish outside the interior mask", id="bump outside omega"),
    pytest.param(op_argv, "input fields live on different grids", id="op grids"),
])
def test_refusals_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert run([*argv(tmp_path), "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
