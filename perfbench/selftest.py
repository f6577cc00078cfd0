"""Self-tests of the benchmark: its checks catch planted wrong answers, its
inputs are a pure function of the seed, and whole runs pass on the seeds
named in README.md.

    python3 perfbench/selftest.py

Exits 0 when every self-test passes.
"""

import dataclasses
import hashlib
import json
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracles as orc  # noqa: E402
import workloads as W  # noqa: E402
from rieszgrad import ScalarField, VectorField  # noqa: E402

SEEDS = (0, 1, 2)
#: failed operations per round when the program is as it is today
EXPECTED_FAILED = {"spectral": 0, "solve": 1, "weights": 1}

results = []


def report(name: str, ok: bool, detail: str = "") -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")


def verdict(item, out):
    """(failed, all checks passed) for one item's output."""
    try:
        checks = item.check(out, W.Context())
    except W.Failed:
        return True, None
    return False, all(c.passed for c in checks)


def by_name(items, name):
    return next(i for i in items if i.name == name)


def write_bin(path: Path, n, N, L, values) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qqd", n, N, L))
        fh.write(struct.pack(f"<{n}d", *([0.0] * n)))
        fh.write(np.asarray(values, dtype="<f8").tobytes())


def planted_solution(tmp: Path) -> None:
    inp = W.solve_inputs(0, tmp)
    items = W.solve_items(inp)
    for case in inp["cases"]:
        if case["name"] not in ("2d p=2 power", "2d p=1.5 constant"):
            continue
        item = by_name(items, f"solve {case['name']}")
        g, rhs = case["config"]["grid"], case["config"]["rhs"]
        exact = orc.bump_values(g["n"], g["N"], g["L"], (0.0,) * g["n"],
                                rhs["center"], rhs["radius"], rhs["sharpness"])
        sol = case["out"] / "solution.bin"
        write_bin(sol, g["n"], g["N"], g["L"], exact)
        report(f"solve check accepts the exact bump ({case['name']})",
               verdict(item, 0) == (False, True))
        write_bin(sol, g["n"], g["N"], g["L"], exact * (1.0 + 1e-6))
        report(f"solve check rejects the bump scaled by 1 + 1e-6 ({case['name']})",
               verdict(item, 0) == (False, False))
        report(f"solve check counts a non-zero exit as failed ({case['name']})",
               verdict(item, 1)[0])


def planted_supremum(tmp: Path) -> None:
    items = W.weights_items(W.weights_inputs(0, tmp))
    for name in ("ap power 1d", "ap power 2d"):
        item = by_name(items, name)
        w, est = item.run()
        report(f"supremum check accepts the program's value ({name})",
               verdict(item, (w, est)) == (False, True))
        off = dataclasses.replace(est, value=est.value * (1.0 + 1e-6))
        report(f"supremum check rejects a value off by 1e-6 relative ({name})",
               verdict(item, (w, off)) == (False, False))
    item = by_name(items, "sawyer-wheeden power 1d")
    w, rec = item.run()
    bad = dict(rec, single_weight_constant=rec["single_weight_constant"] * (1.0 - 1e-6))
    report("two-weight check rejects a single-weight value off by 1e-6",
           verdict(item, (w, bad)) == (False, False))
    bad = dict(rec, constant=float("inf"))
    report("weights check counts a non-finite constant as failed", verdict(item, (w, bad))[0])


def planted_sign(tmp: Path) -> None:
    items = W.spectral_items(W.spectral_inputs(0, tmp))
    for name in ("mode riesz_gradient n=2", "mode riesz_potential n=3",
                 "mode fractional_divergence n=1", "mode riesz_transform n=2"):
        item = by_name(items, name)
        out = item.run()
        report(f"mode check accepts the program's output ({name})",
               verdict(item, out) == (False, True))
        if isinstance(out, VectorField):
            flipped = VectorField(out.grid, tuple(-c for c in out.components))
        else:
            flipped = ScalarField(out.grid, -out.values)
        report(f"mode check rejects the output with its sign flipped ({name})",
               verdict(item, flipped) == (False, False))


def planted_domination(tmp: Path) -> None:
    inp = W.solve_inputs(0, tmp)
    item = by_name(W.solve_items(inp), "poincare p=3 n=1")
    est = item.run()
    report("domination check accepts the program's constant", verdict(item, est) == (False, True))
    pc = inp["poincare"]
    fam_max = orc.poincare_ratio_max([u.values for u in pc["family"]], pc["mask1"],
                                     0.5, 3.0, None, 1, 256, W.SOLVE_L)
    low = dataclasses.replace(est, constant=fam_max * (1.0 - 1e-6))
    report("domination check rejects a constant below its family's best ratio",
           verdict(item, low) == (False, False))


def fingerprint(obj, h, workdir: Path) -> None:
    """Feed a canonical byte form of generated inputs into a hash."""
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            h.update(str(k).encode())
            fingerprint(obj[k], h, workdir)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            fingerprint(v, h, workdir)
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + str(obj.shape).encode() + obj.tobytes())
    elif isinstance(obj, Path):
        h.update(str(obj.relative_to(workdir)).encode())
        if obj.is_file():
            h.update(obj.read_bytes())
    elif isinstance(obj, VectorField):
        fingerprint([c.values for c in obj.components], h, workdir)
    elif hasattr(obj, "values") and hasattr(obj, "grid"):  # ScalarField, Weight
        h.update(repr(obj.grid.spec).encode())
        fingerprint(obj.values, h, workdir)
    elif hasattr(obj, "spec"):  # Grid
        h.update(repr(obj.spec).encode())
    else:
        h.update(repr(obj).encode())


def deterministic_inputs(tmp: Path) -> None:
    for name, (make_inputs, _) in W.WORKLOADS.items():
        digests = []
        for label, seed in (("a", 0), ("b", 0), ("c", 1)):
            workdir = tmp / f"inputs-{name}-{label}"
            workdir.mkdir()
            h = hashlib.sha256()
            fingerprint(make_inputs(seed, workdir), h, workdir)
            digests.append(h.hexdigest())
        report(f"{name}: seed 0 gives byte-identical inputs twice", digests[0] == digests[1])
        report(f"{name}: seed 1 gives other inputs than seed 0", digests[0] != digests[2])


def whole_runs() -> None:
    for name in W.WORKLOADS:
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", "0", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            res = json.loads(line)
            ok = (proc.returncode == 0 and res.get("correct") is True
                  and res.get("failed") == EXPECTED_FAILED[name])
            report(f"{name} seed {seed}: one round correct, {EXPECTED_FAILED[name]} failed",
                   ok, "" if ok else proc.stderr.strip()[-400:])


def main() -> int:
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as d:
        tmp = Path(d)
        planted_solution(tmp / "solve")
        planted_supremum(tmp / "weights")
        planted_sign(tmp / "spectral")
        planted_domination(tmp / "poincare")
        deterministic_inputs(tmp)
    whole_runs()
    print(f"{sum(results)}/{len(results)} self-tests passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
