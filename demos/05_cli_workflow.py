"""The command-line workflow: configs in, manifested artifacts out.

Everything below shells through the same entry point installed as the
``rieszgrad`` console script; here it is driven in-process for brevity.
"""

import json
import tempfile
from pathlib import Path

from rieszgrad import cli

workdir = Path(tempfile.mkdtemp(prefix="rieszgrad_demo_"))
print(f"working under {workdir}\n")

# --- estimate a Muckenhoupt constant ------------------------------------------
code = cli.main([
    "weights", "--alpha", "0.5", "--p", "2",
    "--levels", "7", "--N", "512", "--out", str(workdir / "weights"),
])
print(f"\nweights exit code: {code}")

# --- solve a manufactured problem from a JSON config ---------------------------
config = {
    "grid": {"n": 1, "N": 256, "L": 2.0},
    "omega": {"type": "box", "lo": [0.6], "hi": [1.4]},
    "s": 0.5,
    "p": 3.0,
    "coefficient": {"kind": "scalar", "family": "constant"},
    "rhs": {"kind": "manufactured", "center": [1.0], "radius": 0.3},
    "solver": {"method": "kacanov", "tol": 1e-8},
}
cfg_path = workdir / "problem.json"
cfg_path.write_text(json.dumps(config, indent=2))
code = cli.main(["solve", "--config", str(cfg_path), "--out", str(workdir / "solve")])
print(f"solve exit code: {code}")
manifest = json.loads((workdir / "solve" / "manifest.json").read_text())
print("artifacts:", [a["path"] for a in manifest["artifacts"]])

# --- sweep a parameter grid -----------------------------------------------------
sweep = {
    "task": "weights",
    "base": {"n": 1, "N": 256, "L": 2.0, "origin": [-1.0], "x0": [0.0],
             "p": 2.0, "levels": 5},
    "vary": {"alpha": [0.0, 0.25, 0.5, 0.75]},
}
sweep_path = workdir / "sweep.json"
sweep_path.write_text(json.dumps(sweep))
code = cli.main(["sweep", "--config", str(sweep_path), "--out", str(workdir / "sweep")])
print(f"sweep exit code: {code}")
print((workdir / "sweep" / "sweep.csv").read_text())

# --- the verification suite is the same one the tests run ----------------------
code = cli.main(["verify", "--quick", "--seed", "0", "--out", str(workdir / "verify")])
print(f"verify exit code: {code}")
