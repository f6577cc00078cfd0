"""Benchmark of rieszgrad: one workload per fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spectral|solve|weights \\
        --seed N --seconds T --trace 0|1

The run imports the package from ``src/`` of the checkout and makes the
workload's inputs from the seed (set-up, timed in this process and in four
fresh ones).  It then runs whole rounds of the workload's items, in a fixed
order, one after another (a closed loop with one client), until ``--seconds``
have passed.  Each output is checked after its call, outside the timed span.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones,
from spans recorded around the package's public functions, and the spans are
written to ``.perfbench_runs/``.

Times are in reference seconds (README.md): every item's time is divided by
the time of a fixed reference kernel measured around it and multiplied by
REFERENCE_NOMINAL_S, which takes out the drift of a shared machine's
speed.  Raw wall-clock figures go to standard error.
"""

import os
import time

_T_START = time.perf_counter()

# One BLAS/FFT thread: the benchmark is a single closed-loop client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh processes timed for set-up, besides the measuring process itself
SETUP_PROCESSES = 4
#: reference-kernel runs timed after each set-up
SETUP_REFERENCE_RUNS = 5
#: a reference second is 1000 reference-kernel durations
REFERENCE_NOMINAL_S = 1e-3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("spectral", "solve", "weights"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import rieszgrad from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rieszgrad" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rieszgrad sources under {src}")
    sys.path.insert(0, str(src))
    import rieszgrad  # noqa: F401
    import rieszgrad.cli  # noqa: F401

    if Path(rieszgrad.__file__).resolve().parent != (src / "rieszgrad").resolve():
        sys.exit(f"perfbench: rieszgrad imported from {rieszgrad.__file__}, not {src}")


class Reference:
    """A fixed kernel that gauges the machine's current speed: 64x64 FFT
    round trips (memory and vector work) plus an interpreter loop.  It holds
    its own FFT functions, so tracing never wraps them."""

    def __init__(self):
        import numpy as np

        self._fftn, self._ifftn = np.fft.fftn, np.fft.ifftn
        self._a = np.random.default_rng(0).standard_normal((64, 64))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(6):
            self._ifftn(self._fftn(self._a))
        acc = 0
        for i in range(4000):
            acc += i * i
        return time.perf_counter() - t0


def run_round(items, ctx, failures: list, problems: list, samples: dict,
              reference: Reference, tracer=None) -> None:
    """Run every item once.  Appends (seconds, reference seconds around the
    call) to ``samples[item.name]``; spans are recorded only inside calls."""
    from workloads import Failed

    ref_before = reference()
    for item in items:
        if tracer:
            tracer.on = True
        t0 = time.perf_counter()
        raised = None
        try:
            out = item.run()
        except Exception as exc:  # the program failed this operation
            raised = exc
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.on = False
        ref_after = reference()
        samples.setdefault(item.name, []).append((elapsed, 0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        if raised is not None:
            failures.append(f"{item.name}: {type(raised).__name__}: {raised}")
            continue
        try:
            checks = item.check(out, ctx)
        except Failed as exc:
            failures.append(f"{item.name}: {exc}")
            continue
        problems += [c for c in checks if not c.passed]


def reference_seconds(samples: dict) -> float:
    """One round in reference seconds: per item, the median over rounds of
    its time over the reference time around it, summed."""
    return REFERENCE_NOMINAL_S * sum(
        statistics.median(t / ref for t, ref in v) for v in samples.values())


def layer_metrics(tracer, rnd: int, counters: dict, round_s: float) -> dict:
    """Per-layer numbers for one traced round that took ``round_s`` in
    program calls."""
    agg = tracer.round_summary(rnd)

    def get(name, key):
        return agg.get(name, {}).get(key, 0.0)

    fft_nl = agg["grid.fft"]["in_nonlinear"]
    outer = get("solver.nonlinear", "count")
    estimate_s = get("weights.estimate", "total_s")
    cubes = get("weights.family", "count")
    covered = sum(a["self_s"] for a in agg.values())
    return {
        "grid.fft_calls": (get("grid.fft", "calls"), "count"),
        "grid.fft_s": (get("grid.fft", "total_s"), "s"),
        "grid.fft_mb": (get("grid.fft", "bytes") / 2**20, "MiB"),
        "grid.field_wraps": (get("grid.field", "calls"), "count"),
        "grid.field_s": (get("grid.field", "total_s"), "s"),
        "fracops.symbol_calls": (get("fracops.symbol", "calls"), "count"),
        "fracops.symbol_s": (get("fracops.symbol", "total_s"), "s"),
        "fracops.op_calls": (get("fracops.op", "calls"), "count"),
        "fracops.op_s": (get("fracops.op", "self_s"), "s"),
        "fracops.pv_s": (get("fracops.pv", "total_s"), "s"),
        "suite.identity_s": (get("suite.identity", "total_s"), "s"),
        "inequalities.report_s": (get("inequalities.report", "total_s"), "s"),
        "inequalities.poincare_s": (get("inequalities.poincare", "total_s"), "s"),
        "inequalities.eig_iters": (get("inequalities.poincare", "count"), "count"),
        "solver.manufacture_s": (get("solver.manufacture", "total_s"), "s"),
        "solver.linear_s": (get("solver.linear", "total_s"), "s"),
        "solver.pcg_iters": (get("solver.linear", "count"), "count"),
        "solver.nonlinear_s": (get("solver.nonlinear", "total_s"), "s"),
        "solver.outer_steps": (outer, "count"),
        "solver.ffts_per_step": (fft_nl / outer if outer else 0.0, "fft/step"),
        "solver.residual_s": (get("solver.residual", "total_s"), "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.artifact_mb": (counters.get("cli.artifact_bytes", 0) / 2**20, "MiB"),
        "weights.build_s": (get("weights.build", "total_s"), "s"),
        "weights.family_s": (get("weights.family", "total_s"), "s"),
        "weights.estimate_s": (estimate_s, "s"),
        "weights.cubes": (cubes, "count"),
        "weights.cubes_per_s": (cubes / estimate_s if estimate_s else 0.0, "1/s"),
        "trace.span_coverage": (covered / round_s, "ratio"),
    }


def setup(args, workdir: Path):
    """Import the package and make the workload's inputs.  Returns the
    set-up time in reference seconds (the clock started before the first
    import), the raw set-up time, and the inputs."""
    import_package()
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workloads.WORKLOADS[args.workload][0](args.seed, workdir)
    raw = time.perf_counter() - _T_START
    reference = Reference()
    ref = statistics.median(reference() for _ in range(SETUP_REFERENCE_RUNS))
    return raw / ref * REFERENCE_NOMINAL_S, raw, inputs


def setup_samples(args) -> list[tuple[float, float]]:
    """(reference, raw) set-up times of fresh processes that only set up."""
    out = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((rec["setup_s"], rec["raw_s"]))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    out_root = ROOT / ".perfbench_runs"
    workdir = out_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup_s, setup_raw, inputs = setup(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw}))
            return 0
        import workloads

        items = workloads.WORKLOADS[args.workload][1](inputs)
        setups = [(setup_s, setup_raw)] + (setup_samples(args) if not args.trace else [])
        reference = Reference()

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()

        ctx = workloads.Context()
        failures: list[str] = []
        problems: list = []
        samples: dict[str, list[tuple[float, float]]] = {}
        layers = []
        t_run = time.perf_counter()
        rounds = 0
        while True:
            ctx.counters = {}
            if tracer:
                tracer.round = rounds
            run_round(items, ctx, failures, problems, samples, reference, tracer)
            if tracer:
                round_s = sum(v[-1][0] for v in samples.values())
                layers.append(layer_metrics(tracer, rounds, ctx.counters, round_s))
            rounds += 1
            if time.perf_counter() - t_run >= args.seconds:
                break
        if tracer:
            tracer.save(out_root / f"spans-{args.workload}-seed{args.seed}-pid{os.getpid()}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in sorted(set(failures)):
        print(f"failed: {msg}", file=sys.stderr)
    for c in problems[:20]:
        print(f"check failed: {c.name}: observed {c.observed!r}, limit {c.limit!r}",
              file=sys.stderr)

    wall_s = reference_seconds(samples)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r[name][0] for r in layers), "unit": unit}
            for name, (_, unit) in layers[0].items()
        }
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    raw_rounds = [round(sum(v[r][0] for v in samples.values()), 3) for r in range(rounds)]
    refs = [ref for v in samples.values() for _, ref in v]
    print(f"perfbench {args.workload} seed={args.seed}: {rounds} rounds of {len(items)} "
          f"items; raw seconds per round {raw_rounds}; reference kernel median "
          f"{statistics.median(refs) * 1e3:.3f} ms; raw set-up "
          f"{statistics.median(r for _, r in setups):.3f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * len(items),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
