"""Span tracing for the traced benchmark run.

The tracer wraps public functions of rieszgrad (and the FFT entry points of
``numpy.fft`` / ``scipy.fft``) from outside the package.  Each wrapper
replaces the name in every module namespace that holds the same object, so
``lattice_symbol`` is traced whether it is reached as ``fracops.lattice_symbol``
or through the name ``solver`` imported.  Spans (name, start, end, parent,
self time) are kept in memory and dumped once, when the run ends.

Self time is a span's duration minus the time its child spans cover.  Calls
are strictly nested (one thread), so the children's cover is their summed
duration.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

#: n-dimensional and one-dimensional FFT entry points traced as ``grid.fft``.
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

#: span name -> (module, attribute) of the public function it wraps.
FUNCTIONS = {
    "fracops.symbol": [("rieszgrad.fracops", "lattice_symbol")],
    "fracops.op": [
        ("rieszgrad.fracops", name)
        for name in (
            "apply_multiplier", "riesz_gradient", "fractional_divergence",
            "riesz_potential", "bessel_potential", "fractional_laplacian",
            "riesz_transform", "ts_multiplier", "gs_multiplier",
            "spectral_gradient", "spectral_divergence",
        )
    ],
    "fracops.pv": [("rieszgrad.fracops", "riesz_gradient_pv")],
    "suite.identity": [("rieszgrad.suite", "identity_checks")],
    "suite.pv_check": [("rieszgrad.suite", "pv_check")],
    "inequalities.report": [
        ("rieszgrad.inequalities", name)
        for name in (
            "equivalence_report", "gn_report", "sobolev_report",
            "s_limit_report", "dual_representation_check",
        )
    ],
    "inequalities.poincare": [("rieszgrad.inequalities", "poincare_constant")],
    "solver.manufacture": [("rieszgrad.solver", "manufacture")],
    "solver.linear": [("rieszgrad.solver", "solve_linear")],
    "solver.nonlinear": [("rieszgrad.solver", "solve_plaplace")],
    "solver.residual": [("rieszgrad.solver", "weak_residual_norm")],
    "cli.main": [("rieszgrad.cli", "main")],
    "weights.build": [
        ("rieszgrad.weights", name)
        for name in (
            "power_weight", "distance_weight", "dual_weight", "tabulated_weight",
        )
    ],
    "weights.estimate": [
        ("rieszgrad.weights", name)
        for name in ("ap_constant", "apq_constant", "sawyer_wheeden_constant")
    ],
}

#: span name -> (class path, method) for methods patched on their class.
METHODS = {
    "grid.field": [
        ("rieszgrad.grid", "ScalarField", "__post_init__"),
        ("rieszgrad.grid", "SpectralField", "__post_init__"),
    ],
    "weights.family": [("rieszgrad.weights", "CubeFamily", "cubes")],
}

#: span name -> function of the returned object giving a work count.
COUNTS = {
    "solver.linear": lambda rep: rep.iterations,
    "solver.nonlinear": lambda rep: rep.iterations,
    "inequalities.poincare": lambda est: est.iterations,
    "weights.family": len,
}


class Tracer:
    """In-memory span recorder; spans are recorded only while ``on``."""

    def __init__(self):
        self.on = False
        self.round = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per finished span
        self.rec_name: list[int] = []
        self.rec_round: list[int] = []
        self.rec_t0: list[float] = []
        self.rec_t1: list[float] = []
        self.rec_parent: list[int] = []
        self.rec_self: list[float] = []
        self.rec_count: list[float] = []
        self._stack: list[list] = []  # [id, name_id, t0, child_time]
        self._next_id = 0
        self._span_ids: list[int] = []
        self.fft_bytes: dict[int, float] = {}
        self.fft_in_nonlinear: dict[int, int] = {}
        self._nonlinear_depth = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording ---------------------------------------------------------

    def _enter(self, nid: int) -> list:
        frame = [self._next_id, nid, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, count: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        dur = t1 - frame[2]
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += dur
        self._span_ids.append(frame[0])
        self.rec_name.append(frame[1])
        self.rec_round.append(self.round)
        self.rec_t0.append(frame[2])
        self.rec_t1.append(t1)
        self.rec_parent.append(parent)
        self.rec_self.append(dur - frame[3])
        self.rec_count.append(count)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = COUNTS.get(name)
        nonlinear = name == "solver.nonlinear"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            frame = self._enter(nid)
            if nonlinear:
                self._nonlinear_depth += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, 0.0)
                raise
            finally:
                if nonlinear:
                    self._nonlinear_depth -= 1
            self._exit(frame, float(counter(out)) if counter else 0.0)
            return out

        return traced

    def wrap_fft(self, fn):
        nid = self._name_id("grid.fft")

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            if not self.on:
                return fn(a, *args, **kwargs)
            frame = self._enter(nid)
            try:
                out = fn(a, *args, **kwargs)
            except BaseException:
                self._exit(frame, 0.0)
                raise
            nbytes = getattr(a, "nbytes", 0) + getattr(out, "nbytes", 0)
            self._exit(frame, 1.0)
            idx = len(self.rec_name) - 1
            self.fft_bytes[idx] = float(nbytes)
            if self._nonlinear_depth:
                self.fft_in_nonlinear[idx] = self.round
            return out

        return traced

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement, home) -> None:
        """Point every rieszgrad module name bound to ``original`` (and the
        defining module's own name) at ``replacement``."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "rieszgrad" or k.startswith("rieszgrad.")]
        for mod in [home] + modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        fft_homes = [sys.modules["numpy.fft"]]
        if "scipy.fft" in sys.modules:
            fft_homes.append(sys.modules["scipy.fft"])
        for home in fft_homes:
            for name in FFT_NAMES:
                fn = getattr(home, name, None)
                if fn is not None:
                    self._replace_everywhere(fn, self.wrap_fft(fn), home)
        for span, targets in FUNCTIONS.items():
            for modname, attr in targets:
                home = sys.modules[modname]
                fn = getattr(home, attr)
                self._replace_everywhere(fn, self.wrap(span, fn), home)
        for span, targets in METHODS.items():
            for modname, clsname, attr in targets:
                cls = getattr(sys.modules[modname], clsname)
                setattr(cls, attr, self.wrap(span, cls.__dict__[attr]))

    # -- summaries ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "span_id": np.array(self._span_ids, dtype=np.int64),
            "name": np.array(self.rec_name, dtype=np.int32),
            "round": np.array(self.rec_round, dtype=np.int32),
            "t0": np.array(self.rec_t0),
            "t1": np.array(self.rec_t1),
            "parent": np.array(self.rec_parent, dtype=np.int64),
            "self_s": np.array(self.rec_self),
            "count": np.array(self.rec_count),
        }

    def round_summary(self, rnd: int) -> dict:
        """Per-span-name totals for one round: calls, total, self, counts."""
        out: dict[str, dict] = {}
        for i, r in enumerate(self.rec_round):
            if r != rnd:
                continue
            name = self.names[self.rec_name[i]]
            agg = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0,
                       "bytes": 0.0}
            )
            agg["calls"] += 1
            dur = self.rec_t1[i] - self.rec_t0[i]
            agg["total_s"] += dur
            agg["self_s"] += self.rec_self[i]
            agg["count"] += self.rec_count[i]
            agg["bytes"] += self.fft_bytes.get(i, 0.0)
        ffts_nl = sum(1 for v in self.fft_in_nonlinear.values() if v == rnd)
        out.setdefault("grid.fft", {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "count": 0.0, "bytes": 0.0})
        out["grid.fft"]["in_nonlinear"] = ffts_nl
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())
