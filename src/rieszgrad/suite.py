"""The runnable verification suite: every identity and inequality as a check.

Each check returns a :class:`CheckResult` with the observed worst-case
residual (or ratio) and its tolerance; the CLI ``verify`` subcommand runs the
whole list and exits nonzero if anything fails.  Sizes are parameterized so
the same code drives both the quick smoke configuration and the full
acceptance-scale run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
    bump,
    forward_transform,
    inverse_transform,
    lp_norm,
    make_grid,
    remove_mean,
    sample,
)
from . import fracops as fo
from . import inequalities as iq
from . import solver as sv
from . import weights as wt

__all__ = ["CheckResult", "run_suite", "identity_checks", "constants_check",
           "pv_check", "weights_checks", "gn_single_mode_check",
           "holder_dual_check", "poincare_check", "solver_checks"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "observed": self.observed,
            "tolerance": self.tolerance,
            **self.details,
        }


def _result(name, observed, tolerance, **details) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(observed <= tolerance),
        observed=float(observed),
        tolerance=float(tolerance),
        details=details,
    )


# ---------------------------------------------------------------------------
# Identity suite: exact symbol identities on seeded band-limited bumps.
# ---------------------------------------------------------------------------


def _identity_residuals(u: ScalarField, v: ScalarField, s: float) -> dict:
    """Worst relative residual of each operator identity on one sample pair."""
    g = u.grid
    n = g.spec.n
    hn = g.h**n
    out = {}
    um = remove_mean(u)
    gr = fo.riesz_gradient(um, s)

    # integration by parts: <grad^s u, V> = -<u, div^s V>
    V = fo.riesz_gradient(v, s)
    lhs = hn * sum(
        float(np.sum(gr.components[j].values * V.components[j].values))
        for j in range(n)
    )
    dv = fo.fractional_divergence(V, s)
    rhs = -hn * float(np.sum(um.values * dv.values))
    scale = lp_norm(gr, 2) * lp_norm(V, 2) + lp_norm(um, 2) * lp_norm(dv, 2)
    out["integration_by_parts"] = abs(lhs - rhs) / (scale if scale else 1.0)

    # fundamental theorem of calculus (mean-zero): u = I_s(R . grad^s u)
    acc = None
    for j in range(n):
        t = fo.riesz_transform(gr.components[j], j)
        acc = t if acc is None else acc + t
    rec = fo.riesz_potential(acc, s)
    out["fundamental_theorem"] = lp_norm(rec - um, 2) / lp_norm(um, 2)

    # commutation: grad^s u = D(I_{1-s} u) = I_{1-s}(D u)
    route1 = fo.spectral_gradient(fo.riesz_potential(um, 1.0 - s))
    route2 = tuple(
        fo.riesz_potential(c, 1.0 - s) for c in fo.spectral_gradient(um).components
    )
    den = max(lp_norm(gr.components[j], 2) for j in range(n))
    comm = max(
        max(lp_norm(gr.components[j] - route1.components[j], 2) for j in range(n)),
        max(lp_norm(gr.components[j] - route2[j], 2) for j in range(n)),
    )
    out["gradient_of_potential"] = comm / den

    # bessel inverse: Lambda_s Lambda_{-s} = id
    br = fo.bessel_potential(fo.bessel_potential(u, s), -s)
    out["bessel_roundtrip"] = lp_norm(br - u, 2) / lp_norm(u, 2)

    # -div^s grad^s = (-Lap)^s
    dg = fo.fractional_divergence(fo.riesz_gradient(u, s), s)
    lap = fo.fractional_laplacian(u, 2.0 * s)
    out["div_grad_laplacian"] = lp_norm(dg + lap, 2) / lp_norm(lap, 2)

    # space equivalence construction: u = Lambda_s(G_s(id + sum R_j d_j^s) u)
    acc = u
    for j in range(n):
        dju = fo.apply_multiplier(u, "riesz_gradient", s, component=j)
        acc = acc + fo.riesz_transform(dju, j)
    rec2 = fo.bessel_potential(fo.gs_multiplier(acc, s), s)
    out["bessel_reconstruction"] = lp_norm(rec2 - u, 2) / lp_norm(u, 2)

    # Riesz potential semigroup on mean-zero fields: I_a I_b = I_{a+b}
    a, b = 0.3 * s, 0.5 * s
    two = fo.riesz_potential(fo.riesz_potential(um, a), b)
    one = fo.riesz_potential(um, a + b)
    out["potential_semigroup"] = lp_norm(two - one, 2) / lp_norm(one, 2)
    return out


def identity_checks(
    n: int,
    N: int,
    s_values=(0.25, 0.5, 0.75),
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> list[CheckResult]:
    """Run the operator-identity suite on seeded bumps; one result per identity."""
    grid = make_grid(GridSpec(n=n, N=N, L=1.0))
    fam = iq.bump_family(grid, count, seed=seed)
    fam_v = iq.bump_family(grid, count, seed=seed + 1)
    worst: dict[str, float] = {}
    for u, v in zip(fam, fam_v):
        for s in s_values:
            for name, r in _identity_residuals(u, v, s).items():
                worst[name] = max(worst.get(name, 0.0), r)
    return [
        _result(f"identity[{name}] n={n} N={N}", r, tol,
                samples=count, s_values=list(s_values))
        for name, r in sorted(worst.items())
    ]


def constants_check() -> CheckResult:
    """gamma_{n,1-s} c_{n,s} = n + s - 1 at s = 0.01, ..., 0.99 for n = 1, 2,
    3 (exact Gamma identity)."""
    worst = 0.0
    for n in (1, 2, 3):
        for i in range(1, 100):
            s = i / 100.0
            prod = fo.gradient_normalization(n, s) * fo.riesz_normalization(n, 1.0 - s)
            target = n + s - 1.0
            worst = max(worst, abs(prod - target) / abs(target))
    return _result("constants_product_identity", worst, 1e-12,
                   n_values=[1, 2, 3], s_points=99)


def pv_check(
    s_values=(0.25, 0.5, 0.75),
    N_coarse: int = 128,
    N_fine: int = 256,
    tol: float = 1e-2,
    min_gain: float = 2.0,
) -> list[CheckResult]:
    """Cross-validate the spectral gradient against the PV quadrature.

    The comparison runs on the window |x - center| <= R - 2 rho where the
    truncated free-space quadrature is a faithful oracle (rho = L/16 bump).
    """
    out = []
    for s in s_values:
        errs = {}
        for N in (N_coarse, N_fine):
            grid = make_grid(GridSpec(n=1, N=N, L=1.0))
            rho = 1.0 / 16.0
            u = bump(grid, [0.5], rho, 1.0)
            pv = fo.riesz_gradient_pv(u, s)  # eps = 2h, R = L/4
            sp = fo.riesz_gradient(u, s)
            win = np.abs(grid.axes[0] - 0.5) <= 0.25 - 2.0 * rho
            d = pv.components[0].values - sp.components[0].values
            errs[N] = float(
                np.sqrt(np.sum(d[win] ** 2))
                / np.sqrt(np.sum(sp.components[0].values[win] ** 2))
            )
        out.append(
            _result(f"pv_agreement s={s}", errs[N_fine], tol,
                    coarse_error=errs[N_coarse])
        )
        gain = errs[N_coarse] / errs[N_fine]
        out.append(
            CheckResult(
                name=f"pv_refinement_gain s={s}",
                passed=bool(gain >= min_gain),
                observed=float(gain),
                tolerance=float(min_gain),
                details={"direction": "observed >= tolerance"},
            )
        )
    return out


def weights_checks(N: int = 512, levels: int = 7) -> list[CheckResult]:
    out = []
    grid = make_grid(GridSpec(n=1, N=N, L=2.0, origin=(-1.0,)))
    fam = wt.CubeFamily(lo=(-1.0,), size=2.0, level_min=0, level_max=levels)
    w = wt.power_weight(grid, [0.0], 0.5, 2.0)
    est = wt.ap_constant(w, 2.0, fam)
    target = 4.0 / 3.0
    out.append(
        _result("ap_power_half_vs_closed_form", abs(est.value - target) / target, 0.02,
                estimate=est.value, closed_form=target)
    )
    # dual relation, exact per cube
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        a = wt.ap_constant(w, p, fam).value
        ad = wt.ap_constant(wt.dual_weight(w, p), p / (p - 1.0), fam).value
        worst = max(worst, abs(ad - a ** (1.0 / (p - 1.0))) / ad)
    out.append(_result("ap_duality_relation", worst, 1e-10))
    # nesting [w]_q <= [w]_p for p <= q
    a2 = wt.ap_constant(w, 2.0, fam).value
    a3 = wt.ap_constant(w, 3.0, fam).value
    out.append(
        CheckResult(
            name="ap_nesting",
            passed=bool(a3 <= a2 * (1.0 + 1e-12)),
            observed=a3,
            tolerance=a2,
            details={"direction": "observed <= tolerance"},
        )
    )
    # A_{p,q} <-> A_r finiteness co-occurrence on a fixed family
    p, q = 2.0, 4.0
    r = 1.0 + q / (p / (p - 1.0))
    apq = wt.apq_constant(w, p, q, fam).value
    ar = wt.ap_constant(w, r, fam).value
    out.append(
        CheckResult(
            name="apq_equivalence_finite",
            passed=bool(np.isfinite(apq) and np.isfinite(ar)),
            observed=apq,
            tolerance=float("inf"),
            details={"a_r_estimate": ar, "r": r},
        )
    )
    return out


def gn_single_mode_check(grid_points: int = 5, seed: int = 0) -> CheckResult:
    """Single-mode interpolation ratio is exactly 1 for admissible triples."""
    N = 256
    grid = make_grid(GridSpec(n=1, N=N, L=1.0))
    rng = np.random.default_rng(seed)
    values = np.linspace(0.1, 0.9, grid_points)
    worst = 0.0
    count = 0
    for r in np.concatenate([[0.0], values]):
        for s in values:
            for t in values:
                if not (r <= s <= t) or r == t:
                    continue
                k = int(rng.integers(1, N // 4))
                u = sample(lambda x, k=k: np.sin(2 * np.pi * k * x), grid)
                rep = iq.gn_report([u], float(r), float(s), float(t), 2.0)
                worst = max(worst, abs(rep.max_ratio - 1.0))
                count += 1
    return _result("gn_single_mode_equality", worst, 1e-12, triples=count)


def holder_dual_check(seed: int = 0) -> CheckResult:
    grid = make_grid(GridSpec(n=1, N=256, L=1.0))
    fam = iq.standard_family(grid, seed=seed, bumps=10, modes=10)
    w = wt.power_weight(grid, [0.5], 0.5, 2.0)
    gv = fo.riesz_gradient(fam[0], 0.4)
    rep = iq.dual_representation_check(gv, fam, 0.4, 2.0, w)
    return _result("holder_dual_weight", rep.max_ratio, 1.0 + 1e-10)


def poincare_check(seed: int = 0) -> list[CheckResult]:
    grid = make_grid(GridSpec(n=1, N=128, L=2.0))
    x = grid.axes[0]
    mask = (x >= 0.75) & (x <= 1.25)
    fam = iq._interior_family(grid, mask, seed)
    out = []
    for p, residual_name, family_name in (
        (2.0, "poincare_eigensolve_residual", "poincare_family_inequality"),
        (3.0, "poincare_p3_eigen_residual", "poincare_p3_family_inequality"),
    ):
        est = iq.poincare_constant(grid, mask, 0.5, p, seed=seed)
        out.append(_result(residual_name, est.residual, 1e-8, constant=est.constant))
        # the estimated constant dominates the family
        worst = 0.0
        for u in fam:
            ui = ScalarField(grid, np.where(mask, u.values, 0.0))
            gn = lp_norm(fo.riesz_gradient(ui, 0.5), p)
            un = lp_norm(ui, p)
            if gn > 0:
                worst = max(worst, un / (gn * est.constant))
        out.append(_result(family_name, worst, 1.0 + 1e-8))
    return out


def solver_checks(seed: int = 0) -> list[CheckResult]:
    grid = make_grid(GridSpec(n=1, N=128, L=2.0))
    x = grid.axes[0]
    mask = (x >= 0.6) & (x <= 1.4)
    w = wt.tabulated_weight(grid, np.ones(grid.spec.shape), 2.0)
    ustar = bump(grid, [1.0], 0.3, 1.0)
    out = []
    prob2 = sv.manufacture(grid, mask, 0.5, 2.0, w, ustar)
    rep = sv.solve_linear(prob2, tol=1e-12)
    err = lp_norm(rep.solution - ustar, 2) / lp_norm(ustar, 2)
    out.append(_result("solver_manufactured_p2", err, 1e-8, iterations=rep.iterations))
    prob3 = sv.manufacture(grid, mask, 0.5, 3.0, w, ustar)
    rep3 = sv.solve_plaplace(prob3, "kacanov", tol=1e-8)
    err3 = lp_norm(rep3.solution - ustar, 2) / lp_norm(ustar, 2)
    out.append(
        _result("solver_manufactured_p3", err3, 1e-6, iterations=rep3.iterations)
    )
    repn = sv.solve_plaplace(prob3, "newton", tol=1e-8)
    errn = lp_norm(repn.solution - ustar, 2) / lp_norm(ustar, 2)
    out.append(
        _result("solver_newton_p3", errn, 1e-6, iterations=repn.iterations)
    )
    mono = all(
        rep3.energies[i + 1] <= rep3.energies[i] + 1e-12
        for i in range(len(rep3.energies) - 1)
    )
    out.append(
        CheckResult("solver_energy_monotone", mono, 0.0 if mono else 1.0, 0.5)
    )
    # monotonicity gap sweep
    rng = np.random.default_rng(seed)
    fam = iq._interior_family(grid, mask, seed, count=6)
    violations = 0
    pairs = 0
    for p in (1.5, 3.0):
        prob = sv.manufacture(grid, mask, 0.5, p, w, ustar)
        for _ in range(20):
            i, j = rng.integers(0, len(fam), size=2)
            lhs, lower = sv.monotonicity_gap(prob, fam[i], fam[j])
            pairs += 1
            if lhs < lower - 1e-10 * max(1.0, abs(lhs)):
                violations += 1
    out.append(
        _result("monotonicity_gap_sweep", float(violations), 0.0, pairs=pairs)
    )
    return out


def transform_checks(seed: int = 0) -> list[CheckResult]:
    grid = make_grid(GridSpec(n=1, N=128, L=1.5, origin=(-0.25,)))
    rng = np.random.default_rng(seed)
    count = 20
    worst_rt = 0.0
    worst_pv = 0.0
    for _ in range(count):
        u = ScalarField(grid, rng.standard_normal(grid.spec.shape))
        rt = inverse_transform(forward_transform(u))
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(rt.values - u.values)) / np.max(np.abs(u.values))),
        )
        F = forward_transform(u)
        phys = grid.h * np.sum(u.values**2)
        spec = np.sum(np.abs(F.coefficients) ** 2) / grid.spec.L
        worst_pv = max(worst_pv, abs(phys - spec) / phys)
    return [
        _result("transform_roundtrip", worst_rt, 1e-12, samples=count),
        _result("parseval", worst_pv, 1e-10, samples=count),
    ]


def run_suite(quick: bool = True, seed: int = 0) -> list[CheckResult]:
    """The full verification battery; quick mode shrinks sizes and counts."""
    results: list[CheckResult] = []
    results += transform_checks(seed=seed)
    if quick:
        results += identity_checks(1, 128, count=10, seed=seed)
        results += identity_checks(2, 64, count=5, seed=seed)
    else:
        results += identity_checks(1, 256, count=100, seed=seed)
        results += identity_checks(2, 128, count=100, seed=seed)
    results.append(constants_check())
    results += pv_check(s_values=(0.5,) if quick else (0.25, 0.5, 0.75))
    results += weights_checks(N=256 if quick else 512, levels=6 if quick else 7)
    results.append(gn_single_mode_check(grid_points=3 if quick else 5, seed=seed))
    results.append(holder_dual_check(seed=seed))
    results += poincare_check(seed=seed)
    results += solver_checks(seed=seed)
    return results
