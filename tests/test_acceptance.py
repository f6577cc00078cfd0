"""Acceptance criteria, one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated at run time.

Two deliberate deviations, both recorded in the project decision log:

* criterion 2 checks the constants product against n + s - 1, the value the
  two Gamma closed forms actually produce (verified at 50-digit precision);
  the displayed n + 1 - s is a sign-transposition typo refuted by the same
  source that states the closed forms.
* criterion 4's boundary clause (alpha = 1 doubling per refinement level) is
  provably unattainable for the pinned estimator: every per-cube value is
  >= 1 while the boundary divergence is logarithmic, so successive ratios
  tend to 1. The test asserts the stated doubling faithfully and is marked
  strict-xfail with this analysis.
"""

import json
import time

import numpy as np
import pytest

from rieszgrad.grid import GridSpec, ScalarField, bump, lp_norm, make_grid, sample
from rieszgrad import cli
from rieszgrad import fracops as fo
from rieszgrad import inequalities as iq
from rieszgrad import solver as sv
from rieszgrad import suite
from rieszgrad import weights as wt


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_symbol_identity_suite():
    """Identity suite at 1e-10 on 100 seeded bumps, n in {1,2}, under 60 s."""
    t0 = time.monotonic()
    results = []
    results += suite.identity_checks(1, 256, s_values=(0.25, 0.5, 0.75),
                                     count=100, seed=0, tol=1e-10)
    results += suite.identity_checks(2, 128, s_values=(0.25, 0.5, 0.75),
                                     count=100, seed=0, tol=1e-10)
    elapsed = time.monotonic() - t0
    worst = max(r.observed for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    report("1", ok, f"worst residual {worst:.2e} (tol 1e-10), {elapsed:.1f}s")
    for r in results:
        assert r.passed, f"{r.name}: {r.observed:.3e} > {r.tolerance:.1e}"
    assert elapsed < 60.0


def test_criterion_2_constants_product():
    """gamma_(n,1-s) c_(n,s) equals n + s - 1 to 1e-12 on a 99-point grid."""
    worst = 0.0
    for n in (1, 2, 3):
        for i in range(1, 100):
            s = i / 100.0
            prod = fo.gradient_normalization(n, s) * fo.riesz_normalization(n, 1 - s)
            target = n + s - 1.0
            worst = max(worst, abs(prod - target) / abs(target))
    ok = worst <= 1e-12
    report("2", ok, f"max relative deviation {worst:.2e} from n+s-1 "
                    "(paper's displayed n+1-s is a typo; see decision log)")
    assert ok


def test_criterion_3_pv_cross_validation():
    """PV oracle within 1e-2 of spectral at N=256, halving from N=128."""
    lines = []
    ok = True
    for s in (0.25, 0.5, 0.75):
        errs = {}
        rho = 1.0 / 16.0
        for N in (128, 256):
            g = make_grid(GridSpec(n=1, N=N, L=1.0))
            u = bump(g, [0.5], rho, 1.0)
            pv = fo.riesz_gradient_pv(u, s)  # eps = 2h, R = L/4
            sp = fo.riesz_gradient(u, s)
            win = np.abs(g.axes[0] - 0.5) <= 0.25 - 2 * rho
            d = pv.components[0].values - sp.components[0].values
            ref = sp.components[0].values
            errs[N] = float(np.sqrt(np.sum(d[win] ** 2) / np.sum(ref[win] ** 2)))
        gain = errs[128] / errs[256]
        ok = ok and errs[256] <= 1e-2 and gain >= 2.0
        lines.append(f"s={s}: err256={errs[256]:.2e} gain={gain:.2f}")
    report("3", ok, "; ".join(lines))
    assert ok


def test_criterion_4_weight_engine():
    """4/3 within 2%; duality exact on every family (boundary growth is 4c)."""
    g = make_grid(GridSpec(n=1, N=1024, L=2.0, origin=(-1.0,)))
    w = wt.power_weight(g, [0.0], 0.5, 2.0)
    fam7 = wt.CubeFamily(lo=(-1.0,), size=2.0, level_min=0, level_max=7)
    est = wt.ap_constant(w, 2.0, fam7)
    dev = abs(est.value - 4.0 / 3.0) / (4.0 / 3.0)
    dual_worst = 0.0
    for levels in (3, 5, 7):
        fam = wt.CubeFamily(lo=(-1.0,), size=2.0, level_min=0, level_max=levels)
        for p in (1.5, 2.0, 3.0):
            a = wt.ap_constant(w, p, fam).value
            ad = wt.ap_constant(wt.dual_weight(w, p), p / (p - 1.0), fam).value
            dual_worst = max(dual_worst, abs(ad - a ** (1.0 / (p - 1.0))) / ad)
    ok = dev <= 0.02 and dual_worst <= 1e-10
    report("4", ok, f"[w]_2 = {est.value:.5f} ({dev:.2%} from 4/3), "
                    f"duality deviation {dual_worst:.2e}")
    assert dev <= 0.02
    assert dual_worst <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason=(
        "criterion 4 boundary clause is unattainable for the pinned "
        "estimator: per-cube values are bounded below by 1 (Jensen) and the "
        "alpha = n(p-1) divergence is logarithmic in 1/h, so successive "
        "refinement ratios tend to 1 from about 1.1, never 2. The estimate "
        "does grow without bound (tested in the weights module). See the "
        "decision log."
    ),
)
def test_criterion_4_boundary_alpha_doubles_per_level():
    vals = []
    for N in (128, 256, 512, 1024):
        g = make_grid(GridSpec(n=1, N=N, L=2.0, origin=(-1.0,)))
        w = wt.power_weight(g, [0.0], 1.0, 2.0)
        fam = wt.CubeFamily(lo=(-1.0,), size=2.0, level_min=0,
                            level_max=int(np.log2(N)) - 3)
        vals.append(wt.ap_constant(w, 2.0, fam).value)
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    ok = all(r >= 2.0 for r in ratios)
    report("4c", ok, f"alpha=1 growth ratios per level {['%.3f' % r for r in ratios]} "
                     "(logarithmic divergence; doubling is unattainable)")
    assert ok


def test_criterion_5_poincare():
    """Eigensolve residual 1e-8 on three domain shapes; product spread <= 10x."""
    shapes = []
    # 1d interval
    g1 = make_grid(GridSpec(n=1, N=256, L=2.0))
    x = g1.axes[0]
    shapes.append((g1, (x >= 0.75) & (x <= 1.25), "interval"))
    # 2d disc and square
    g2 = make_grid(GridSpec(n=2, N=64, L=2.0))
    X, Y = g2.coords()
    shapes.append((g2, (X - 1.0) ** 2 + (Y - 1.0) ** 2 <= 0.4**2, "disc"))
    shapes.append(
        (g2, (np.abs(X - 1.0) <= 0.35) & (np.abs(Y - 1.0) <= 0.35), "square")
    )
    residuals = []
    for g, mask, _name in shapes:
        est = iq.poincare_constant(g, mask, 0.5, 2.0, tol=1e-8)
        residuals.append(est.residual)
        assert est.converged
    prods = []
    family_ok = True
    mask1 = shapes[0][1]
    for s in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        est = iq.poincare_constant(g1, mask1, s, 2.0, tol=1e-8)
        prods.append(est.constant * (1.0 - 2.0**-s))
        for u in iq._interior_family(g1, mask1, seed=1):
            un = lp_norm(u, 2.0)
            gn = lp_norm(fo.riesz_gradient(u, s), 2.0)
            if un > est.constant * gn * (1.0 + 1e-8):
                family_ok = False
    spread = max(prods) / min(prods)
    ok = max(residuals) <= 1e-8 and spread <= 10.0 and family_ok
    report("5", ok, f"max eig residual {max(residuals):.1e}, product spread "
                    f"{spread:.2f}x, family inequality {'holds' if family_ok else 'fails'}")
    assert ok


def test_criterion_6_gn_sharpness():
    """Single-mode ratio 1 to 1e-12 on a 5x5x5 triple grid; family under cap."""
    g = make_grid(GridSpec(n=1, N=256, L=1.0))
    rng = np.random.default_rng(0)
    values = np.linspace(0.1, 0.9, 5)
    worst = 0.0
    triples = 0
    for r in values:
        for s in values:
            for t in values:
                if not (r <= s <= t) or r == t:
                    continue
                k = int(rng.integers(1, 64))
                u = sample(lambda x, k=k: np.sin(2 * np.pi * k * x), g)
                rep = iq.gn_report([u], float(r), float(s), float(t), 2.0)
                worst = max(worst, abs(rep.max_ratio - 1.0))
                triples += 1
    fam = iq.standard_family(g, seed=0)
    rep = iq.gn_report(fam, 0.1, 0.4, 0.8, 2.0)
    ok = worst <= 1e-12 and rep.max_ratio <= iq.GN_CAP
    report("6", ok, f"{triples} triples, worst |ratio-1| = {worst:.2e}; "
                    f"family max {rep.max_ratio:.3f} <= cap {iq.GN_CAP}")
    assert worst <= 1e-12
    assert rep.max_ratio <= iq.GN_CAP


def test_criterion_7_linear_solver():
    """p=2: spectral exact 1e-9, manufactured 1e-8, matrix 1e-8, lifting."""
    # spectral exact on the mean-zero torus
    g = make_grid(GridSpec(n=1, N=256, L=1.0))
    w1 = wt.tabulated_weight(g, np.ones(256), 2.0)
    s = 0.5
    x = g.axes[0]
    f = ScalarField(g, (2 * np.pi) ** (2 * s) * np.sin(2 * np.pi * x))
    prob = sv.PDEProblem(grid=g, mask=np.ones(256, dtype=bool), s=s, p=2.0,
                         weight=w1, rhs=f)
    exact_err = float(np.max(np.abs(
        sv.solve_linear(prob, tol=1e-12).solution.values - np.sin(2 * np.pi * x)
    )))
    # manufactured bump
    g2 = make_grid(GridSpec(n=1, N=256, L=2.0))
    x2 = g2.axes[0]
    mask = (x2 >= 0.6) & (x2 <= 1.4)
    ww = wt.power_weight(g2, [1.0], 0.5, 2.0)
    ustar = bump(g2, [1.0], 0.3, 1.0)
    manuf = sv.manufacture(g2, mask, s, 2.0, ww, ustar)
    manuf_err = lp_norm(sv.solve_linear(manuf, tol=1e-12).solution - ustar, 2) / lp_norm(ustar, 2)
    # matrix coefficient A = w (I + 0.5 rank-one)
    g3 = make_grid(GridSpec(n=2, N=64, L=2.0))
    X, Y = g3.coords()
    mask3 = (X - 1.0) ** 2 + (Y - 1.0) ** 2 <= 0.55**2
    w3 = wt.power_weight(g3, [1.0, 1.0], 0.5, 2.0)
    e = np.array([1.0, 1.0]) / np.sqrt(2.0)
    A = np.zeros((2, 2, 64, 64))
    for i in range(2):
        for j in range(2):
            A[i, j] = w3.values * ((i == j) + 0.5 * e[i] * e[j])
    ustar3 = bump(g3, [1.0, 1.0], 0.2, 1.0)
    manuf3 = sv.manufacture(g3, mask3, s, 2.0, w3, ustar3, matrix=A, c1=1.0, c2=1.5)
    matrix_err = lp_norm(sv.solve_linear(manuf3, tol=1e-11).solution - ustar3, 2) / lp_norm(ustar3, 2)
    # nonzero exterior data: u - G solves the shifted problem
    gfield = ScalarField(g2, 0.05 * np.cos(np.pi * x2))
    fr = ScalarField(g2, np.where(mask, 1.0, 0.0))
    plift = sv.PDEProblem(grid=g2, mask=mask, s=s, p=2.0, weight=ww, rhs=fr,
                          exterior=gfield)
    sol = sv.solve_linear(plift, tol=1e-12).solution
    G = plift.exterior_values()
    kit = fo._RieszOps(g2, s)
    shift = kit.div([ww.values * c for c in kit.grad(G)])
    shifted = sv.PDEProblem(grid=g2, mask=mask, s=s, p=2.0, weight=ww,
                            rhs=ScalarField(g2, fr.values + shift))
    sol0 = sv.solve_linear(shifted, tol=1e-12).solution
    lift_err = float(np.max(np.abs((sol.values - G) - sol0.values))
                     / max(1.0, np.max(np.abs(sol0.values))))
    ok = exact_err <= 1e-9 and manuf_err <= 1e-8 and matrix_err <= 1e-8 and lift_err <= 1e-8
    report("7", ok, f"spectral {exact_err:.1e}, manufactured {manuf_err:.1e}, "
                    f"matrix {matrix_err:.1e}, lifting {lift_err:.1e}")
    assert exact_err <= 1e-9
    assert manuf_err <= 1e-8
    assert matrix_err <= 1e-8
    assert lift_err <= 1e-8


def test_criterion_8_p_laplace_solvers():
    """p in {1.5, 3}: 1e-6 accuracy, monotone energy, 1e-5 agreement, sweep."""
    g = make_grid(GridSpec(n=1, N=256, L=2.0))
    x = g.axes[0]
    mask = (x >= 0.6) & (x <= 1.4)
    w = wt.tabulated_weight(g, np.ones(256), 2.0)
    ustar = bump(g, [1.0], 0.3, 1.0)
    details = []
    ok = True
    for p in (1.5, 3.0):
        prob = sv.manufacture(g, mask, 0.5, p, w, ustar)
        rk = sv.solve_plaplace(prob, "kacanov", tol=1e-8)
        rd = sv.solve_plaplace(prob, "descent")
        for rep in (rk, rd):
            mono = all(rep.energies[i + 1] <= rep.energies[i] + 1e-12
                       for i in range(len(rep.energies) - 1))
            ok = ok and rep.converged and mono
        ek = lp_norm(rk.solution - ustar, 2) / lp_norm(ustar, 2)
        ed = lp_norm(rd.solution - ustar, 2) / lp_norm(ustar, 2)
        agree = lp_norm(rk.solution - rd.solution, 2) / lp_norm(rk.solution, 2)
        ok = ok and ek <= 1e-6 and ed <= 1e-6 and agree <= 1e-5
        details.append(f"p={p}: err(kacanov)={ek:.1e} err(descent)={ed:.1e} "
                       f"agree={agree:.1e}")
    # 1000-pair monotonicity sweep
    rng = np.random.default_rng(10)
    fields = []
    for _ in range(12):
        vals = np.where(mask, rng.standard_normal(256), 0.0)
        sm = iq.band_limit(ScalarField(g, vals), fraction=0.2)
        fields.append(ScalarField(g, np.where(mask, sm.values, 0.0)))
    violations = 0
    for p in (1.5, 3.0):
        prob = sv.manufacture(g, mask, 0.5, p, w, ustar)
        for _ in range(500):
            i, j = rng.integers(0, len(fields), size=2)
            lhs, lower = sv.monotonicity_gap(prob, fields[i], fields[j])
            if lhs < lower - 1e-10 * max(1.0, abs(lhs)):
                violations += 1
    ok = ok and violations == 0
    details.append(f"monotonicity sweep violations: {violations}/1000")
    report("8", ok, "; ".join(details))
    assert ok


def test_criterion_9_uniqueness():
    """Solves from 5 random initial iterates agree to 10x tolerance."""
    g = make_grid(GridSpec(n=1, N=128, L=2.0))
    x = g.axes[0]
    mask = (x >= 0.6) & (x <= 1.4)
    w = wt.tabulated_weight(g, np.ones(128), 2.0)
    ustar = bump(g, [1.0], 0.25, 1.0)
    rng = np.random.default_rng(11)
    details = []
    ok = True
    for p, tol in ((2.0, 1e-10), (3.0, 1e-8)):
        prob = sv.manufacture(g, mask, 0.5, p, w, ustar)
        sols = []
        for _ in range(5):
            x0 = ScalarField(g, np.where(mask, rng.standard_normal(128), 0.0))
            if p == 2.0:
                rep = sv.solve_linear(prob, tol=tol, x0=x0)
            else:
                rep = sv.solve_plaplace(prob, "kacanov", tol=tol, x0=x0)
            assert rep.converged
            sols.append(rep.solution)
        base = lp_norm(sols[0], 2)
        worst = max(lp_norm(s_ - sols[0], 2) / base for s_ in sols[1:])
        ok = ok and worst <= 10.0 * tol
        details.append(f"p={p}: max pairwise {worst:.1e} <= {10 * tol:.0e}")
    report("9", ok, "; ".join(details))
    assert ok


def test_criterion_10_determinism(tmp_path):
    """Repeated verify runs with one seed produce identical checksums."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["verify", "--quick", "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(json.loads((out / "manifest.json").read_text()))
    same = outs[0]["artifacts"] == outs[1]["artifacts"]
    report("10", same, f"artifact checksums identical: {same}")
    assert same
