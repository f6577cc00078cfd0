"""Norm-equivalence, Poincare, interpolation, and embedding report tests."""

import numpy as np
import pytest

from rieszgrad.grid import GridSpec, ScalarField, VectorField, bump, lp_norm, make_grid, sample
from rieszgrad import fracops as fo
from rieszgrad import inequalities as iq
from rieszgrad import weights as wt
from rieszgrad import solver as sv


def grid1(N=128, L=1.0):
    return make_grid(GridSpec(n=1, N=N, L=L))


class TestNormBundle:
    def test_zero_field(self):
        g = grid1()
        nb = iq.norm_bundle(ScalarField(g, np.zeros(128)), 0.5, 2.0)
        assert nb.lp == nb.grad_lp == nb.x_norm == nb.h_norm == 0.0

    def test_scaling(self):
        g = grid1()
        u = iq.standard_family(g, seed=0, bumps=1, modes=0)[0]
        nb1 = iq.norm_bundle(u, 0.5, 2.0)
        nb2 = iq.norm_bundle(3.0 * u, 0.5, 2.0)
        for a, b in ((nb1.lp, nb2.lp), (nb1.grad_lp, nb2.grad_lp),
                     (nb1.x_norm, nb2.x_norm), (nb1.h_norm, nb2.h_norm)):
            assert abs(b - 3.0 * a) <= 1e-12 * max(1.0, b)

    def test_x_norm_dominates_parts(self):
        g = grid1()
        for u in iq.standard_family(g, seed=1, bumps=2, modes=2):
            nb = iq.norm_bundle(u, 0.3, 2.5)
            assert nb.x_norm >= nb.lp and nb.x_norm >= nb.grad_lp


class TestEquivalence:
    def test_bounded_unweighted_and_weighted(self):
        g = grid1(N=256)
        fam = iq.standard_family(g, seed=0)
        for w in (None, wt.power_weight(g, [0.5], 0.5, 2.0)):
            rep = iq.equivalence_report(fam, 0.5, 2.0, w)
            assert rep.verdict == "bounded"
            assert rep.max_ratio <= iq.EQUIVALENCE_CAP
            assert rep.median_ratio <= rep.max_ratio

    def test_zero_member_rejected(self):
        g = grid1()
        fam = [ScalarField(g, np.zeros(128))]
        with pytest.raises(ValueError, match="zero"):
            iq.equivalence_report(fam, 0.5, 2.0)

    def test_infinite_p_refused(self):
        # every ratio of norms read 1.0 at p = inf, so the report called them
        # bounded
        fam = iq.standard_family(grid1(), seed=0)
        with pytest.raises(ValueError, match="p must be finite"):
            iq.equivalence_report(fam, 0.5, np.inf)

    def test_empty_family_inconclusive(self):
        rep = iq.equivalence_report([], 0.5, 2.0)
        assert rep.verdict == "inconclusive"
        assert rep.family == "degenerate"
        assert rep.max_ratio == 0.0 and rep.samples == []

    def test_hundred_sample_ratio_interval(self):
        # ratios stay inside a fixed two-sided interval across a large family
        g = grid1(N=128)
        fam = iq.bump_family(g, 50, seed=0) + iq.bandlimited_family(g, 50, seed=1)
        rep = iq.equivalence_report(fam, 0.5, 2.0)
        ratios = [row["ratio"] for row in rep.samples]
        assert len(ratios) == 100
        assert min(ratios) > 1.0 / iq.EQUIVALENCE_CAP
        assert max(ratios) < iq.EQUIVALENCE_CAP


class TestPoincare:
    def test_eigensolve_matches_dense_oracle(self):
        # independent oracle: assemble the interior operator densely and use
        # a direct symmetric eigensolver
        g = grid1(N=64, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.75) & (x <= 1.25)
        s = 0.5
        est = iq.poincare_constant(g, mask, s, 2.0, tol=1e-10)
        idx = np.where(mask)[0]
        ops = fo._RieszOps(g, s)

        def T(u):
            return np.where(mask, ops.elliptic(np.ones(64), u), 0.0)

        dense = np.zeros((idx.size, idx.size))
        for col, i in enumerate(idx):
            e = np.zeros(64)
            e[i] = 1.0
            dense[:, col] = T(e)[idx]
        lam_min = np.linalg.eigvalsh(0.5 * (dense + dense.T))[0]
        assert abs(est.eigenvalue - lam_min) <= 1e-8 * lam_min
        assert abs(est.constant - lam_min**-0.5) <= 1e-8 * est.constant
        assert est.converged

    @pytest.mark.parametrize("n", [2, 3])
    def test_weighted_eigensolve_matches_dense_oracle(self, n):
        # the p = 2 pencil K u = lambda B u with a power weight, on a 2D box
        # and a 3D ball of 57 points: K assembled column by column, lambda_1
        # from the symmetric matrix B^(-1/2) K B^(-1/2)
        g = make_grid(GridSpec(n=n, N=16, L=2.0))
        r = [c - 1.0 for c in g.coords()]
        if n == 2:
            mask = (np.abs(r[0]) <= 0.45) & (np.abs(r[1]) <= 0.45)
        else:
            mask = sum(c * c for c in r) <= 0.3 ** 2
            assert mask.sum() == 57
        w = wt.power_weight(g, [1.0] * n, 0.5, 2.0)
        est = iq.poincare_constant(g, mask, 0.5, 2.0, w=w, tol=1e-10)
        assert est.method == "lobpcg" and est.converged
        idx = np.flatnonzero(mask)
        ops = fo._RieszOps(g, 0.5)
        dense = np.zeros((idx.size, idx.size))
        for col, i in enumerate(idx):
            e = np.zeros(g.spec.shape)
            e.flat[i] = 1.0
            dense[:, col] = ops.elliptic(w.values, e).ravel()[idx]
        binv = 1.0 / np.sqrt(w.values.ravel()[idx])
        sym = binv[:, None] * dense * binv
        lam_min = np.linalg.eigvalsh(0.5 * (sym + sym.T))[0]
        assert abs(est.eigenvalue - lam_min) <= 1e-8 * lam_min

    @pytest.mark.parametrize("alpha,eigenvalue", [
        (2.0, 10.437485805997719),
        (3.0, 11.730613308265458),
    ])
    def test_weight_outside_a2_within_default_cap(self, alpha, eigenvalue):
        # |x - 1|^alpha is not an A_2 weight for alpha >= 1; the eigenvalues
        # are those of exact inverse iteration
        g = grid1(N=256, L=2.0)
        x = g.axes[0]
        w = wt.power_weight(g, [1.0], alpha, 2.0)
        est = iq.poincare_constant(g, (x >= 0.75) & (x <= 1.25), 0.5, 2.0, w=w)
        assert est.converged
        assert abs(est.eigenvalue - eigenvalue) <= 1e-10 * eigenvalue

    def test_p2_one_operator_application_per_step(self, monkeypatch):
        # LOBPCG runs no inner solve and applies grad^s once per step, plus
        # the start's K x and the fresh residual at the end
        calls = {"cg": 0, "grad": 0}
        cg, grad = sv._cg, fo._RieszOps.grad

        def counted_cg(*args):
            calls["cg"] += 1
            return cg(*args)

        def counted_grad(self, u):
            calls["grad"] += 1
            return grad(self, u)

        monkeypatch.setattr(sv, "_cg", counted_cg)
        monkeypatch.setattr(fo._RieszOps, "grad", counted_grad)
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        w = wt.power_weight(g, [1.0], 0.5, 2.0)
        est = iq.poincare_constant(g, (x >= 0.75) & (x <= 1.25), 0.5, 2.0, w=w)
        assert est.converged and est.iterations > 1
        assert calls["cg"] == 0
        assert calls["grad"] <= est.iterations + 4

    def test_monotone_in_domain(self):
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        small = (x >= 0.9) & (x <= 1.1)
        large = (x >= 0.7) & (x <= 1.3)
        c_small = iq.poincare_constant(g, small, 0.5, 2.0).constant
        c_large = iq.poincare_constant(g, large, 0.5, 2.0).constant
        assert c_large >= c_small

    def test_product_shape_across_s(self):
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.75) & (x <= 1.25)
        prods = []
        for s in (0.1, 0.5, 0.9):
            c = iq.poincare_constant(g, mask, s, 2.0).constant
            prods.append(c * (1.0 - 2.0**-s))
        assert max(prods) / min(prods) <= 10.0

    def test_family_inequality_general_p(self):
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.7) & (x <= 1.3)
        fam = iq._interior_family(g, mask, seed=0)
        est = iq.poincare_constant(g, mask, 0.5, 3.0, family=fam)
        for u in fam:
            un = lp_norm(u, 3.0)
            gn = lp_norm(fo.riesz_gradient(u, 0.5), 3.0)
            assert un <= est.constant * gn * (1.0 + 1e-10)

    def test_empty_mask(self):
        g = grid1()
        with pytest.raises(ValueError, match="empty"):
            iq.poincare_constant(g, np.zeros(128, dtype=bool), 0.5, 2.0)

    def test_p_below_1_1_refused(self):
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        with pytest.raises(ValueError, match="p below 1.1"):
            iq.poincare_constant(g, (x >= 0.75) & (x <= 1.25), 0.5, 1.05)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_tolerance_not_finite_and_positive_refused(self, tol, p):
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            iq.poincare_constant(g, (x >= 0.75) & (x <= 1.25), 0.5, p, tol=tol)

    @pytest.mark.parametrize("p,alpha", [(2.0, 0.5), (3.0, 0.5), (1.5, 0.0), (3.0, 0.0)])
    def test_whole_torus_refused(self, p, alpha):
        # on the whole torus T u is mean-free and w |u|^(p-2) u is not unless
        # p = 2 and w is constant, so the eigen-residual cannot vanish
        g = grid1(N=64, L=2.0)
        w = wt.power_weight(g, [1.0], alpha, p)
        with pytest.raises(ValueError, match="whole torus"):
            iq.poincare_constant(g, np.ones(64, dtype=bool), 0.5, p, w=w)

    @pytest.mark.parametrize("w", [None, 2.0])
    def test_constant_weight_whole_torus(self, w):
        # the first nonzero eigenvalue of (-Lap)^(1/2) on a torus of side 2
        g = grid1(N=64, L=2.0)
        if w is not None:
            w = wt.tabulated_weight(g, np.full(64, w), 2.0)
        est = iq.poincare_constant(g, np.ones(64, dtype=bool), 0.5, 2.0, w=w)
        assert est.converged and abs(est.eigenvalue - np.pi) <= 1e-8 * np.pi

    def test_ratio_well_defined(self):
        # a nonzero interior-supported field never has a vanishing gradient
        # (it is nonconstant, so some nonzero mode survives the symbol)
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.7) & (x <= 1.3)
        for u in iq._interior_family(g, mask, seed=9):
            if np.any(u.values != 0.0):
                assert lp_norm(fo.riesz_gradient(u, 0.5), 2) > 0.0

    def test_weighted_eigensolve(self):
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.75) & (x <= 1.25)
        w = wt.power_weight(g, [1.0], 0.5, 2.0)
        est = iq.poincare_constant(g, mask, 0.5, 2.0, w=w)
        assert est.converged
        # the estimated constant dominates random interior samples
        for u in iq._interior_family(g, mask, seed=3):
            un = lp_norm(u, 2.0, w)
            gn = lp_norm(fo.riesz_gradient(u, 0.5), 2.0, w)
            assert un <= est.constant * gn * (1.0 + 1e-8)

    def test_cut_at_max_iter_not_converged(self):
        g = grid1(N=256, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.75) & (x <= 1.25)
        est = iq.poincare_constant(g, mask, 0.5, 3.0, max_iter=5)
        assert est.method == "inverse_power"
        assert est.iterations == 5
        assert est.converged is False

    def test_failed_inner_cg_not_converged(self, monkeypatch):
        # the inner solves are exact but flagged as failed: the outer
        # iteration still meets its tolerance, and the estimate must not
        # claim convergence (p = 3: the p = 2 estimate runs no inner solve)
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.75) & (x <= 1.25)
        assert iq.poincare_constant(g, mask, 0.5, 3.0).converged
        cg = sv._cg
        monkeypatch.setattr(sv, "_cg", lambda *a, **k: (*cg(*a, **k)[:2], False))
        est = iq.poincare_constant(g, mask, 0.5, 3.0)
        assert est.residual < 1e-8
        assert est.converged is False

    @pytest.mark.parametrize("p,constant,iterations", [
        (1.5, 0.4734798025681736, 51),
        (2.0, 0.476107199173065, 21),
        (3.0, 0.5001976185272264, 55),
        (4.0, 0.5295174386742938, 44),
        (6.0, 0.5800511879452922, 38),
    ])
    def test_pinned_estimates(self, p, constant, iterations):
        # constants and iteration counts pinned when the inverse power loop
        # took line-minimized Kacanov steps (LOBPCG at p = 2); a step rule may
        # cut the count but not move the constant.  At p = 1.5 the forced solves
        # of the quotient step take at most half the CG of exact ones (606)
        g = grid1(N=256, L=2.0)
        x = g.axes[0]
        est = iq.poincare_constant(g, (x >= 0.75) & (x <= 1.25), 0.5, p)
        assert abs(est.constant - constant) <= 1e-10 * constant
        assert est.iterations <= iterations
        assert est.inner_iterations <= {1.5: 303}.get(p, np.inf)

    def test_pinned_disc_estimate(self):
        # the constant and iteration count of the loop with energy-minimized
        # steps on a 2D disc at p = 3; a step rule may cut the count but not
        # move the constant
        g = make_grid(GridSpec(n=2, N=32, L=2.0))
        X, Y = g.coords()
        mask = (X - 1.0) ** 2 + (Y - 1.0) ** 2 <= 0.3 ** 2
        est = iq.poincare_constant(g, mask, 0.5, 3.0)
        constant = 0.45221274098815817
        assert est.converged
        assert abs(est.constant - constant) <= 1e-10 * constant
        assert est.iterations <= 125

    def test_pinned_disc_estimate_below_2(self):
        # the same disc at p = 1.5; its steps took 683 CG as exact Kacanov
        # steps, and forced solves with the quotient's step take at most half
        g = make_grid(GridSpec(n=2, N=32, L=2.0))
        X, Y = g.coords()
        mask = (X - 1.0) ** 2 + (Y - 1.0) ** 2 <= 0.3 ** 2
        est = iq.poincare_constant(g, mask, 0.5, 1.5)
        constant = 0.354915322078205
        assert est.converged
        assert abs(est.constant - constant) <= 1e-10 * constant
        assert est.inner_iterations <= 341

    @pytest.mark.parametrize("p,constant,iterations,inner", [
        (1.5, 0.28348172632621293, 45, 115),
        (3.0, 0.4205318852380666, 100, 251),
    ])
    def test_pinned_ball_estimate_3d(self, p, constant, iterations, inner):
        # the inverse power loop on a 3D ball of 57 points with the default
        # weight; a step rule may cut the counts but not move the constant
        g = make_grid(GridSpec(n=3, N=16, L=2.0))
        mask = sum((c - 1.0) ** 2 for c in g.coords()) <= 0.3 ** 2
        est = iq.poincare_constant(g, mask, 0.5, p)
        assert est.converged
        assert abs(est.constant - constant) <= 1e-10 * constant
        assert est.iterations <= iterations
        assert est.inner_iterations <= inner

    def test_near_one_s_below_2_converges(self):
        # at p = 1.5, s = 0.9 an exact retry of each refused step left the
        # loop at residual 2e-7 after 200 steps and 482 CG; the energy step
        # on the forced solve converges, to the same constant
        g = grid1(N=256, L=2.0)
        x = g.axes[0]
        est = iq.poincare_constant(g, (x >= 0.75) & (x <= 1.25), 0.9, 1.5)
        constant = 0.21182571017165683
        assert est.converged
        assert abs(est.constant - constant) <= 1e-10 * constant
        assert est.inner_iterations <= 482

    def test_quotient_minimum_finite_at_exact_zeros(self):
        # below p = 2 the quotient's |u|^(p-2) and |grad^s u|^(p-2) are
        # infinite where u or grad^s u vanish; the loop's step from an
        # iterate that vanishes on part of Omega must still be finite and
        # lower R, and any invalid power would raise as a warning
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.7) & (x <= 1.3)
        p = 1.5
        v = bump(g, [0.9], 0.15, 1.0).values
        assert np.any(mask & (v == 0.0))
        w = wt.tabulated_weight(g, np.ones(g.spec.shape), p)
        prob = sv.PDEProblem(g, mask, 0.5, p, w, ScalarField(g, np.zeros(g.spec.shape)))
        # the loop's start: u0 = v lambda^(-1/(p-1)) with f = B v
        f = prob.project(np.sign(v) * np.abs(v) ** (p - 1.0))
        lam = np.sum(v * sv._residual(prob, prob.kit.grad(v), 0.0)) / np.sum(v * f)
        u = v * lam ** (-1.0 / (p - 1.0))
        gu = prob.kit.grad(u)
        a = sv._coeff(w.values, p, gu, 0.0)
        uhat, _ = sv._solve_frozen(prob, a, f, u, 1e-12)
        d = prob.project(uhat - u)
        gd = prob.kit.grad(d)

        def R(t):
            ut, gt = u + t * d, [c + t * cd for c, cd in zip(gu, gd)]
            m = sum(c * c for c in gt)
            return np.sum(m ** (p / 2.0)) / np.sum(np.abs(ut) ** p)

        t = sv._quotient_minimum(prob, u, gu, d, gd)
        assert t is not None and np.isfinite(t) and t > 0.0
        assert R(t) <= R(0.0)
        # the slope at t = 0 is linear in d: along -d, R rises, so no step
        assert sv._quotient_minimum(prob, u, gu, -d, [-c for c in gd]) is None

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_fallback_keeps_the_estimate(self, monkeypatch, p):
        # reject the quotient's step on a fixed schedule, so that those steps
        # fall back to the Kacanov step on the same solve; lambda must still
        # never rise and the constant not move
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.7) & (x <= 1.3)
        reference = iq.poincare_constant(g, mask, 0.5, p)
        calls, tols, fallbacks = [], [], []
        minimum, solve, update = sv._quotient_minimum, sv._solve_frozen, sv._damped_update

        def rejecting(*args):
            calls.append(None)
            return None if len(calls) % 5 in (1, 2, 4) else minimum(*args)

        def solve_frozen(prob, a, b, x0, tol):
            tols.append(tol)
            return solve(prob, a, b, x0, tol)

        def damped_update(*args):
            fallbacks.append(None)
            return update(*args)

        monkeypatch.setattr(sv, "_quotient_minimum", rejecting)
        monkeypatch.setattr(sv, "_solve_frozen", solve_frozen)
        monkeypatch.setattr(sv, "_damped_update", damped_update)
        eigs = []
        for k in range(1, 9):
            calls.clear()
            eigs.append(iq.poincare_constant(g, mask, 0.5, p, max_iter=k).eigenvalue)
        assert all(b <= a for a, b in zip(eigs, eigs[1:]))
        calls.clear()
        tols.clear()
        fallbacks.clear()
        est = iq.poincare_constant(g, mask, 0.5, p)
        assert est.converged
        assert abs(est.constant - reference.constant) <= 1e-10 * reference.constant
        # a fallback steps on the forced solve: no solve is retried at 1e-12
        assert fallbacks and sv._INNER_TOL not in tols

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_fallback_transforms_the_step_once(self, monkeypatch, p):
        # every quotient step is refused, so every step falls back to the
        # energy step along the same d: the quotient's search and the energy
        # step share one grad^s d
        grad, steps, inputs = fo._RieszOps.grad, [], []

        def counted_grad(self, u):
            inputs.append(u)
            return grad(self, u)

        def rejecting(prob, u, gu, d, gd):
            steps.append(d)
            return None

        monkeypatch.setattr(fo._RieszOps, "grad", counted_grad)
        monkeypatch.setattr(sv, "_quotient_minimum", rejecting)
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        est = iq.poincare_constant(g, (x >= 0.7) & (x <= 1.3), 0.5, p, max_iter=3)
        assert est.iterations == len(steps) == 3
        assert [sum(v is d for v in inputs) for d in steps] == [1, 1, 1]

    def test_one_operator_kit_per_estimate(self, monkeypatch):
        # the steps share the estimate's operators instead of rebuilding
        # them (and their symbols) per step
        made = []

        class Counted(fo._RieszOps):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fo, "_RieszOps", Counted)
        monkeypatch.setattr(sv, "_RieszOps", Counted)
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        est = iq.poincare_constant(g, (x >= 0.75) & (x <= 1.25), 0.5, 3.0)
        assert est.iterations > 1
        assert len(made) == 1

    def test_one_problem_per_estimate(self, monkeypatch):
        # the steps change only the solve state's right-hand side, not the
        # problem
        made = []
        post_init = sv.PDEProblem.__post_init__

        def counted(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(sv.PDEProblem, "__post_init__", counted)
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        est = iq.poincare_constant(g, (x >= 0.75) & (x <= 1.25), 0.5, 3.0)
        assert est.iterations > 1
        assert len(made) == 1

    @pytest.mark.parametrize("member", [
        pytest.param(lambda g: np.zeros(256), id="zero"),
        pytest.param(lambda g: bump(g, [0.4], 0.2).values, id="outside omega"),
    ])
    def test_no_usable_member_refused(self, member):
        g = grid1(N=256, L=2.0)
        x = g.axes[0]
        family = [ScalarField(g, member(g))]
        with pytest.raises(ValueError, match="no usable family member inside the mask"):
            iq.poincare_constant(g, (x >= 0.75) & (x <= 1.25), 0.5, 3.0, family=family)

    def test_general_p_converges(self):
        # the default case of `rieszgrad poincare --s 0.5 --p 3`
        g = grid1(N=256, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.75) & (x <= 1.25)
        est = iq.poincare_constant(g, mask, 0.5, 3.0)
        assert est.converged is True
        assert est.residual < 1e-8
        assert est.constant == est.eigenvalue ** (-1.0 / 3.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0, 6.0])
    def test_eigenvalue_non_increasing(self, p):
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.7) & (x <= 1.3)
        fam = iq._interior_family(g, mask, seed=0)
        best = max(
            lp_norm(u, p) / lp_norm(fo.riesz_gradient(u, 0.5), p) for u in fam
        )
        eigs = []
        for k in range(1, 6):
            est = iq.poincare_constant(g, mask, 0.5, p, max_iter=k, family=fam)
            assert est.iterations == k
            assert est.constant >= best * (1.0 - 1e-12)
            eigs.append(est.eigenvalue)
        assert all(b <= a for a, b in zip(eigs, eigs[1:]))

    def test_rhs_finite_at_exact_zeros(self):
        # p = 1.5 puts |u|^(p-1) = |u|^(1/2) on an iterate that vanishes on
        # half the interior; any invalid power would raise as a warning
        g = grid1(N=128, L=2.0)
        x = g.axes[0]
        mask = (x >= 0.7) & (x <= 1.3)
        u = bump(g, [0.9], 0.15, 1.0)
        assert np.any(mask & (u.values == 0.0))
        est = iq.poincare_constant(g, mask, 0.5, 1.5, max_iter=3, family=[u])
        assert np.isfinite(est.eigenvalue) and np.isfinite(est.residual)
        assert est.eigenvalue > 0.0


class TestGagliardoNirenberg:
    def test_endpoint_r_equals_s(self):
        g = grid1()
        fam = iq.standard_family(g, seed=0, bumps=2, modes=2)
        rep = iq.gn_report(fam, 0.3, 0.3, 0.7, 2.0)
        assert abs(rep.max_ratio - 1.0) <= 1e-12

    def test_endpoint_s_equals_t(self):
        g = grid1()
        fam = iq.standard_family(g, seed=0, bumps=2, modes=2)
        rep = iq.gn_report(fam, 0.1, 0.7, 0.7, 2.0)
        assert abs(rep.max_ratio - 1.0) <= 1e-12

    def test_single_mode_equality(self):
        g = grid1(N=256)
        for k in (1, 5, 17):
            u = sample(lambda x, k=k: np.sin(2 * np.pi * k * x), g)
            rep = iq.gn_report([u], 0.2, 0.45, 0.9, 2.0)
            assert abs(rep.max_ratio - 1.0) <= 1e-12

    def test_zero_endpoint_uses_identity(self):
        g = grid1(N=256)
        u = sample(lambda x: np.sin(2 * np.pi * 3 * x), g)
        rep = iq.gn_report([u], 0.0, 0.5, 1.0, 2.0)
        assert abs(rep.max_ratio - 1.0) <= 1e-12

    def test_parameter_order_rejected(self):
        g = grid1()
        fam = iq.standard_family(g, seed=0, bumps=1, modes=1)
        with pytest.raises(ValueError, match="need 0 <= r"):
            iq.gn_report(fam, 0.5, 0.3, 0.7, 2.0)
        with pytest.raises(ValueError, match="need 0 <= r"):
            iq.gn_report(fam, 0.5, 0.5, 0.5, 2.0)

    def test_family_bounded(self):
        g = grid1(N=256)
        fam = iq.standard_family(g, seed=0)
        w = wt.power_weight(g, [0.5], 0.5, 2.5)
        rep = iq.gn_report(fam, 0.1, 0.4, 0.8, 2.5, w)
        assert rep.verdict == "bounded"

    def test_zero_family_inconclusive(self):
        # every member's denominator vanishes: each is skipped, and the
        # report is inconclusive rather than a refusal
        g = grid1()
        zero = ScalarField(g, np.zeros(128))
        rep = iq.gn_report([zero, zero], 0.2, 0.5, 0.8, 2.0)
        assert rep.verdict == "inconclusive"
        assert rep.family == "degenerate" and rep.samples == []


class TestSobolev:
    def test_conjugate_value(self):
        assert abs(iq.sobolev_conjugate(2, 0.5, 2.0) - 4.0) < 1e-15

    def test_critical_rejected(self):
        with pytest.raises(ValueError, match="s\\*p < n"):
            iq.sobolev_conjugate(1, 0.5, 2.0)

    def test_unweighted_reduces_and_bounded(self):
        g = make_grid(GridSpec(n=2, N=64, L=1.0))
        fam = iq.standard_family(g, seed=0, bumps=4, modes=2)
        one = wt.tabulated_weight(g, np.ones((64, 64)), 2.0)
        rep = iq.sobolev_report(fam, 0.5, 2.0, one)
        assert rep.params["p_star"] == 4.0
        assert rep.verdict == "bounded"

    def test_weighted_bounded(self):
        g = make_grid(GridSpec(n=2, N=64, L=1.0))
        fam = iq.standard_family(g, seed=1, bumps=4, modes=2)
        w = wt.power_weight(g, [0.5, 0.5], 0.5, 2.0)
        rep = iq.sobolev_report(fam, 0.5, 2.0, w)
        assert rep.verdict == "bounded"

    def test_zero_gradient_family_inconclusive(self):
        g = make_grid(GridSpec(n=2, N=32, L=1.0))
        fam = [ScalarField(g, np.full((32, 32), c)) for c in (1.0, -2.0)]
        w = wt.tabulated_weight(g, np.ones((32, 32)), 2.0)
        rep = iq.sobolev_report(fam, 0.5, 2.0, w)
        assert rep.verdict == "inconclusive"
        assert rep.samples == []


class TestSLimit:
    def test_single_mode_exact_error(self):
        g = grid1(N=128)
        k = 3
        u = sample(lambda x: np.sin(2 * np.pi * k * x), g)
        rep = iq.s_limit_report(u, s_values=(0.9, 0.99))
        for row in rep.samples:
            expected = abs((2 * np.pi * k) ** (row["s"] - 1.0) - 1.0)
            assert abs(row["relative_error"] - expected) <= 1e-10

    def test_monotone_and_small(self):
        g = grid1(N=256)
        u = iq.bandlimited_family(g, 1, seed=0)[0]
        rep = iq.s_limit_report(u)
        errs = [r["relative_error"] for r in rep.samples]
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-2
        assert rep.verdict == "bounded"

    def test_constant_degenerate(self):
        g = grid1()
        rep = iq.s_limit_report(ScalarField(g, np.ones(128)))
        assert rep.verdict == "inconclusive"

    def test_max_ratio_is_the_largest_error(self):
        # s values out of order: the largest error is not the first
        g = grid1(N=256)
        u = sample(lambda x: np.sin(2 * np.pi * 3 * x), g)
        rep = iq.s_limit_report(u, s_values=(0.999, 0.9))
        errs = [row["relative_error"] for row in rep.samples]
        assert errs[0] < errs[1]
        assert rep.max_ratio == errs[1]

    def test_empty_s_values_refused(self):
        g = grid1()
        u = sample(lambda x: np.sin(2 * np.pi * x), g)
        with pytest.raises(ValueError, match="s_values"):
            iq.s_limit_report(u, s_values=())

    def test_verdict_does_not_depend_on_the_order_of_s(self):
        g = grid1(N=256)
        u = sample(lambda x: np.sin(2 * np.pi * 3 * x), g)
        up = iq.s_limit_report(u, s_values=(0.9, 0.999))
        down = iq.s_limit_report(u, s_values=(0.999, 0.9))
        assert up.verdict == down.verdict == "bounded"


class TestDualRepresentation:
    def test_zero_functional(self):
        g = grid1()
        zero = ScalarField(g, np.zeros(128))
        gv = VectorField(g, (zero,))
        fam = iq.standard_family(g, seed=0, bumps=2, modes=1)
        w = wt.power_weight(g, [0.5], 0.5, 2.0)
        rep = iq.dual_representation_check(gv, fam, 0.5, 2.0, w)
        assert all(row["pairing"] == 0.0 for row in rep.samples)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_holder_equality_family(self, p):
        g = grid1(N=256)
        w = wt.power_weight(g, [0.5], 0.5, p)
        u = iq.standard_family(g, seed=2, bumps=1, modes=0)[0]
        gr = fo.riesz_gradient(u, 0.5)
        mag = gr.magnitude()
        nz = mag > 0
        safe = np.where(nz, mag, 1.0)
        comps = tuple(
            ScalarField(g, np.where(nz, w.values * safe ** (p - 2.0) * c.values, 0.0))
            for c in gr.components
        )
        gv = VectorField(g, comps)
        rep = iq.dual_representation_check(gv, [u], 0.5, p, w)
        assert abs(rep.max_ratio - 1.0) <= 1e-10

    def test_random_samples_no_violation(self):
        rng = np.random.default_rng(5)
        g = grid1()
        w = wt.power_weight(g, [0.5], 0.5, 2.0)
        fam = iq.standard_family(g, seed=3, bumps=5, modes=5)
        for trial in range(10):
            comps = tuple(
                ScalarField(g, rng.standard_normal(128)) for _ in range(1)
            )
            gv = VectorField(g, comps)
            rep = iq.dual_representation_check(gv, fam, 0.4, 2.0, w)
            assert rep.verdict == "bounded"

    def test_empty_family_inconclusive(self):
        g = grid1()
        gv = VectorField(g, (ScalarField(g, np.ones(128)),))
        w = wt.power_weight(g, [0.5], 0.5, 2.0)
        rep = iq.dual_representation_check(gv, [], 0.5, 2.0, w)
        assert rep.verdict == "inconclusive"
        assert rep.median_ratio == 0.0


    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_bounds_inconclusive(self, n):
        # a constant field has zero fractional gradient and a zero field a
        # zero one: every Hoelder bound is 0, so no pairing is tested
        g = make_grid(GridSpec(n=n, N=16, L=1.0))
        fam = [ScalarField(g, np.full(g.spec.shape, 3.0)),
               ScalarField(g, np.zeros(g.spec.shape))]
        gv = VectorField(g, tuple(ScalarField(g, np.ones(g.spec.shape))
                                  for _ in range(n)))
        w = wt.tabulated_weight(g, np.ones(g.spec.shape), 2.0)
        rep = iq.dual_representation_check(gv, fam, 0.5, 2.0, w)
        assert [row["bound"] for row in rep.samples] == [0.0, 0.0]
        assert rep.verdict == "inconclusive"
        assert rep.family == "degenerate"

    @pytest.mark.parametrize("p", [1.0, 0.5, np.inf, np.nan])
    def test_exponent_outside_range_refused(self, p):
        # p = 1 has no dual exponent: it is refused as the others are, not
        # divided by zero
        g = grid1()
        gv = VectorField(g, (ScalarField(g, np.ones(128)),))
        w = wt.tabulated_weight(g, np.ones(128), 2.0)
        fam = iq.standard_family(g, seed=0, bumps=1, modes=0)
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            iq.dual_representation_check(gv, fam, 0.5, p, w)


class TestEmbeddingChain:
    def test_h_norm_monotone_in_order_p2(self):
        # ||Lambda_{-t} u||_2 <= ||Lambda_{-s} u||_2 exactly for t < s
        g = grid1(N=128)
        fam = iq.standard_family(g, seed=4, bumps=3, modes=3)
        for u in fam:
            ht = lp_norm(fo.bessel_potential(u, -0.3), 2)
            hs = lp_norm(fo.bessel_potential(u, -0.7), 2)
            assert ht <= hs * (1.0 + 1e-12)

    def test_weighted_chain_with_calibrated_constant(self):
        g = grid1(N=128)
        w = wt.power_weight(g, [0.5], 0.5, 2.0)
        fam = iq.standard_family(g, seed=4, bumps=3, modes=3)
        # calibrated on this family: the weighted chain constant stays below 2
        for u in fam:
            ht = lp_norm(fo.bessel_potential(u, -0.3), 2, w)
            hs = lp_norm(fo.bessel_potential(u, -0.7), 2, w)
            assert ht <= 2.0 * hs


def test_band_limit_removes_top_octave():
    g = grid1(N=64)
    rng = np.random.default_rng(0)
    u = ScalarField(g, rng.standard_normal(64))
    v = iq.band_limit(u, fraction=0.25)
    F = np.fft.fft(v.values)
    k = np.fft.fftfreq(64, d=1 / 64)
    assert np.max(np.abs(F[np.abs(k) > 16])) < 1e-12
