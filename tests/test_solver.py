"""PDE problem assembly, operators, energies, and solver tests."""

import numpy as np
import pytest

from rieszgrad.grid import GridSpec, ScalarField, VectorField, bump, lp_norm, make_grid
from rieszgrad import fracops as fo
from rieszgrad import solver as sv
from rieszgrad import weights as wt
from rieszgrad.inequalities import band_limit, poincare_constant


def setup_1d(N=128, L=2.0, lo=0.6, hi=1.4):
    g = make_grid(GridSpec(n=1, N=N, L=L))
    x = g.axes[0]
    mask = (x >= lo) & (x <= hi)
    w = wt.tabulated_weight(g, np.ones(g.spec.shape), 2.0)
    return g, mask, w


def interior_fields(g, mask, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        vals = np.where(mask, rng.standard_normal(g.spec.shape), 0.0)
        u = band_limit(ScalarField(g, vals), fraction=0.2)
        out.append(ScalarField(g, np.where(mask, u.values, 0.0)))
    return out


class TestProblemValidation:
    def test_margin_rejected(self):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        mask = np.ones(64, dtype=bool)
        mask[:2] = False  # touches the seam
        w = wt.tabulated_weight(g, np.ones(64), 2.0)
        f = ScalarField(g, np.zeros(64))
        with pytest.raises(ValueError, match="margin"):
            sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w, rhs=f)

    def test_full_torus_allowed(self):
        g = make_grid(GridSpec(n=1, N=64, L=1.0))
        w = wt.tabulated_weight(g, np.ones(64), 2.0)
        f = ScalarField(g, np.zeros(64))
        prob = sv.PDEProblem(grid=g, mask=np.ones(64, dtype=bool), s=0.5, p=2.0,
                             weight=w, rhs=f)
        assert prob.full_torus

    def test_exterior_requires_p2(self):
        g, mask, w = setup_1d()
        f = ScalarField(g, np.zeros(g.spec.shape))
        gfield = ScalarField(g, np.ones(g.spec.shape))
        with pytest.raises(ValueError, match="p = 2"):
            sv.PDEProblem(grid=g, mask=mask, s=0.5, p=3.0, weight=w, rhs=f,
                          exterior=gfield)

    def test_matrix_symmetry_checked(self):
        g, mask, w = setup_1d()
        g2 = make_grid(GridSpec(n=2, N=32, L=2.0))
        X, Y = g2.coords()
        mask2 = ((X - 1) ** 2 + (Y - 1) ** 2) <= 0.4**2
        w2 = wt.tabulated_weight(g2, np.ones((32, 32)), 2.0)
        A = np.zeros((2, 2, 32, 32))
        A[0, 0] = A[1, 1] = 1.0
        A[0, 1] = 0.3
        A[1, 0] = -0.3
        f = ScalarField(g2, np.zeros((32, 32)))
        with pytest.raises(ValueError, match="symmetric"):
            sv.PDEProblem(grid=g2, mask=mask2, s=0.5, p=2.0, weight=w2, rhs=f,
                          matrix=A, c1=0.5, c2=2.0)

    def test_ellipticity_sampled(self):
        g2 = make_grid(GridSpec(n=2, N=32, L=2.0))
        X, Y = g2.coords()
        mask2 = ((X - 1) ** 2 + (Y - 1) ** 2) <= 0.4**2
        w2 = wt.tabulated_weight(g2, np.ones((32, 32)), 2.0)
        A = np.zeros((2, 2, 32, 32))
        A[0, 0] = 1.0
        A[1, 1] = 5.0  # exceeds c2 = 2
        f = ScalarField(g2, np.zeros((32, 32)))
        with pytest.raises(sv.EllipticityError):
            sv.PDEProblem(grid=g2, mask=mask2, s=0.5, p=2.0, weight=w2, rhs=f,
                          matrix=A, c1=0.5, c2=2.0)


def problem_1d(**changes):
    """The 1D problem of setup_1d at s = 1/2, p = 2 with zero data, with the
    given fields replaced."""
    g, mask, w = setup_1d()
    fields = dict(grid=g, mask=mask, s=0.5, p=2.0, weight=w,
                  rhs=ScalarField(g, np.zeros(g.spec.shape)))
    fields.update(changes)
    return sv.PDEProblem(**fields)


#: setup_1d's grid is n = 1, N = 128, L = 2; these live on N = 64
OTHER_GRID = make_grid(GridSpec(n=1, N=64, L=2.0))
OTHER_FIELD = ScalarField(OTHER_GRID, np.zeros(64))
#: the identity matrix field on setup_1d's grid: elliptic with c1 = c2 = 1
IDENTITY = np.ones((1, 1, 128))


def identity_with(value):
    """IDENTITY with one entry replaced."""
    A = IDENTITY.copy()
    A[0, 0, 64] = value
    return A



@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: problem_1d(mask=np.ones(64, dtype=bool)),
                 "mask shape does not match grid", id="mask shape"),
    pytest.param(lambda: problem_1d(s=0.0), r"s must lie in \(0, 1\), got 0.0", id="s=0"),
    pytest.param(lambda: problem_1d(s=1.0), r"s must lie in \(0, 1\), got 1.0", id="s=1"),
    pytest.param(lambda: problem_1d(p=1.0), "p must exceed 1, got 1.0", id="p=1"),
    pytest.param(lambda: problem_1d(p=np.inf), "p must be finite, got inf", id="p=inf"),
    pytest.param(lambda: problem_1d(weight=wt.tabulated_weight(OTHER_GRID, np.ones(64), 2.0)),
                 "weight lives on a different grid", id="weight grid"),
    pytest.param(lambda: problem_1d(rhs=OTHER_FIELD),
                 "rhs lives on a different grid", id="rhs grid"),
    pytest.param(lambda: problem_1d(exterior=OTHER_FIELD),
                 "exterior data lives on a different grid", id="exterior grid"),
    pytest.param(lambda: problem_1d(matrix=np.ones((1, 1, 64)), c1=1.0, c2=1.0),
                 r"matrix field must have shape \(1, 1, 128\)", id="matrix shape"),
    pytest.param(lambda: problem_1d(p=3.0, matrix=IDENTITY, c1=1.0, c2=1.0),
                 "matrix coefficients are supported only for p = 2", id="matrix p=3"),
    pytest.param(lambda: problem_1d(matrix=IDENTITY),
                 "need ellipticity constants 0 < c1 <= c2", id="c1 c2 missing"),
    pytest.param(lambda: problem_1d(matrix=IDENTITY, c1=2.0, c2=1.0),
                 "need ellipticity constants 0 < c1 <= c2", id="c1 > c2"),
    pytest.param(lambda: problem_1d(matrix=IDENTITY, c1=1.0, c2=np.inf),
                 r"0 < c1 <= c2 < inf, got c1 = 1.0, c2 = inf", id="c2=inf"),
    pytest.param(lambda: problem_1d(matrix=IDENTITY, c1=np.inf, c2=np.inf),
                 r"0 < c1 <= c2 < inf, got c1 = inf, c2 = inf", id="c1=c2=inf"),
    pytest.param(lambda: problem_1d(matrix=IDENTITY, c1=np.nan, c2=1.0),
                 r"0 < c1 <= c2 < inf, got c1 = nan, c2 = 1.0", id="c1=nan"),
    pytest.param(lambda: problem_1d(matrix=identity_with(np.nan), c1=1.0, c2=1.0),
                 "matrix field contains NaN or Inf", id="matrix nan"),
    pytest.param(lambda: problem_1d(matrix=identity_with(np.inf), c1=1.0, c2=1.0),
                 "matrix field contains NaN or Inf", id="matrix inf"),
    pytest.param(lambda: sv.solve_linear(problem_1d(p=3.0)),
                 "solve_linear requires p = 2", id="solve_linear p=3"),
    pytest.param(lambda: sv.solve_plaplace(problem_1d(
        exterior=ScalarField(setup_1d()[0], np.ones(128)))),
                 "solve_plaplace requires homogeneous exterior data", id="plaplace exterior"),
    pytest.param(lambda: sv.solve_plaplace(problem_1d(matrix=IDENTITY, c1=1.0, c2=1.0)),
                 r"matrix coefficients are linear-path only \(p = 2\)", id="plaplace matrix"),
    pytest.param(lambda: sv.solve_plaplace(problem_1d(p=3.0), "gauss-seidel"),
                 "unknown method 'gauss-seidel'", id="plaplace method"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


#: stopping tolerances that are not finite and positive
BAD_TOLS = [0.0, -1.0, np.nan, np.inf]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_solve_linear_refuses_tolerance(tol):
    # on a manufactured bump, -1 once stopped as converged after one CG
    # iteration at relative residual 0.28, and NaN ran on into an
    # EllipticityError
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        sv.solve_linear(problem_1d(), tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_solve_plaplace_refuses_tolerance(tol):
    # on a manufactured bump at p = 3, NaN and -1 once stopped after 33
    # steps "at its round-off floor"
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        sv.solve_plaplace(problem_1d(p=3.0), tol=tol)


class TestApplyOperator:
    def test_full_torus_sine(self):
        g = make_grid(GridSpec(n=1, N=128, L=1.0))
        w = wt.tabulated_weight(g, np.ones(128), 2.0)
        x = g.axes[0]
        u = ScalarField(g, np.sin(2 * np.pi * x))
        prob = sv.PDEProblem(grid=g, mask=np.ones(128, dtype=bool), s=0.6, p=2.0,
                             weight=w, rhs=ScalarField(g, np.zeros(128)))
        out = sv.apply_operator(prob, u)
        expected = (2 * np.pi) ** 1.2 * np.sin(2 * np.pi * x)
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_zero_input(self):
        g, mask, w = setup_1d()
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=3.0, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        out = sv.apply_operator(prob, ScalarField(g, np.zeros(g.spec.shape)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_matrix_identity_equals_scalar(self):
        g2 = make_grid(GridSpec(n=2, N=32, L=2.0))
        X, Y = g2.coords()
        mask2 = ((X - 1) ** 2 + (Y - 1) ** 2) <= 0.4**2
        wv = 1.0 + 0.5 * np.exp(-((X - 1) ** 2 + (Y - 1) ** 2))
        w2 = wt.tabulated_weight(g2, wv, 2.0)
        A = np.zeros((2, 2, 32, 32))
        A[0, 0] = wv
        A[1, 1] = wv
        f = ScalarField(g2, np.zeros((32, 32)))
        scalar = sv.PDEProblem(grid=g2, mask=mask2, s=0.5, p=2.0, weight=w2, rhs=f)
        matrix = sv.PDEProblem(grid=g2, mask=mask2, s=0.5, p=2.0, weight=w2, rhs=f,
                               matrix=A, c1=1.0, c2=1.0)
        u = bump(g2, [1.0, 1.0], 0.25, 1.0)
        a = sv.apply_operator(scalar, u)
        b = sv.apply_operator(matrix, u)
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale


class TestEnergy:
    def test_zero_field(self):
        g, mask, w = setup_1d()
        f = ScalarField(g, np.sin(np.pi * g.axes[0]))
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.5, weight=w, rhs=f)
        assert sv.energy(prob, ScalarField(g, np.zeros(g.spec.shape))) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_gradient_check_central_differences(self, p):
        g, mask, w = setup_1d()
        f = bump(g, [1.0], 0.3, 1.0)
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=p, weight=w, rhs=f)
        u, v = interior_fields(g, mask, 2, seed=0)
        eps_reg = 1e-3  # keep the energy twice differentiable for the check
        step = 1e-5
        e_plus = sv.energy(prob, u + step * v, eps=eps_reg)
        e_minus = sv.energy(prob, u - step * v, eps=eps_reg)
        directional = (e_plus - e_minus) / (2 * step)
        Tu = sv.apply_operator(prob, u, eps=eps_reg)
        hn = g.h
        pairing = hn * float(np.sum((Tu.values - np.where(mask, f.values, 0.0))
                                    * v.values))
        assert abs(directional - pairing) <= 1e-6 * max(1.0, abs(pairing))

    def test_p2_quadratic_form(self):
        g, mask, w = setup_1d()
        f = bump(g, [1.0], 0.3, 1.0)
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w, rhs=f)
        (u,) = interior_fields(g, mask, 1, seed=1)
        Tu = sv.apply_operator(prob, u)
        hn = g.h
        quad = 0.5 * hn * float(np.sum(Tu.values * u.values)) - hn * float(
            np.sum(f.values * np.where(mask, u.values, 0.0))
        )
        assert abs(sv.energy(prob, u) - quad) <= 1e-12 * max(1.0, abs(quad))

    @pytest.mark.parametrize("case", ["vector 1d", "vector 2d", "torus scalar", "torus vector"])
    def test_pairing_matches_rhs_functional(self, case):
        # the energy pairs u with the interior right-hand side f; for an
        # admissible u that is the functional the rhs defines: f_vec . grad^s u
        # for a vector rhs, and f . u also when f has a mean on the full torus
        if case.startswith("vector"):
            prob = _trial_problem(1 if case.endswith("1d") else 2, "vector")
        else:
            g = make_grid(GridSpec(n=1, N=64, L=2.0))
            w = wt.power_weight(g, [1.0], 0.5, 3.0)
            f = bump(g, [1.0], 0.3, 1.0)
            rhs = fo.riesz_gradient(f, 0.5) if case.endswith("vector") else f
            prob = sv.PDEProblem(grid=g, mask=np.ones(64, dtype=bool), s=0.5, p=3.0,
                                 weight=w, rhs=rhs)
            assert prob.full_torus and abs(np.mean(f.values)) > 0.05
        g = prob.grid
        (u,) = interior_fields(g, prob.mask, 1, seed=17)
        u = ScalarField(g, prob.project(u.values))
        eps = 1e-3
        gr = fo._RieszOps(g, 0.5).grad(u.values)
        if isinstance(prob.rhs, VectorField):
            pair = sum(np.sum(c.values * gc) for c, gc in zip(prob.rhs.components, gr))
        else:
            pair = np.sum(prob.rhs.values * np.where(prob.mask, u.values, 0.0))
        old = _bulk(prob, gr, eps) - g.h ** g.spec.n * float(pair)
        assert abs(sv.energy(prob, u, eps) - old) <= 1e-12 * abs(old)


def record_kits(monkeypatch) -> list:
    """Every _RieszOps built from now on, in order."""
    made = []

    class Counted(fo._RieszOps):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fo, "_RieszOps", Counted)
    monkeypatch.setattr(sv, "_RieszOps", Counted)
    return made


class TestOneKitPerProblem:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_helpers_share_the_problem_kit(self, monkeypatch, p):
        made = record_kits(monkeypatch)
        g, mask, w = setup_1d()
        prob = sv.manufacture(g, mask, 0.5, p, w, bump(g, [1.0], 0.3, 1.0))
        u, v = interior_fields(g, mask, 2, seed=18)
        kit = prob.kit
        made.clear()
        sv.apply_operator(prob, u)
        sv.energy(prob, u)
        sv.weak_residual_norm(prob, u)
        rep = sv.solve_plaplace(prob)
        sv.monotonicity_gap(prob, u, v)
        if p == 2.0:
            sv.solve_linear(prob)
        assert rep.converged
        assert made == [] and prob.kit is kit

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_manufactured_problem_builds_one_kit(self, monkeypatch, p):
        # manufacture computes f with the kit of the problem it returns
        made = record_kits(monkeypatch)
        g, mask, w = setup_1d()
        prob = sv.manufacture(g, mask, 0.5, p, w, bump(g, [1.0], 0.3, 1.0))
        rep = sv.solve_linear(prob) if p == 2.0 else sv.solve_plaplace(prob)
        assert rep.converged
        assert len(made) == 1 and made[0] is prob.kit


class TestSolveLinear:
    def test_spectral_exact(self):
        g = make_grid(GridSpec(n=1, N=256, L=1.0))
        w = wt.tabulated_weight(g, np.ones(256), 2.0)
        x = g.axes[0]
        s = 0.5
        f = ScalarField(g, (2 * np.pi) ** (2 * s) * np.sin(2 * np.pi * x))
        prob = sv.PDEProblem(grid=g, mask=np.ones(256, dtype=bool), s=s, p=2.0,
                             weight=w, rhs=f)
        rep = sv.solve_linear(prob, tol=1e-12)
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - np.sin(2 * np.pi * x))) <= 1e-9

    def test_manufactured_bump(self):
        g, mask, _ = setup_1d(N=256)
        w = wt.power_weight(g, [1.0], 0.5, 2.0)
        ustar = bump(g, [1.0], 0.3, 1.0)
        prob = sv.manufacture(g, mask, 0.5, 2.0, w, ustar)
        rep = sv.solve_linear(prob, tol=1e-12)
        err = lp_norm(rep.solution - ustar, 2) / lp_norm(ustar, 2)
        assert rep.converged and err <= 1e-8

    def test_zero_data_zero_solution(self):
        g, mask, w = setup_1d()
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        rep = sv.solve_linear(prob)
        assert np.max(np.abs(rep.solution.values)) <= 1e-12

    def test_cg_stops_at_max_iter(self):
        w = wt.power_weight(make_grid(GridSpec(n=1, N=128, L=2.0)), [1.0], 0.5, 2.0)
        rep = sv.solve_linear(box_problem(w, bump(w.grid, [1.0], 0.3, 1.0)), max_iter=1)
        assert rep.converged is False
        assert rep.iterations == 1 and len(rep.residuals) == 2

    def test_vector_rhs_route(self):
        # F(v) = integral(f_vec . grad^s v) equals the field route through
        # -div^s f_vec
        g, mask, w = setup_1d(N=256)
        gv = fo.riesz_gradient(bump(g, [1.0], 0.25, 1.0), 0.4)
        prob_vec = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w, rhs=gv)
        # the equivalent field acts through -div^s at the pairing order s
        field = ScalarField(g, -fo.fractional_divergence(gv, 0.5).values)
        prob_field = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w,
                                   rhs=field)
        r1 = sv.solve_linear(prob_vec, tol=1e-12)
        r2 = sv.solve_linear(prob_field, tol=1e-12)
        assert lp_norm(r1.solution - r2.solution, 2) <= 1e-10 * lp_norm(r2.solution, 2)

    def test_matrix_rank_one(self):
        g2 = make_grid(GridSpec(n=2, N=64, L=2.0))
        X, Y = g2.coords()
        mask2 = ((X - 1) ** 2 + (Y - 1) ** 2) <= 0.55**2
        w2 = wt.power_weight(g2, [1.0, 1.0], 0.5, 2.0)
        e = np.array([1.0, 1.0]) / np.sqrt(2.0)
        A = np.zeros((2, 2, 64, 64))
        for i in range(2):
            for j in range(2):
                A[i, j] = w2.values * ((i == j) + 0.5 * e[i] * e[j])
        ustar = bump(g2, [1.0, 1.0], 0.2, 1.0)
        prob = sv.manufacture(g2, mask2, 0.5, 2.0, w2, ustar, matrix=A,
                              c1=1.0, c2=1.5)
        rep = sv.solve_linear(prob, tol=1e-11)
        err = lp_norm(rep.solution - ustar, 2) / lp_norm(ustar, 2)
        assert rep.converged and err <= 1e-8

    def test_lifting_consistency(self):
        # solution with exterior data g: u - G solves the shifted problem
        g, mask, _ = setup_1d(N=256)
        w = wt.power_weight(g, [1.0], 0.5, 2.0)
        x = g.axes[0]
        gfield = ScalarField(g, 0.05 * np.cos(np.pi * x))
        f = ScalarField(g, np.where(mask, 1.0, 0.0))
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w, rhs=f,
                             exterior=gfield)
        rep = sv.solve_linear(prob, tol=1e-12)
        G = prob.exterior_values()
        assert np.array_equal(rep.solution.values[~mask], G[~mask])
        # shifted problem: rhs f + div^s(w grad^s G), homogeneous exterior
        kit = fo._RieszOps(g, 0.5)
        shift = kit.div([w.values * c for c in kit.grad(G)])
        f_shift = ScalarField(g, f.values + shift)
        prob0 = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w,
                              rhs=f_shift)
        rep0 = sv.solve_linear(prob0, tol=1e-12)
        diff = (rep.solution.values - G) - rep0.solution.values
        assert np.max(np.abs(diff)) <= 1e-9 * max(1.0, np.max(np.abs(rep0.solution.values)))

    def test_warm_start_at_solution_stops(self):
        # criterion 9's p = 2 problem, started at a 1e-13 solution: CG stops
        # relative to the rhs, not to the start's own tiny residual
        g, mask, w = setup_1d(N=128)
        prob = sv.manufacture(g, mask, 0.5, 2.0, w, bump(g, [1.0], 0.25, 1.0))
        exact = sv.solve_linear(prob, tol=1e-13)
        assert exact.converged
        rep = sv.solve_linear(prob, tol=1e-10, x0=exact.solution)
        assert rep.converged and rep.iterations <= 2

    def test_zero_rhs_with_nonzero_start(self):
        g, mask, w = setup_1d(N=128)
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        (x0,) = interior_fields(g, mask, 1, seed=5)
        rep = sv.solve_linear(prob, x0=x0)
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(rep.solution.values, np.zeros(g.spec.shape))

    def test_cg_started_at_the_exact_solution_stops_at_once(self):
        b = np.linspace(1.0, 2.0, 16)
        x, history, ok = sv._cg(lambda v: 2.0 * v, lambda r: r, b, b / 2.0, 1e-12, 10)
        assert ok and history == [0.0] and np.array_equal(x, b / 2.0)

    def test_cg_rejects_indefinite_operator(self):
        b = np.ones(16)
        with pytest.raises(sv.EllipticityError):
            sv._cg(lambda v: -v, lambda r: r, b, np.zeros_like(b), 1e-12, 10)


class TestSolvePLaplace:
    @pytest.mark.parametrize("p,tol,target", [(1.5, None, 1e-6), (3.0, 1e-8, 1e-6)])
    def test_manufactured(self, p, tol, target):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        prob = sv.manufacture(g, mask, 0.5, p, w, ustar)
        rep = sv.solve_plaplace(prob, "kacanov", tol=tol)
        err = lp_norm(rep.solution - ustar, 2) / lp_norm(ustar, 2)
        assert rep.converged and err <= target
        assert all(
            rep.energies[i + 1] <= rep.energies[i] + 1e-12
            for i in range(len(rep.energies) - 1)
        )

    def test_methods_agree(self):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        for p in (1.5, 3.0):
            prob = sv.manufacture(g, mask, 0.5, p, w, ustar)
            rk = sv.solve_plaplace(prob, "kacanov")
            rd = sv.solve_plaplace(prob, "descent")
            agree = lp_norm(rk.solution - rd.solution, 2) / lp_norm(rk.solution, 2)
            assert agree <= 1e-5

    def test_inner_unconverged_counted(self, monkeypatch):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        prob = sv.manufacture(g, mask, 0.5, 3.0, w, ustar)
        for method in ("kacanov", "newton"):
            rep = sv.solve_plaplace(prob, method)
            assert rep.details["inner_unconverged"] == 0
            # every inner solve still returns its iterate but reports
            # failure; each Kacanov or Newton step makes exactly one inner
            # solve
            cg = sv._cg
            with monkeypatch.context() as mp:
                mp.setattr(sv, "_cg", lambda *a, **k: (*cg(*a, **k)[:2], False))
                flagged = sv.solve_plaplace(prob, method)
            count = flagged.details["inner_unconverged"]
            assert type(count) is int and count == flagged.iterations > 0
            rows = flagged.details["steps"]
            assert [row["inner_converged"] for row in rows] == [False] * count
            assert flagged.converged == rep.converged
            assert flagged.to_record()["inner_unconverged"] == count

    @pytest.mark.parametrize("method", ["kacanov", "newton"])
    def test_inner_iterations_counted(self, monkeypatch, method):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        prob = sv.manufacture(g, mask, 0.5, 3.0, w, ustar)
        seen = []
        cg = sv._cg

        def counting(*a, **k):
            out = cg(*a, **k)
            seen.append(len(out[1]) - 1)
            return out

        monkeypatch.setattr(sv, "_cg", counting)
        rep = sv.solve_plaplace(prob, method)
        count = rep.details["inner_iterations"]
        # the initial guess's solve and one solve per outer step
        assert len(seen) == rep.iterations + 1
        assert type(count) is int and count == sum(seen) > 0
        assert rep.to_record()["inner_iterations"] == count
        # one row per outer step, after the initial guess's solve
        rows = rep.details["steps"]
        assert [row["inner_iterations"] for row in rows] == seen[1:]
        assert all(row["inner_converged"] is True for row in rows)
        assert all(type(row["eps"]) is float and row["eps"] > 0.0 for row in rows)
        assert rep.to_record()["steps"] == rows

    @pytest.mark.parametrize("N,p,method,alpha", [
        (128, 1.5, "kacanov", None),
        (256, 2.0, "kacanov", None),
        (256, 3.0, "newton", None),
        (256, 3.0, "descent", None),
        (256, 3.0, "descent", 0.5),
    ])
    def test_preconditioner_reported(self, monkeypatch, N, p, method, alpha):
        g, mask, w = setup_1d(N=N, lo=0.55, hi=1.45)
        if alpha is not None:
            w = wt.power_weight(g, [1.0], alpha, p)
        prob = sv.manufacture(g, mask, 0.5, p, w, bump(g, [1.0], 0.3, 1.0))
        made = []
        make = sv._make_precond

        def recording(*a, **k):
            made.append(a)
            return make(*a, **k)

        monkeypatch.setattr(sv, "_make_precond", recording)
        rep = sv.solve_plaplace(prob, method)
        if method != "descent":
            # the initial guess's solve, then one inner solve per outer step
            rows = rep.details["steps"]
            assert len(rows) == len(made) - 1 == rep.iterations

    def test_zero_rhs(self):
        g, mask, w = setup_1d()
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=3.0, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        rep = sv.solve_plaplace(prob, "kacanov")
        assert rep.converged and np.max(np.abs(rep.solution.values)) == 0.0

    @pytest.mark.parametrize("method", ["kacanov", "newton", "descent"])
    def test_zero_rhs_report_has_the_keys_of_every_report(self, method):
        g, mask, _ = setup_1d()
        w = wt.tabulated_weight(g, np.ones(g.spec.shape), 3.0)
        zero = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=3.0, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        made = sv.manufacture(g, mask, 0.5, 3.0, w, bump(g, [1.0], 0.3, 1.0))
        rec = sv.solve_plaplace(zero, method).to_record()
        assert set(rec) == set(sv.solve_plaplace(made, method).to_record())
        assert rec["final_eps"] == 0.0 and rec["stalled"] is False
        assert rec["iterations"] == 0 and rec["residuals"] == rec["energies"] == [0.0]

    def test_refuses_p_near_one(self):
        g, mask, w = setup_1d()
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=1.05, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        with pytest.raises(ValueError, match="refusing"):
            sv.solve_plaplace(prob)


class TestNewton:
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_manufactured_agrees_with_kacanov(self, p):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        prob = sv.manufacture(g, mask, 0.5, p, w, ustar)
        rn = sv.solve_plaplace(prob, "newton", tol=1e-8)
        rk = sv.solve_plaplace(prob, "kacanov", tol=1e-8)
        assert rn.method == "newton" and rn.converged and rk.converged
        assert all(
            rn.energies[i + 1] <= rn.energies[i] + 1e-12
            for i in range(len(rn.energies) - 1)
        )
        err = lp_norm(rn.solution - ustar, 2) / lp_norm(ustar, 2)
        agree = lp_norm(rn.solution - rk.solution, 2) / lp_norm(rk.solution, 2)
        assert err <= 1e-6 and agree <= 1e-5

    def test_default_for_p_above_two(self):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        for p, method in ((3.0, "newton"), (2.0, "kacanov"), (1.5, "kacanov")):
            prob = sv.manufacture(g, mask, 0.5, p, w, ustar)
            assert sv.solve_plaplace(prob, max_outer=1).method == method

    @pytest.mark.parametrize("p,method", [(1.5, "kacanov"), (2.0, "pcg"), (3.0, "newton")])
    def test_default_method_rule(self, p, method):
        assert sv.default_method(p) == method

    def test_3d_converges(self):
        g = make_grid(GridSpec(n=3, N=16, L=2.0))
        X = g.coords()
        mask = np.ones(g.spec.shape, dtype=bool)
        for c in X:
            mask &= (c >= 0.55) & (c <= 1.45)
        w = wt.tabulated_weight(g, np.ones(g.spec.shape), 2.0)
        ustar = bump(g, [1.0, 1.0, 1.0], 0.3, 1.0)
        prob = sv.manufacture(g, mask, 0.5, 3.0, w, ustar)
        rep = sv.solve_plaplace(prob)
        assert rep.method == "newton" and rep.converged and rep.iterations <= 20

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_refuses_p_at_most_two(self, p):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        prob = sv.manufacture(g, mask, 0.5, p, w, ustar)
        with pytest.raises(ValueError, match="newton needs p > 2"):
            sv.solve_plaplace(prob, "newton")


def p13_problem(centre=1.0):
    """The `1d p=1.3 constant` solve of the benchmark: 1D N = 256, L = 2,
    Omega = [0.55, 1.45], constant weight, bump of radius 0.3 at centre."""
    g = make_grid(GridSpec(n=1, N=256, L=2.0))
    x = g.axes[0]
    mask = (x >= 0.55) & (x <= 1.45)
    w = wt.tabulated_weight(g, np.ones(256), 2.0)
    ustar = bump(g, [centre], 0.3, 1.0)
    return sv.manufacture(g, mask, 0.5, 1.3, w, ustar), ustar


def certificate_floor(prob, u):
    """The solver's floor estimate of the kacanov certificate at u."""
    st = sv._SolveState(prob, "kacanov")
    st.u = u.values
    return st.certificate_floor()


class TestStallFlag:
    def test_p13_kacanov_stalls(self):
        # the eps = 0 certificate stalls at p = 1.3 while the iterate is
        # already accurate; the run is flagged, and stops once it sits at
        # its round-off floor, unconverged
        prob, _ = p13_problem()
        rep = sv.solve_plaplace(prob)
        assert not rep.converged and rep.details["stalled"] is True
        assert rep.to_record()["stalled"] is True
        assert rep.iterations <= 50
        assert rep.details["stop_reason"] == "certificate at its round-off floor"
        assert rep.details["certificate_floor"] >= rep.details["tol"]

    def test_short_runs_not_stalled(self):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        prob = sv.manufacture(g, mask, 0.5, 3.0, w, ustar)
        zero = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=3.0, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        assert sv.solve_plaplace(prob, max_outer=3).details["stalled"] is False
        assert sv.solve_plaplace(zero).details["stalled"] is False


class TestCertificateFloor:
    """The round-off floor of the strict certificate, and the stop of a
    stalled kacanov or newton run at a floor above tol."""

    def test_floor_at_the_node_exceeds_tol(self):
        prob, ustar = p13_problem()
        rep = sv.solve_plaplace(prob)
        assert certificate_floor(prob, ustar) > 1e-8
        assert certificate_floor(prob, rep.solution) > 1e-8

    def test_floor_off_the_node_below_tol(self):
        g = make_grid(GridSpec(n=1, N=256, L=2.0))
        prob, ustar = p13_problem(1.0 + 0.37 * g.h)
        rep = sv.solve_plaplace(prob)
        assert rep.converged
        assert certificate_floor(prob, ustar) < 1e-8
        assert certificate_floor(prob, rep.solution) < 1e-8

    def test_floor_of_criterion_8_p15_run_below_tol(self):
        g, mask, w = setup_1d(N=256)
        prob = sv.manufacture(g, mask, 0.5, 1.5, w, bump(g, [1.0], 0.3, 1.0))
        rep = sv.solve_plaplace(prob, "kacanov", tol=1e-8)
        assert rep.converged
        assert certificate_floor(prob, rep.solution) < 1e-8

    def test_estimate_reads_state_only(self):
        prob, ustar = p13_problem()
        st = sv._SolveState(prob, "kacanov")
        st.start(ustar.values)
        st.certificate()
        u, gu, res = st.u.copy(), [c.copy() for c in st.gu], list(st.residuals)
        assert st.certificate_floor() > 0.0
        assert np.array_equal(st.u, u) and st.residuals == res
        assert all(np.array_equal(a, b) for a, b in zip(st.gu, gu))

    def test_floor_below_tol_changes_nothing(self, monkeypatch):
        # a stalled run whose floor is below tol takes the steps it takes
        # without the estimate, which runs at most once per stall window
        prob, _ = p13_problem()
        with monkeypatch.context() as mp:
            mp.setattr(sv._SolveState, "at_floor", lambda st: False)
            plain = sv.solve_plaplace(prob)
        seen = []

        def below_tol(st):
            seen.append(len(st.residuals))
            return 0.0

        monkeypatch.setattr(sv._SolveState, "certificate_floor", below_tol)
        rep = sv.solve_plaplace(prob)
        assert rep.iterations == plain.iterations == 200 and not rep.converged
        assert rep.residuals == plain.residuals
        assert np.array_equal(rep.solution.values, plain.solution.values)
        assert "stop_reason" not in rep.details and rep.details["certificate_floor"] == 0.0
        assert len(seen) >= 2
        assert all(b - a >= sv._STALL_WINDOW for a, b in zip(seen, seen[1:]))

    def test_estimator_never_runs_on_criterion_8(self, monkeypatch):
        calls = []
        floor = sv._SolveState.certificate_floor
        monkeypatch.setattr(sv._SolveState, "certificate_floor",
                            lambda st: calls.append(1) or floor(st))
        g, mask, w = setup_1d(N=256)
        for p in (1.5, 3.0):
            prob = sv.manufacture(g, mask, 0.5, p, w, bump(g, [1.0], 0.3, 1.0))
            rec = sv.solve_plaplace(prob, "kacanov", tol=1e-8).to_record()
            assert rec["converged"] is True
            assert "certificate_floor" not in rec and "stop_reason" not in rec
        assert calls == []

    def test_random_starts_never_stop_at_the_floor(self):
        # criterion 9's problem at p = 1.5 from 5 random starts for each of
        # two seeds: every run converges or takes all 200 steps
        g, mask, w = setup_1d(N=128)
        prob = sv.manufacture(g, mask, 0.5, 1.5, w, bump(g, [1.0], 0.25, 1.0))
        reps = []
        for seed in (11, 12):
            rng = np.random.default_rng(seed)
            for _ in range(5):
                x0 = ScalarField(g, np.where(mask, rng.standard_normal(128), 0.0))
                reps.append(sv.solve_plaplace(prob, "kacanov", tol=1e-8, x0=x0))
        assert all("stop_reason" not in r.details for r in reps)
        assert all(r.converged or r.iterations == 200 for r in reps)
        # stalled runs whose floor lay below tol went on, and some converged
        assert any(r.converged and "certificate_floor" in r.details for r in reps)

    @pytest.mark.parametrize("seed,start", [(70, 1), (76, 1)])
    def test_floor_within_reach_of_tol_goes_on(self, monkeypatch, seed, start):
        # criterion 9's problem at p = 1.5: these starts stall with a floor
        # of at least tol, but their best certificate lies within the floor
        # of tol, so they go on, and converge
        floors = []
        floor = sv._SolveState.certificate_floor
        monkeypatch.setattr(sv._SolveState, "certificate_floor",
                            lambda st: floors.append(floor(st)) or floors[-1])
        g, mask, w = setup_1d(N=128)
        prob = sv.manufacture(g, mask, 0.5, 1.5, w, bump(g, [1.0], 0.25, 1.0))
        rng = np.random.default_rng(seed)
        for _ in range(start + 1):
            x0 = ScalarField(g, np.where(mask, rng.standard_normal(128), 0.0))
        rep = sv.solve_plaplace(prob, "kacanov", tol=1e-8, x0=x0)
        assert rep.converged and "stop_reason" not in rep.details
        assert max(floors) >= 1e-8


class TestMonotonicityGap:
    def test_equal_fields(self):
        g, mask, w = setup_1d()
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=3.0, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        (u,) = interior_fields(g, mask, 1, seed=2)
        lhs, lower = sv.monotonicity_gap(prob, u, u)
        assert lhs == 0.0 and lower == 0.0

    def test_p2_exact_identity(self):
        g, mask, _ = setup_1d()
        w = wt.power_weight(g, [1.0], 0.5, 2.0)
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        u, v = interior_fields(g, mask, 2, seed=3)
        lhs, lower = sv.monotonicity_gap(prob, u, v)
        d = ScalarField(g, u.values - v.values)
        expected = lp_norm(fo.riesz_gradient(d, 0.5), 2, w) ** 2
        assert abs(lhs - expected) <= 1e-11 * expected
        assert abs(lower - expected) <= 1e-11 * expected

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_random_pairs_hold(self, p):
        g, mask, w = setup_1d()
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=p, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        fields = interior_fields(g, mask, 8, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            i, j = rng.integers(0, len(fields), size=2)
            lhs, lower = sv.monotonicity_gap(prob, fields[i], fields[j])
            assert lhs >= lower - 1e-10 * max(1.0, abs(lhs))


class TestManufacture:
    def test_zero_ustar(self):
        g, mask, w = setup_1d()
        prob = sv.manufacture(g, mask, 0.5, 2.0, w,
                              ScalarField(g, np.zeros(g.spec.shape)))
        assert np.max(np.abs(prob.rhs.values)) == 0.0

    def test_linearity_at_p2(self):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        f1 = sv.manufacture(g, mask, 0.5, 2.0, w, ustar).rhs.values
        f3 = sv.manufacture(g, mask, 0.5, 2.0, w, 3.0 * ustar).rhs.values
        assert np.max(np.abs(f3 - 3.0 * f1)) <= 1e-12 * np.max(np.abs(f3))

    def test_support_violation(self):
        g, mask, w = setup_1d()
        wide = bump(g, [1.0], 0.45, 1.0)  # sticks out of [0.6, 1.4]
        with pytest.raises(ValueError, match="vanish outside"):
            sv.manufacture(g, mask, 0.5, 2.0, w, wide)


class TestOperatorStructure:
    def test_symmetry_p2(self):
        g, mask, _ = setup_1d()
        w = wt.power_weight(g, [1.0], 0.5, 2.0)
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=2.0, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        u, v = interior_fields(g, mask, 2, seed=6)
        Tu = sv.apply_operator(prob, u)
        Tv = sv.apply_operator(prob, v)
        hn = g.h
        a = hn * float(np.sum(Tu.values * v.values))
        b = hn * float(np.sum(u.values * Tv.values))
        assert abs(a - b) <= 1e-11 * max(abs(a), abs(b))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_coercivity_with_poincare(self, p):
        g, mask, w = setup_1d()
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=p, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        fam = interior_fields(g, mask, 4, seed=7)
        C = poincare_constant(g, mask, 0.5, p, family=fam).constant
        for u in fam:
            Tu = sv.apply_operator(prob, u)
            pairing = g.h * float(np.sum(Tu.values * u.values))
            # <Tu, u> = ||grad^s u||_p^p >= (||u||_p / C)^p
            assert pairing >= (lp_norm(u, p) / C) ** p * (1.0 - 1e-8)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_continuity_bound(self, p):
        g, mask, _ = setup_1d()
        w = wt.power_weight(g, [1.0], 0.5, p)
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=p, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        u, v = interior_fields(g, mask, 2, seed=8)
        Tu = sv.apply_operator(prob, u)
        pairing = abs(g.h * float(np.sum(Tu.values * v.values)))
        bound = (
            lp_norm(fo.riesz_gradient(u, 0.5), p, w) ** (p - 1.0)
            * lp_norm(fo.riesz_gradient(v, 0.5), p, w)
        )
        assert pairing <= bound + 1e-10 * max(1.0, bound)

    def test_uniqueness_from_random_starts(self):
        g, mask, w = setup_1d(N=128)
        ustar = bump(g, [1.0], 0.25, 1.0)
        rng = np.random.default_rng(9)
        prob2 = sv.manufacture(g, mask, 0.5, 2.0, w, ustar)
        sols = []
        for _ in range(3):
            x0 = ScalarField(g, np.where(mask, rng.standard_normal(g.spec.shape), 0.0))
            sols.append(sv.solve_linear(prob2, tol=1e-11, x0=x0).solution)
        for a in sols[1:]:
            assert lp_norm(a - sols[0], 2) / lp_norm(sols[0], 2) <= 1e-10


def box_problem(w, ustar=None):
    """Problem on Omega = [0.55, 1.45]^n, manufactured from ustar when given."""
    g = w.grid
    mask = np.ones(g.spec.shape, dtype=bool)
    for c in g.coords():
        mask &= (c >= 0.55) & (c <= 1.45)
    if ustar is not None:
        return sv.manufacture(g, mask, 0.5, w.p, w, ustar)
    return sv.PDEProblem(grid=g, mask=mask, s=0.5, p=w.p, weight=w,
                         rhs=ScalarField(g, np.zeros(g.spec.shape)))


class TestPreconditioner:
    """One preconditioner for every solve: the shifted (-Lap)^s sandwiched by
    D^2 = a * kappa / (median(a) sum(kappa)) for p > 2 and by
    D^2 = min(a, a * kappa / sum(kappa)) / median(a) for p <= 2, a * kappa
    the exact diagonal of -div^s(a grad^s .)."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
    def test_scale_by_exponent(self, p):
        g = make_grid(GridSpec(n=1, N=64, L=2.0))
        prob = box_problem(wt.power_weight(g, [1.0 + 0.37 * g.h], 0.5, p))
        kit = prob.kit
        gr = kit.grad(bump(g, [1.0], 0.3, 1.0).values)
        a = sv._coeff(prob.weight.values, p, gr, 1e-6)
        med = float(np.median(a[prob.mask]))
        diag = kit.multiply(kit.diag_sym, a) / kit.diag_sum
        d = np.sqrt((diag if p > 2.0 else np.minimum(a, diag)) / med)
        r = prob.project(np.random.default_rng(3).standard_normal(g.spec.shape))
        inv = 1.0 / (med * kit.lap_sym + med * kit.lap_shift)
        want = prob.project(kit.multiply(inv, r / d) / d)
        assert np.array_equal(sv._make_precond(prob, a)(r), want)
        if p > 2.0:
            # the coefficient dips at the zeros of grad^s u, the diagonal
            # does not follow it there
            assert np.min(a[prob.mask]) < 1e-3 * np.min(diag[prob.mask])

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
    @pytest.mark.parametrize("coefficient", ["power", "p=1.5 frozen", "constant"])
    def test_diagonal_is_exact(self, n, N, coefficient):
        g = make_grid(GridSpec(n=n, N=N, L=2.0))
        kit = fo._RieszOps(g, 0.5)
        w = wt.power_weight(g, [1.0 + 0.37 * g.h] * n, 0.5, 2.0).values
        if coefficient == "power":
            a = w
        elif coefficient == "p=1.5 frozen":
            gr = kit.grad(bump(g, [1.0] * n, 0.45, 1.0).values)
            scale = float(np.max(np.sqrt(sum(c * c for c in gr))))
            a = sv._coeff(w, 1.5, gr, 1e-6 * scale)
            assert np.max(a) > 1e3 * np.min(a)
        else:
            a = np.full(g.spec.shape, 2.5)
        dense = np.empty(g.spec.shape)
        for i in range(dense.size):
            e = np.zeros(g.spec.shape)
            e.flat[i] = 1.0
            dense.flat[i] = kit.elliptic(a, e).flat[i]
        diag = kit.multiply(kit.diag_sym, a)
        assert np.max(np.abs(diag - dense) / dense) <= 1e-12
        if coefficient == "constant":
            # a constant coefficient leaves the sandwich at D = 1: the
            # preconditioner is the bare shifted spectral inverse
            whole = np.ones(g.spec.shape, dtype=bool)
            prob = sv.PDEProblem(grid=g, mask=whole, s=0.5, p=2.0,
                                 weight=wt.tabulated_weight(g, a, 2.0),
                                 rhs=ScalarField(g, np.zeros(g.spec.shape)))
            r = np.random.default_rng(7).standard_normal(g.spec.shape)
            inv = 1.0 / (2.5 * kit.lap_sym + 2.5 * kit.lap_shift)
            bare = prob.project(kit.multiply(inv, r))
            got = sv._make_precond(prob)(r)
            assert np.max(np.abs(got - bare)) <= 1e-14 * np.max(np.abs(bare))

    # the mass term 1 of the spectral-only preconditioner took 76 / 34 / 40
    # CG iterations in 1D and 50 / 25 / 32 in 2D
    @pytest.mark.parametrize("n,N", [(1, 256), (2, 64)])
    def test_cg_count_independent_of_weight_scale(self, n, N):
        g = make_grid(GridSpec(n=n, N=N, L=2.0))
        w = wt.power_weight(g, [1.0 + 0.37 * g.h] * n, 0.5, 2.0)
        ustar = bump(g, [1.0] * n, 0.3, 1.0)
        reps = [
            sv.solve_linear(box_problem(wt.tabulated_weight(g, c * w.values, 2.0), ustar))
            for c in (1e-3, 1.0, 1e3)
        ]
        assert all(rep.converged for rep in reps)
        assert len({rep.iterations for rep in reps}) == 1
        ref = reps[1].solution
        for rep in reps:
            assert lp_norm(rep.solution - ref, 2) <= 1e-10 * lp_norm(ref, 2)

    @pytest.mark.parametrize("n,N", [(1, 256), (2, 64)])
    def test_two_transforms_per_preconditioner(self, monkeypatch, n, N):
        g = make_grid(GridSpec(n=n, N=N, L=2.0))
        prob = box_problem(wt.power_weight(g, [1.0] * n, 0.5, 2.0))
        calls = {"transforms": 0, "grad": 0}
        rfft, irfft, grad = fo._rfft, fo._irfft, fo._RieszOps.grad

        def counted(f):
            def call(*a):
                calls["transforms"] += 1
                return f(*a)
            return call

        def counted_grad(self, u):
            calls["grad"] += 1
            return grad(self, u)

        monkeypatch.setattr(fo, "_rfft", counted(rfft))
        monkeypatch.setattr(fo, "_irfft", counted(irfft))
        monkeypatch.setattr(fo._RieszOps, "grad", counted_grad)
        for k in range(1, 4):
            sv._make_precond(prob, k * prob.weight.values)
            # two per call; the first also builds kappa's spectrum once, one
            # inverse per gradient component and one forward transform
            assert calls == {"transforms": n + 1 + 2 * k, "grad": 0}


def _flux_three_branch(prob, gr, eps):
    """The flux as three eps = 0 branches, a test-only reference."""
    w, p = prob.weight.values, prob.p
    if p == 2.0 and eps == 0.0:
        return [w * c for c in gr]
    mag2 = sum(c * c for c in gr)
    if eps == 0.0:
        mag = np.sqrt(mag2)
        nz = mag > 0.0
        safe = np.where(nz, mag, 1.0)
        if p < 2.0:
            return [np.where(nz, w * safe ** (p - 2.0) * c, 0.0) for c in gr]
        a = np.where(nz, w * safe ** (p - 2.0), 0.0)
        return [a * c for c in gr]
    a = w * (mag2 + eps * eps) ** ((p - 2.0) / 2.0)
    return [a * c for c in gr]


class TestFlux:
    @pytest.mark.parametrize("p", [1.3, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_matches_three_branch_reference(self, p, eps):
        g = make_grid(GridSpec(n=2, N=32, L=2.0))
        X, Y = g.coords()
        mask = (np.abs(X - 1.0) <= 0.45) & (np.abs(Y - 1.0) <= 0.45)
        w = wt.power_weight(g, [1.0, 1.0], 0.5, p)
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=p, weight=w,
                             rhs=ScalarField(g, np.zeros(g.spec.shape)))
        (u,) = interior_fields(g, mask, 1, seed=12)
        gr = fo._RieszOps(g, 0.5).grad(u.values)
        zero = np.zeros(g.spec.shape, dtype=bool)
        zero[3:9, 5:7] = True
        zero[20, 20] = True
        for c in gr:
            c[zero] = 0.0
        got = sv._flux(prob, gr, eps)
        want = _flux_three_branch(prob, gr, eps)
        for a, b in zip(got, want):
            assert np.all(np.isfinite(a))
            assert np.all(a[zero] == 0.0)
            assert np.all(np.abs(a - b) <= 1e-14 * np.abs(b))


def _trial_problem(n, kind):
    N = 64 if n == 1 else 32
    g = make_grid(GridSpec(n=n, N=N, L=2.0))
    X = g.coords()
    mask = np.logical_and.reduce([np.abs(x - 1.0) <= 0.4 for x in X])
    p = {"scalar": 3.0, "matrix": 2.0, "vector": 1.5}[kind]
    w = wt.power_weight(g, [1.0] * n, 0.5, p)
    f = bump(g, [1.0] * n, 0.3, 1.0)
    if kind == "vector":
        rhs = fo.riesz_gradient(f, 0.5)
        return sv.PDEProblem(grid=g, mask=mask, s=0.5, p=p, weight=w, rhs=rhs)
    if kind == "scalar":
        return sv.PDEProblem(grid=g, mask=mask, s=0.5, p=p, weight=w, rhs=f)
    e = np.ones(n) / np.sqrt(n)
    A = np.array([[w.values * ((i == j) + 0.5 * e[i] * e[j]) for j in range(n)]
                  for i in range(n)])
    return sv.PDEProblem(grid=g, mask=mask, s=0.5, p=p, weight=w, rhs=f,
                         matrix=A, c1=1.0, c2=1.5)


def _bulk(prob, gr, eps):
    """The energy's first term, from the gradient of the trial point."""
    hn = prob.grid.h ** prob.grid.spec.n
    if prob.matrix is not None:
        quad = np.einsum("i...,ij...,j...->...", np.stack(gr), prob.matrix, np.stack(gr))
        return 0.5 * hn * float(np.sum(quad))
    m = sum(c * c for c in gr) + eps * eps
    return hn * float(np.sum(prob.weight.values * m ** (prob.p / 2.0))) / prob.p


class TestLineSearch:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["scalar", "matrix", "vector"])
    @pytest.mark.parametrize("t", [1.0, 1e-6])
    def test_trial_energy_from_combined_gradient(self, n, kind, t):
        prob = _trial_problem(n, kind)
        g = prob.grid
        eps = 0.0 if kind == "matrix" else 1e-3
        kit = fo._RieszOps(g, 0.5)
        u, d = interior_fields(g, prob.mask, 2, seed=13)
        # the search starts at 1: scaling d by t makes its first trial u + t d
        dt = t * d.values
        gu, gd = kit.grad(u.values), kit.grad(dt)
        # an infinite reference energy accepts the first trial
        t_out, ut, _, trial, ok = sv._line_search(
            prob, sv._rhs_field(prob), u.values, gu, dt, gd, eps, np.inf, 0.0
        )
        assert ok and t_out == 1.0
        assert np.array_equal(ut, u.values + t * d.values)
        direct = sv.energy(prob, ScalarField(g, ut), eps)
        gt = fo.riesz_gradient(ScalarField(g, ut), 0.5)
        bulk = _bulk(prob, [c.values for c in gt.components], eps)
        assert bulk > 0.0
        assert abs(trial - direct) <= 1e-12 * bulk

    def test_ascent_direction_hits_floor(self):
        g, mask, w = setup_1d()
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=3.0, weight=w,
                             rhs=bump(g, [1.0], 0.3, 1.0))
        kit = fo._RieszOps(g, 0.5)
        (u,) = interior_fields(g, mask, 1, seed=14)
        u = u.values
        eps = 1e-3
        gu = kit.grad(u)
        # the energy's gradient is an ascent direction
        f = sv._rhs_field(prob)
        d = sv._residual(prob, gu, f, eps)
        slope = kit.hn * float(np.sum(d * d))
        assert slope > 0.0
        e0 = sv._energy(prob, f, u, eps, gu)
        t, ut, gt, et, ok = sv._line_search(
            prob, f, u, gu, d, kit.grad(d), eps, e0, slope
        )
        assert not ok and 0.0 < t <= sv._T_MIN == 1e-10
        assert np.array_equal(ut, u + t * d)
        assert et == sv._energy(prob, f, ut, eps, gt)

    def test_criterion_8_problems_report_no_failures(self):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        for p in (1.5, 3.0):
            prob = sv.manufacture(g, mask, 0.5, p, w, ustar)
            methods = ("kacanov", "descent", "newton") if p > 2 else ("kacanov", "descent")
            for method in methods:
                rep = sv.solve_plaplace(prob, method)
                assert rep.converged
                count = rep.details["line_search_failures"]
                assert type(count) is int and count == 0
                assert rep.to_record()["line_search_failures"] == 0
                assert rep.details["stalled"] is False

    def test_line_minimum_falls_back_on_ascent(self):
        g, mask, w = setup_1d()
        prob = sv.PDEProblem(grid=g, mask=mask, s=0.5, p=1.5, weight=w,
                             rhs=bump(g, [1.0], 0.3, 1.0))
        kit = fo._RieszOps(g, 0.5)
        (u,) = interior_fields(g, mask, 1, seed=14)
        u = u.values
        eps = 1e-3
        gu = kit.grad(u)
        f = sv._rhs_field(prob)
        d = sv._residual(prob, gu, f, eps)
        slope = kit.hn * float(np.sum(d * d))
        e0 = sv._energy(prob, f, u, eps, gu)
        t, ut, gt, et, ok = sv._line_minimum(
            prob, f, u, gu, d, kit.grad(d), eps, e0, slope, np.sum(f * d)
        )
        assert not ok and 0.0 < t <= 1e-10
        assert np.array_equal(ut, u + t * d)

    def test_descent_on_a_small_box(self):
        # on L = 0.01 the cell volume h = 3.9e-5 is below the Armijo fraction
        # 1e-4, so a sufficient-decrease test that left h out of the slope
        # could never pass
        L = 0.01
        g = make_grid(GridSpec(n=1, N=256, L=L))
        x = g.axes[0]
        mask = (x >= 0.3 * L) & (x <= 0.7 * L)
        w = wt.tabulated_weight(g, np.ones(256), 2.0)
        ustar = bump(g, [0.5 * L], 0.15 * L, 1.0)
        prob = sv.manufacture(g, mask, 0.5, 3.0, w, ustar)
        rep = sv.solve_plaplace(prob, "descent")
        assert rep.converged and rep.details["line_search_failures"] == 0
        assert lp_norm(rep.solution - ustar, 2) <= 1e-5 * lp_norm(ustar, 2)


class TestLineMinimum:
    """The Kacanov step moves to the regularized energy's minimum along its
    direction instead of halving from t = 1."""

    def test_p2_step_is_one(self):
        g, mask, w = setup_1d(N=256)
        prob = sv.manufacture(g, mask, 0.5, 2.0, w, bump(g, [1.0], 0.3, 1.0))
        (x0,) = interior_fields(g, mask, 1, seed=21)
        # the exact frozen solve already minimizes the quadratic energy
        rep = sv.solve_plaplace(prob, "kacanov", x0=x0, max_outer=1)
        (t,) = rep.details["step_lengths"]
        assert abs(t - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_accepted_step_meets_armijo_or_wolfe(self, p):
        g, mask, w = setup_1d(N=256)
        prob = sv.manufacture(g, mask, 0.5, p, w, bump(g, [1.0], 0.3, 1.0))
        kit = fo._RieszOps(g, 0.5)
        f = sv._rhs_field(prob)
        (u,) = interior_fields(g, mask, 1, seed=3)
        u = u.values
        eps = 1e-3
        gu = kit.grad(u)
        a = sv._coeff(w.values, p, gu, eps)
        uhat, _ = sv._solve_frozen(prob, a, f, u, 1e-12)
        d = prob.project(uhat - u)
        gd = kit.grad(d)
        e0 = sv._energy(prob, f, u, eps, gu)
        fd = np.sum(f * d)
        slope = kit.hn * (sum(np.sum(a * c * cd) for c, cd in zip(gu, gd)) - fd)
        t, ut, _, trial, ok = sv._line_minimum(prob, f, u, gu, d, gd, eps, e0, slope, fd)
        assert ok and t > 0.0
        assert np.array_equal(ut, u + t * d)

        # energies and slopes along d from the public energy alone
        def phi(s):
            return sv.energy(prob, ScalarField(g, u + s * d), eps)

        def dphi(s, h=1e-5 * t):
            return (phi(s + h) - phi(s - h)) / (2.0 * h)

        e0, et, s0, st = phi(0.0), phi(t), dphi(0.0), dphi(t)
        assert s0 < 0.0 and abs(trial - et) <= 1e-12 * abs(et)
        armijo = et <= e0 + sv._ARMIJO * t * s0
        wolfe = et <= e0 + 1e-10 * abs(e0) and (
            -0.9 * abs(s0) <= st <= (1.0 - 2.0 * sv._ARMIJO) * abs(s0)
        )
        assert armijo or wolfe
        # t is near the minimizer, not merely a decrease
        assert abs(st) <= 1.1e-2 * abs(s0)

    def test_criterion_8_kacanov_p15_outer_steps(self):
        g, mask, w = setup_1d(N=256)
        ustar = bump(g, [1.0], 0.3, 1.0)
        prob = sv.manufacture(g, mask, 0.5, 1.5, w, ustar)
        rep = sv.solve_plaplace(prob, "kacanov", tol=1e-8)
        assert rep.converged and rep.iterations <= 30
        # warm-started inner solves stop relative to the rhs, not to their
        # own initial residual
        assert rep.details["inner_iterations"] <= 400
        assert rep.details["line_search_failures"] == 0
        steps = rep.details["step_lengths"]
        assert len(steps) == rep.iterations
        assert all(type(t) is float and t > 0.0 for t in steps)


def node_centred(n, N, family, p=1.5, alpha=0.5):
    """The perfbench solve problem of dimension n: bump of radius 0.3
    centred on the grid node (1, ..., 1), Omega = [0.55, 1.45]^n; the power
    weight is |x - (1, ..., 1)|^alpha."""
    g = make_grid(GridSpec(n=n, N=N, L=2.0))
    mask = np.ones(g.spec.shape, dtype=bool)
    for c in g.coords():
        mask &= (c >= 0.55) & (c <= 1.45)
    if family == "power":
        w = wt.power_weight(g, [1.0] * n, alpha, p)
    else:
        w = wt.tabulated_weight(g, np.ones(g.spec.shape), p)
    ustar = bump(g, [1.0] * n, 0.3, 1.0)
    return sv.manufacture(g, mask, 0.5, p, w, ustar), ustar


def record_cg_tols(monkeypatch):
    """The list of tolerances every later solver._cg call is given."""
    given = []
    cg = sv._cg

    def recording(apply_K, prec, b, x0, tol, max_iter):
        given.append(tol)
        return cg(apply_K, prec, b, x0, tol, max_iter)

    monkeypatch.setattr(sv, "_cg", recording)
    return given


def certificate(prob, u):
    """max(dual, L2) of the unregularized interior residual of u relative to
    the rhs, from the public operators."""
    f = prob.project(prob.rhs.values)
    r = sv.apply_operator(prob, u).values - f
    l2 = np.sqrt(np.sum(r * r)) / np.sqrt(np.sum(f * f))
    return max(sv.weak_residual_norm(prob, u), l2)


class TestInexactKacanov:
    """Every Kacanov step stops its frozen CG at 0.1 times the last
    certificate, clipped to [1e-12, 0.1]; Newton's forcing is
    min(0.1, max(r, 0.5 tol / r)) with r the last certificate.  The first
    step's is the start's, residuals[0]; the initial guess's frozen solve
    stops at 0.1, the Kacanov forcing of u = 0, whose certificate is 1."""

    @pytest.mark.parametrize("p,method", [(1.5, "kacanov"), (3.0, "kacanov"),
                                          (3.0, "newton")])
    def test_inner_tol_follows_certificate(self, monkeypatch, p, method):
        g, mask, w = setup_1d(N=256)
        prob = sv.manufacture(g, mask, 0.5, p, w, bump(g, [1.0], 0.3, 1.0))
        given = record_cg_tols(monkeypatch)
        rep = sv.solve_plaplace(prob, method)
        assert rep.converged
        tols = [row["inner_tol"] for row in rep.details["steps"]]
        # the initial guess's solve, then one inner solve per outer step
        assert given == [0.1, *tols]
        res = rep.residuals
        if method == "kacanov":
            expected = [max(1e-12, min(0.1, 0.1 * r)) for r in res[:-1]]
        else:
            # Kelley's safeguard: no tighter than the last step needs
            expected = [min(0.1, max(r, 0.5 * 1e-8 / r)) for r in res[:-1]]
        assert tols == expected
        assert all(type(t) is float for t in tols)

    @pytest.mark.parametrize("p,method", [(1.5, "kacanov"), (3.0, "newton")])
    def test_start_certificate_recorded(self, p, method):
        prob, ustar = criterion_8(p)
        x0 = 0.5 * ustar
        rep = sv.solve_plaplace(prob, method, x0=x0)
        assert rep.converged
        assert len(rep.residuals) == rep.iterations + 1 == len(rep.energies)
        assert np.isclose(rep.residuals[0], certificate(prob, x0), rtol=1e-12, atol=0.0)
        assert rep.energies[0] == sv.energy(prob, x0, rep.details["steps"][0]["eps"])

    @pytest.mark.parametrize("p,method", [(1.5, "kacanov"), (3.0, "newton")])
    def test_history_rows_pair_one_iterate(self, p, method):
        # row k against the run stopped after k outer steps, whose last
        # iterate is the full run's k-th.  The certificate is not recomputed
        # from that iterate: near p = 1.5's round-off floor a fresh grad^s
        # moves it by more than the steps do
        prob, _ = criterion_8(p)
        rep = sv.solve_plaplace(prob, method)
        rows = rep.history_rows()
        assert rep.converged and len(rows) == rep.iterations + 1
        eps = [row["eps"] for row in rep.details["steps"]]
        for k, res, en in rows:
            part = sv.solve_plaplace(prob, method, max_outer=k)
            assert (res, en) == (part.residuals[-1], part.energies[-1])
            # the start's energy is taken at the first step's eps
            e = sv.energy(prob, part.solution, eps[max(k - 1, 0)])
            assert np.isclose(en, e, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n,N,family", [(2, 64, "constant"), (3, 16, "power")])
    def test_node_centred_cg_budget(self, n, N, family):
        # 600 and 648 CG iterations with every inner solve at 1e-12
        prob, ustar = node_centred(n, N, family)
        rep = sv.solve_plaplace(prob, "kacanov")
        assert rep.converged and rep.residuals[-1] < 1e-8
        assert rep.details["inner_iterations"] <= 350
        assert rep.details["inner_unconverged"] == 0
        assert lp_norm(rep.solution - ustar, 2) <= 1e-7 * lp_norm(ustar, 2)
        assert all(
            rep.energies[i + 1] <= rep.energies[i] + 1e-12 * abs(rep.energies[i])
            for i in range(len(rep.energies) - 1)
        )

    @pytest.mark.parametrize("p,constant,eigenvalue,residual,iterations", [
        (1.5, 0.4734798025681736, 3.0693598879812236, 9.269480572455421e-09, 48),
        (3.0, 0.5001976185272264, 7.990521803948587, 3.93127719830326e-09, 30),
    ])
    def test_poincare_steps_stay_exact(self, monkeypatch, p, constant, eigenvalue,
                                       residual, iterations):
        # the Poincare loop records no certificate: each step runs one solve,
        # stopped at the Kacanov forcing of the eigen-residual before the step
        given = record_cg_tols(monkeypatch)
        g, _, _ = setup_1d(N=256)
        x = g.axes[0]
        mask = (x >= 0.75) & (x <= 1.25)
        est = poincare_constant(g, mask, 0.5, p)
        tols = list(given)
        before = [poincare_constant(g, mask, 0.5, p, max_iter=k).residual
                  for k in range(est.iterations)]
        assert tols == [sv._kacanov_tol(r) for r in before]
        assert (est.constant, est.eigenvalue, est.residual, est.iterations) == (
            constant, eigenvalue, residual, iterations)
        # the p = 3 pins moved when p > 2 solves took the operator's own
        # diagonal as preconditioner scale, both moved when the steps went
        # to the Rayleigh quotient's minimum, and the residuals and step
        # counts moved when a refused step fell back to the energy step
        # without an exact retry; the estimates did not
        old = {1.5: (0.4734798025681737, 3.069359887981223),
               3.0: (0.5001976185272264, 7.990521803948588)}[p]
        assert np.allclose((est.constant, est.eigenvalue), old, rtol=1e-10, atol=0.0)


def criterion_8(p):
    """Criterion 8's problem: 1D N = 256, Omega = [0.6, 1.4], constant weight."""
    g, mask, w = setup_1d(N=256)
    ustar = bump(g, [1.0], 0.3, 1.0)
    return sv.manufacture(g, mask, 0.5, p, w, ustar), ustar


class TestDescent:
    """descent is preconditioned Polak-Ribiere+ nonlinear CG stepping to the
    regularized energy's minimum along each direction."""

    # Barzilai-Borwein steps with the halving search took 602, 141, 1257
    # and 133 steps on these problems; the first two are the perfbench
    # descent cases
    @pytest.mark.parametrize("case,p,budget", [
        ("1d power", 3.0, 200), ("2d power", 1.5, 94),
        ("criterion 8", 1.5, 150), ("criterion 8", 3.0, 88),
    ])
    def test_step_budget(self, case, p, budget):
        if case == "criterion 8":
            prob, ustar = criterion_8(p)
        else:
            n = int(case[0])
            prob, ustar = node_centred(n, 256 if n == 1 else 64, "power", p)
        rep = sv.solve_plaplace(prob, "descent")
        assert rep.converged and rep.iterations <= budget
        assert rep.details["line_search_failures"] == 0
        assert rep.details["stalled"] is False
        assert "breakdown" not in rep.details
        assert all(
            rep.energies[i + 1] <= rep.energies[i] + 1e-12
            for i in range(len(rep.energies) - 1)
        )
        assert lp_norm(rep.solution - ustar, 2) <= 1e-4 * lp_norm(ustar, 2)

    @pytest.mark.parametrize("p,tol", [(3.0, 1e-14), (1.5, 1e-10)])
    def test_stops_at_the_regularization_floor(self, p, tol):
        # tolerances below what descent can certify at the floor: the run
        # stops once two certificates there agree to a relative 1e-3
        g, mask, _ = setup_1d()
        w = wt.tabulated_weight(g, np.ones(g.spec.shape), p)
        prob = sv.manufacture(g, mask, 0.5, p, w, bump(g, [1.0], 0.3, 1.0))
        rep = sv.solve_plaplace(prob, "descent", tol=tol)
        res = rep.residuals
        assert rep.converged is False and "breakdown" not in rep.details
        # the start's certificate, then one per stage
        assert len(res) - 1 <= 20
        assert abs(res[-1] - res[-2]) < 1e-3 * res[-1]

    def test_one_gradient_and_one_preconditioner_per_step(self, monkeypatch):
        prob, ustar = criterion_8(3.0)
        calls = {"grad": 0, "prec": 0}
        grad, make = fo._RieszOps.grad, sv._make_precond

        def counted_grad(self, u):
            calls["grad"] += 1
            return grad(self, u)

        def counted_make(*a, **k):
            prec = make(*a, **k)

            def counted(r):
                calls["prec"] += 1
                return prec(r)

            return counted

        monkeypatch.setattr(fo._RieszOps, "grad", counted_grad)
        monkeypatch.setattr(sv, "_make_precond", counted_make)
        # a given start skips the initial guess's CG solve
        rep = sv.solve_plaplace(prob, "descent", x0=0.5 * ustar)
        assert rep.converged and rep.iterations > 0
        # the start's gradient, then grad^s pg once per step
        assert calls["grad"] == rep.iterations + 1
        # once per step, and once more where a stage meets its stop rule;
        # residuals[0] is the start's
        stages = len(rep.residuals) - 1
        assert rep.iterations <= calls["prec"] <= rep.iterations + stages

    def test_restart_when_not_a_descent_direction(self, monkeypatch):
        # the first step overshoots its minimum four times over, so that the
        # Polak-Ribiere+ direction of the second step ascends; that step must
        # restart at -pg
        prob, ustar = criterion_8(3.0)
        kit = prob.kit
        seen, steps = [], []
        make, line_minimum = sv._make_precond, sv._line_minimum

        def recording_make(*a, **k):
            prec = make(*a, **k)

            def recording(r):
                out = prec(r)
                seen.append((r, out))
                return out

            return recording

        def overshooting(prob, f, u, gu, d, gd, eps, e0, slope, fd):
            steps.append((d, gd, slope))
            t, ut, gt, et, ok = line_minimum(prob, f, u, gu, d, gd, eps, e0, slope, fd)
            if len(steps) == 1:
                t = 4.0 * t
                ut, gt = u + t * d, [c + t * cd for c, cd in zip(gu, gd)]
                et = sv._energy(prob, f, ut, eps, gt)
            return t, ut, gt, et, ok

        monkeypatch.setattr(sv, "_make_precond", recording_make)
        monkeypatch.setattr(sv, "_line_minimum", overshooting)
        sv.solve_plaplace(prob, "descent", x0=0.5 * ustar, max_outer=1)
        (g1, pg1), (g2, pg2) = seen[:2]
        d1 = steps[0][0]
        assert np.array_equal(d1, -pg1)
        beta = max(0.0, float(np.sum(g2 * (pg2 - pg1))) / float(np.sum(g1 * pg1)))
        assert beta > 0.0
        assert float(np.sum(g2 * (beta * d1 - pg2))) >= 0.0
        d2, gd2, slope2 = steps[1]
        assert np.array_equal(d2, -pg2)
        assert all(np.array_equal(a, -b) for a, b in zip(gd2, kit.grad(pg2)))
        assert slope2 == -kit.hn * float(np.sum(g2 * pg2)) < 0.0
        # every direction the search is given descends
        assert all(slope < 0.0 for _, _, slope in steps)


class TestDiagonalAboveTwo:
    """p > 2 solves scale the preconditioner by the operator's own diagonal,
    which fills the dips of a = w (|grad^s u|^2 + eps^2)^((p-2)/2) at the
    zeros of grad^s u instead of copying them."""

    # Newton's total CG and descent's steps with D^2 = min(a, a * kappa /
    # sum(kappa)) / med, the scale every exponent used before
    MIN_FORM_WORK = {
        (1, 0.5, "newton"): 96, (1, 0.5, "descent"): 106,
        (1, -0.5, "newton"): 181, (1, -0.5, "descent"): 76,
        (2, 0.5, "newton"): 195, (2, 0.5, "descent"): 141,
        (2, -0.5, "newton"): 281, (2, -0.5, "descent"): 148,
    }

    def test_p3_work(self):
        work = {}
        for (n, alpha, method), before in self.MIN_FORM_WORK.items():
            prob, ustar = node_centred(n, 256 if n == 1 else 64, "power", 3.0, alpha)
            rep = sv.solve_plaplace(prob, method)
            assert rep.converged
            assert "breakdown" not in rep.details
            err = 1e-7 if method == "newton" else 1e-5
            assert lp_norm(rep.solution - ustar, 2) <= err * lp_norm(ustar, 2)
            work[n, alpha, method] = (rep.details["inner_iterations"]
                                      if method == "newton" else rep.iterations)
            assert work[n, alpha, method] <= 0.8 * before, (n, alpha, method)
        # 653 against 1224
        assert sum(work.values()) <= 0.6 * sum(self.MIN_FORM_WORK.values())

    # with the minimum, p = 4 descent overflowed into "field contains NaN or
    # Inf" after 25 to 42 s and p = 6 Newton took 57 steps
    @pytest.mark.parametrize("p,method,budget", [(4.0, "descent", 250),
                                                 (6.0, "newton", 50)])
    def test_large_p_converges(self, p, method, budget):
        prob, ustar = node_centred(1, 256, "power", p)
        rep = sv.solve_plaplace(prob, method)
        assert rep.converged and rep.iterations <= budget
        assert rep.details["line_search_failures"] == 0
        assert lp_norm(rep.solution - ustar, 2) <= 1e-3 * lp_norm(ustar, 2)


class TestNonFinite:
    """A non-finite energy, slope or direction never reaches the iterate."""

    def overflowing(self):
        """Criterion 8's p = 3 problem at u = u*/2, and a descent direction
        scaled by 1e200 so that every trial step overflows."""
        prob, ustar = criterion_8(3.0)
        f, u, eps = sv._rhs_field(prob), 0.5 * ustar.values, 1e-8
        gu = prob.kit.grad(u)
        d = 1e200 * (ustar.values - u)
        gd = prob.kit.grad(d)
        a = sv._coeff(prob.weight.values, prob.p, gu, eps)
        fd = fo._sum(f * d)
        slope = prob.kit.hn * (sum(fo._sum(a * c * cd) for c, cd in zip(gu, gd)) - fd)
        e0 = sv._energy(prob, f, u, eps, gu)
        assert -np.inf < slope < 0.0
        return (prob, f, u, gu, d, gd, eps, e0, slope), fd

    # numpy warns at each overflow; the searches must step around it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("search", ["_line_minimum", "_line_search"])
    def test_line_search_takes_no_overflowing_step(self, search):
        args, fd = self.overflowing()
        extra = (fd,) if search == "_line_minimum" else ()
        t, ut, gt, et, ok = getattr(sv, search)(*args, *extra)
        _, _, u, gu, *_, e0, _ = args
        assert (t, et, ok) == (0.0, e0, False)
        assert ut is u and gt is gu

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("plant,reason", [
        pytest.param(lambda r: 1e200 * r, "no finite energy along the search direction",
                     id="overflow"),
        pytest.param(lambda r: np.full_like(r, np.nan), "non-finite preconditioned residual",
                     id="nan"),
    ])
    def test_descent_stops_at_last_finite_iterate(self, monkeypatch, plant, reason):
        prob, ustar = criterion_8(3.0)
        make = sv._make_precond

        def planted(*a, **k):
            prec = make(*a, **k)
            return lambda r: plant(prec(r))

        monkeypatch.setattr(sv, "_make_precond", planted)
        rep = sv.solve_plaplace(prob, "descent", x0=0.5 * ustar)
        assert not rep.converged and rep.details["breakdown"] == reason
        # the start's certificate and the broken stage's
        assert rep.iterations == 0 and len(rep.residuals) == 2
        assert np.array_equal(rep.solution.values, 0.5 * ustar.values)
        assert np.all(np.isfinite(rep.energies + rep.residuals))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_restart_when_beta_overflows(self, monkeypatch):
        # the first preconditioned residual is planted 1e-20 times its size
        # and the second 1e300 times, so the second step's beta overflows to
        # inf; that step must restart at -pg, whose overflowing energy then
        # ends the stage
        prob, ustar = criterion_8(3.0)
        make, line_minimum = sv._make_precond, sv._line_minimum
        seen, steps = [], []

        def planted(*a, **k):
            prec = make(*a, **k)

            def scaled(r):
                seen.append((r, prec(r) * (1e-20 if not seen else 1e300)))
                return seen[-1][1]

            return scaled

        def recording(prob, f, u, gu, d, gd, eps, e0, slope, fd):
            steps.append((d, slope))
            return line_minimum(prob, f, u, gu, d, gd, eps, e0, slope, fd)

        monkeypatch.setattr(sv, "_make_precond", planted)
        monkeypatch.setattr(sv, "_line_minimum", recording)
        rep = sv.solve_plaplace(prob, "descent", x0=0.5 * ustar, max_outer=1)
        (g1, pg1), (g2, pg2) = seen[:2]
        assert float(np.sum(g2 * (pg2 - pg1))) / float(np.sum(g1 * pg1)) == np.inf
        assert len(steps) == 2
        assert np.array_equal(steps[1][0], -pg2)
        assert all(-np.inf < slope < 0.0 for _, slope in steps)
        assert rep.details["breakdown"] == "no finite energy along the search direction"
        assert np.all(np.isfinite(rep.solution.values))
