"""The runnable verification suite: every identity and inequality as a check.

Each check returns a :class:`CheckResult` with the observed worst-case
residual (or ratio) and its tolerance; the CLI ``verify`` subcommand runs the
whole list and exits nonzero if anything fails.  Sizes are parameterized so
the same code drives both the quick smoke configuration and the full
acceptance-scale run.

The identity suite runs on fracops' half-spectrum layer (``_rfft``,
``_irfft``, the symbols) rather than through the public operators, so that
it transforms each input once, builds each symbol once and holds each array
only until its last use:

* per call, the derivative symbols, axis vectors that broadcast, and the
  Riesz-transform symbols, built at their first use (the reconstruction,
  after integration by parts and -div^s grad^s) and kept to the end;
* per sample pair (u, v), the spectra of u, u - mean(u) and v, each freed
  after its last use at the last s (v's after grad^s v, u's after the
  Bessel round trip), and the spectra of the classical gradient of
  u - mean(u), made at the first commutation check;
* per pair and s, the grad^s symbols, which serve grad^s(u - mean(u)),
  grad^s v, div^s and grad^s u alike and go after -div^s grad^s;
  grad^s(u - mean(u)), kept to the commutation check; and the spectra of
  grad^s u's components, which feed div^s and then the R_j of the
  reconstruction, whose products are formed in them, so they die there.

Any other intermediate goes once its residual is known; sums accumulate in
place.  The largest step is the commutation check, which holds u, v,
u - mean(u) and its spectrum, the Riesz-transform symbols, grad^s(u -
mean(u)), the classical gradient's spectra and one Riesz potential's symbol
and spectrum: about 17.6 N^3 float64 arrays in 3D (``tests/test_suite.py``
bounds it).  The layer is the one the public operators apply, with the same
symbols in the same order of operations, so every residual equals, bit for
bit, the one the public operators give (``tests/test_suite.py`` holds that
oracle).
"""

from __future__ import annotations

import functools
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


def _result(name, observed, tolerance, *, passed=None, **details) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(observed <= tolerance if passed is None else passed),
        observed=float(observed),
        tolerance=float(tolerance),
        details=details,
    )


# ---------------------------------------------------------------------------
# Identity suite: exact symbol identities on seeded band-limited bumps.
# ---------------------------------------------------------------------------


def _norm(g, x) -> float:
    """lp_norm(., 2) of a raw array, or of a vector field given as the list
    of its component arrays.  Each is wrapped as a view, without a copy:
    the view is marked read-only, the array stays writeable."""
    if isinstance(x, list):
        return lp_norm(
            VectorField(g, tuple(ScalarField._own(g, c.view()) for c in x)), 2)
    return lp_norm(ScalarField._own(g, x.view()), 2)


def _added(acc, terms):
    """acc + t_0 + t_1 + ..., left to right as the fields' own sums; acc None
    starts from t_0.  The sums after the first run in place, so t_0 must be
    fresh when acc is None; no term is held while the next is made."""
    terms = iter(terms)
    acc = next(terms) if acc is None else acc + next(terms)
    for t in terms:
        acc += t
        del t
    return acc


def _dot(syms, spectra):
    """sum_j m_j F_j, accumulated in place as fracops._div sums, from
    spectra already at hand."""
    acc = syms[0] * spectra[0]
    for m, F in zip(syms[1:], spectra[1:]):
        acc += m * F
    return acc


def _identity_residuals(g, u, v, s_values, d_syms, riesz):
    """Yield (identity, relative residual) for one sample pair (u, v), raw
    arrays, at every s; d_syms are the derivative symbols of every
    component, and riesz() gives the Riesz-transform symbols."""
    hn = g.h**g.spec.n
    _rfft, _irfft, _symbol = fo._rfft, fo._irfft, fo._symbol

    def times(m, F):  # the field whose half spectrum is m F
        return _irfft(g, m * F)

    def into(m, F):  # the same, with the product formed in F, which dies
        return _irfft(g, np.multiply(m, F, out=F))

    um = u - np.mean(u)
    Fu, Fum, Fv = _rfft(g, u), _rfft(g, um), _rfft(g, v)
    # made at its first use, so that it is not held through the steps
    # before the commutation check
    FDum = None
    nu, num = _norm(g, u), _norm(g, um)
    # the identities run in the order that releases grad^s's symbols and
    # grad^s u earliest; none depends on another's result
    for k, s in enumerate(s_values):
        last = k == len(s_values) - 1
        grad = fo._odd_symbols(g, "riesz_gradient", s, range(g.spec.n))
        gr = [times(m, Fum) for m in grad]

        # integration by parts: <grad^s u, V> = -<u, div^s V>
        V = [times(m, Fv) for m in grad]
        if last:  # the last use of v's spectrum
            del Fv
        lhs = hn * sum(float(np.sum(a * b)) for a, b in zip(gr, V))
        ngv = _norm(g, gr) * _norm(g, V)
        dv = fo._div(g, grad, V)
        del V
        rhs = -hn * float(np.sum(um * dv))
        scale = ngv + num * _norm(g, dv)
        del dv
        yield "integration_by_parts", abs(lhs - rhs) / (scale if scale else 1.0)

        # -div^s grad^s = (-Lap)^s; the spectra of grad^s u's components
        # feed div^s here and the R_j of the reconstruction next
        FGu = [_rfft(g, times(m, Fu)) for m in grad]
        dg = _irfft(g, _dot(grad, FGu))
        del grad
        lap = times(_symbol(g, "fractional_laplacian", 2.0 * s), Fu)
        r = _norm(g, dg + lap) / _norm(g, lap)
        del dg, lap
        yield "div_grad_laplacian", r

        # space equivalence construction: u = Lambda_s(G_s(id + sum R_j d_j^s) u),
        # with d_j^s u the j-th component of grad^s u, whose spectra die here
        acc = _added(u, (into(m, F) for m, F in zip(riesz(), FGu)))
        del FGu
        bessel = _symbol(g, "bessel_potential", s)
        rec = fo._multiply(g, bessel, fo._multiply(g, _symbol(g, "G_s", s), acc))
        r = _norm(g, rec - u) / nu
        del acc, rec
        yield "bessel_reconstruction", r

        # bessel inverse: Lambda_s Lambda_{-s} = id
        br = fo._multiply(g, _symbol(g, "bessel_potential", -s), times(bessel, Fu))
        if last:  # the last use of u's spectrum
            del Fu
        r = _norm(g, br - u) / nu
        del bessel, br
        yield "bessel_roundtrip", r

        # fundamental theorem of calculus (mean-zero): u = I_s(R . grad^s u)
        acc = _added(None, (fo._multiply(g, m, c) for m, c in zip(riesz(), gr)))
        rec = fo._multiply(g, _symbol(g, "riesz_potential", s), acc)
        r = _norm(g, rec - um) / num
        del acc, rec
        yield "fundamental_theorem", r

        # commutation: grad^s u = D(I_{1-s} u) = I_{1-s}(D u), one
        # component of each route at a time
        if FDum is None:  # spectra of the classical gradient of u - mean(u)
            FDum = [_rfft(g, times(m, Fum)) for m in d_syms]
        pot = _symbol(g, "riesz_potential", 1.0 - s)
        Fp = _rfft(g, times(pot, Fum))
        den = max(_norm(g, c) for c in gr)
        comm = max(
            max(_norm(g, a - times(m, Fp)) for a, m in zip(gr, d_syms)),
            max(_norm(g, a - times(pot, F)) for a, F in zip(gr, FDum)),
        )
        del gr, pot, Fp
        yield "gradient_of_potential", comm / den

        # Riesz potential semigroup on mean-zero fields: I_a I_b = I_{a+b}
        a, b = 0.3 * s, 0.5 * s
        two = fo._multiply(g, _symbol(g, "riesz_potential", b),
                           times(_symbol(g, "riesz_potential", a), Fum))
        one = times(_symbol(g, "riesz_potential", a + b), Fum)
        r = _norm(g, two - one) / _norm(g, one)
        del two, one
        yield "potential_semigroup", r


def identity_checks(
    n: int,
    N: int,
    s_values=(0.25, 0.5, 0.75),
    count: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> list[CheckResult]:
    """Run the operator-identity suite on seeded bumps; one result per identity.

    Work is shared and memory let go as the module docstring says.  Nothing
    is kept between calls.  Each residual is bitwise the one the public
    operators give.
    """
    grid = make_grid(GridSpec(n=n, N=N, L=1.0))
    fam = iq.bump_family(grid, count, seed=seed)
    fam_v = iq.bump_family(grid, count, seed=seed + 1)
    d_syms = fo._odd_symbols(grid, "derivative", 0.0, range(n))
    # built at their first use, after the two steps that hold grad^s's
    # symbols, then kept for the rest of the call
    riesz = functools.cache(
        lambda: fo._odd_symbols(grid, "riesz_transform", 0.0, range(n)))
    worst: dict[str, float] = {}
    for u, v in zip(fam, fam_v):
        for name, r in _identity_residuals(
            grid, u.values, v.values, s_values, d_syms, riesz
        ):
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


#: the PV cross-check's grids (n = 1, L = 1), its bar on the fine grid's
#: windowed error and the least coarse/fine error ratio it accepts
_PV_N_COARSE, _PV_N_FINE = 128, 256
_PV_TOL = 1e-2
_PV_MIN_GAIN = 2.0


def pv_check(s_values=(0.25, 0.5, 0.75)) -> list[CheckResult]:
    """Cross-validate the spectral gradient against the 1D PV quadrature.

    The comparison runs on the window |x - center| <= R - 2 rho where the
    truncated free-space quadrature is a faithful oracle (rho = L/16 bump).
    """
    out = []
    for s in s_values:
        errs = {}
        for N in (_PV_N_COARSE, _PV_N_FINE):
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
            _result(f"pv_agreement s={s}", errs[_PV_N_FINE], _PV_TOL,
                    coarse_error=errs[_PV_N_COARSE])
        )
        gain = errs[_PV_N_COARSE] / errs[_PV_N_FINE]
        out.append(
            _result(f"pv_refinement_gain s={s}", gain, _PV_MIN_GAIN,
                    passed=gain >= _PV_MIN_GAIN, direction="observed >= tolerance")
        )
    return out


def weights_checks(N: int = 512, levels: int = 7) -> list[CheckResult]:
    out = []
    grid = make_grid(GridSpec(n=1, N=N, L=2.0, origin=(-1.0,)))
    fam = wt.CubeFamily(lo=(-1.0,), size=2.0, level_min=0, level_max=levels)
    w = wt.power_weight(grid, [0.0], 0.5, 2.0)
    a = {p: wt.ap_constant(w, p, fam).value for p in (1.5, 2.0, 3.0)}
    target = 4.0 / 3.0
    out.append(
        _result("ap_power_half_vs_closed_form", abs(a[2.0] - target) / target, 0.02,
                estimate=a[2.0], closed_form=target)
    )
    # dual relation, exact per cube
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        ad = wt.ap_constant(wt.dual_weight(w, p), p / (p - 1.0), fam).value
        worst = max(worst, abs(ad - a[p] ** (1.0 / (p - 1.0))) / ad)
    out.append(_result("ap_duality_relation", worst, 1e-10))
    # nesting [w]_q <= [w]_p for p <= q
    out.append(
        _result("ap_nesting", a[3.0], a[2.0], passed=a[3.0] <= a[2.0] * (1.0 + 1e-12),
                direction="observed <= tolerance")
    )
    # A_{p,q} <-> A_r finiteness co-occurrence on a fixed family
    p, q = 2.0, 4.0
    r = 1.0 + q / (p / (p - 1.0))
    apq = wt.apq_constant(w, p, q, fam).value
    ar = wt.ap_constant(w, r, fam).value
    out.append(
        _result("apq_equivalence_finite", apq, float("inf"),
                passed=np.isfinite(apq) and np.isfinite(ar), a_r_estimate=ar, r=r)
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
    # a family the estimate never saw: its constant is raised to the maximum
    # over the family of `seed`, so only lambda^(-1/p) on other fields can fail
    fam = iq._interior_family(grid, mask, seed + 1)
    out = []
    for p, residual_name, family_name in (
        (2.0, "poincare_eigensolve_residual", "poincare_family_inequality"),
        (3.0, "poincare_p3_eigen_residual", "poincare_p3_family_inequality"),
    ):
        est = iq.poincare_constant(grid, mask, 0.5, p, seed=seed)
        out.append(_result(residual_name, est.residual, 1e-8, constant=est.constant))
        # the eigenvalue's constant dominates the unseen family
        sharp = est.eigenvalue ** (-1.0 / p)
        worst = 0.0
        for u in fam:
            ui = ScalarField(grid, np.where(mask, u.values, 0.0))
            gn = lp_norm(fo.riesz_gradient(ui, 0.5), p)
            un = lp_norm(ui, p)
            if gn > 0:
                worst = max(worst, un / (gn * sharp))
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
    out.append(_result("solver_energy_monotone", 0.0 if mono else 1.0, 0.5))
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
        F = forward_transform(u)
        rt = inverse_transform(F)
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(rt.values - u.values)) / np.max(np.abs(u.values))),
        )
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
        results += identity_checks(3, 16, count=2, seed=seed)
    else:
        results += identity_checks(1, 256, count=100, seed=seed)
        results += identity_checks(2, 128, count=100, seed=seed)
        results += identity_checks(3, 32, count=10, seed=seed)
    results.append(constants_check())
    results += pv_check(s_values=(0.5,) if quick else (0.25, 0.5, 0.75))
    results += weights_checks(N=256 if quick else 512, levels=6 if quick else 7)
    results.append(gn_single_mode_check(grid_points=3 if quick else 5, seed=seed))
    results.append(holder_dual_check(seed=seed))
    results += poincare_check(seed=seed)
    results += solver_checks(seed=seed)
    return results
