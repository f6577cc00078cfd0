"""Measurable reports for the norm equivalences and embedding inequalities.

Inequalities whose constants the theory leaves unspecified are tested as
bounded-ratio properties over a fixed, seeded sample family (mollifier bumps
at several scales and positions plus band-limited random fields).  Caps were
calibrated once on the shipped default family and committed next to each
report; a report's verdict is "bounded" when every observed ratio stays
below its cap, "violated" only when an inequality with a known constant
fails beyond tolerance, and "inconclusive" for degenerate inputs.

Identities that are exact come with their constants: the single-mode
interpolation ratio is exactly one, and the Poincare constant is
lambda^(-1/p) for the first eigenvalue lambda of the weighted fractional
p-Laplacian.  At p = 2 that is the symmetric pencil K u = lambda w u, solved
by preconditioned LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) with one
operator application per step and no inner solve; at every other p it is
one nonlinear inverse power iteration (Hein & Buehler, NIPS 2010) whose
steps are warm-started Kacanov steps on one problem and one solver state
per estimate.

Bump samples are spectrally truncated below the top octave (|k| <= N/4 per
axis); this is the frequency-side counterpart of the spatial margin rule and
keeps the unpaired-Nyquist convention from polluting identity residuals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import Grid, ScalarField, VectorField, bump, lp_norm
from . import fracops as fo
from .fracops import _sum
from .solver import PDEProblem, _make_precond, _residual, _SolveState
from .weights import Weight, dual_weight, tabulated_weight

__all__ = [
    "NormBundle",
    "InequalityReport",
    "PoincareEstimate",
    "band_limit",
    "bump_family",
    "bandlimited_family",
    "standard_family",
    "norm_bundle",
    "grad_norm",
    "equivalence_report",
    "poincare_constant",
    "gn_report",
    "sobolev_report",
    "s_limit_report",
    "dual_representation_check",
    "sobolev_conjugate",
]


def _band_limited(grid: Grid, values: np.ndarray, kmax: float) -> np.ndarray:
    """values without the modes |k| > kmax on any axis (k integer)."""
    N, n = grid.spec.N, grid.spec.n
    ks = [np.fft.fftfreq(N, d=1.0 / N)] * (n - 1) + [np.fft.rfftfreq(N, d=1.0 / N)]
    F = fo._rfft(grid, values)
    for k in np.ix_(*ks):
        F *= np.abs(k) <= kmax
    return fo._irfft(grid, F)


def band_limit(u: ScalarField, fraction: float = 0.25) -> ScalarField:
    """Zero all modes with |k| > fraction * N on any axis."""
    return ScalarField(u.grid, _band_limited(u.grid, u.values, fraction * u.grid.spec.N))


def bump_family(grid: Grid, count: int, seed: int = 0) -> list[ScalarField]:
    """Seeded mollifier bumps of radius 0.16-0.24 box edges and sharpness
    0.8-1.6, band-limited by :func:`band_limit`."""
    rng = np.random.default_rng(seed)
    L = grid.spec.L
    o = grid.spec.origin
    out = []
    for _ in range(count):
        rad = rng.uniform(0.16, 0.24) * L
        center = [rng.uniform(o[d] + 2 * rad, o[d] + L - 2 * rad) for d in range(grid.spec.n)]
        out.append(band_limit(bump(grid, center, rad, rng.uniform(0.8, 1.6))))
    return out


def bandlimited_family(grid: Grid, count: int, seed: int = 0) -> list[ScalarField]:
    """Random real fields supported on |k| <= N/8 per axis."""
    rng = np.random.default_rng(seed)
    kmax = grid.spec.N // 8
    return [
        ScalarField(grid, _band_limited(grid, rng.standard_normal(grid.spec.shape), kmax))
        for _ in range(count)
    ]


def standard_family(grid: Grid, seed: int = 0, bumps: int = 6, modes: int = 4):
    """The default mixed sample family used by the shipped reports."""
    fam = bump_family(grid, bumps, seed=seed)
    fam += bandlimited_family(grid, modes, seed=seed + 1)
    return fam


@dataclass(frozen=True)
class NormBundle:
    """The four norms tied together by the space equivalence."""

    lp: float
    grad_lp: float
    x_norm: float
    h_norm: float


def norm_bundle(u: ScalarField, s: float, p: float, w: Weight | None = None) -> NormBundle:
    a = lp_norm(u, p, w)
    b = lp_norm(fo.riesz_gradient(u, s), p, w)
    h = lp_norm(fo.bessel_potential(u, -s), p, w)
    return NormBundle(lp=a, grad_lp=b, x_norm=a + b, h_norm=h)


def grad_norm(u: ScalarField, order: float, p: float, w: Weight | None = None) -> float:
    """||grad^order u||_{L^p_w} with grad^0 = id and grad^1 the spectral gradient."""
    if order == 0.0:
        return lp_norm(u, p, w)
    if order == 1.0:
        return lp_norm(fo.spectral_gradient(u), p, w)
    return lp_norm(fo.riesz_gradient(u, order), p, w)


@dataclass
class InequalityReport:
    name: str
    params: dict
    family: str
    max_ratio: float
    median_ratio: float
    reference: float | None
    verdict: str
    samples: list[dict] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "family": self.family,
            "max_ratio": self.max_ratio,
            "median_ratio": self.median_ratio,
            "reference": self.reference,
            "verdict": self.verdict,
        }


def _verdict(maxval: float, cap: float) -> str:
    return "bounded" if maxval <= cap else "inconclusive"


def _ratio_report(name, params, family, ratios, samples, cap) -> InequalityReport:
    """Observed ratios against their cap; "inconclusive" when no member of
    the family gave a ratio."""
    if not ratios:
        return InequalityReport(name, params, "degenerate", 0.0, 0.0, cap, "inconclusive")
    worst = max(ratios)
    return InequalityReport(
        name, params, f"{len(family)} samples", float(worst),
        float(np.median(ratios)), cap, _verdict(worst, cap), samples,
    )


#: Committed caps from the calibration run on the default family
#: (grid n=1 N=256 L=1, n=2 N=64 L=1; seeds 0/1; s in {0.25, 0.5, 0.75};
#: w constant and |x - c|^(1/2)).  Observed maxima were well below these.
EQUIVALENCE_CAP = 8.0
GN_CAP = 4.0
SOBOLEV_CAP = 10.0


def equivalence_report(
    family,
    s: float,
    p: float,
    w: Weight | None = None,
) -> InequalityReport:
    """Two-sided comparability of the gradient norm sum and the Bessel norm;
    "inconclusive" for an empty family, and a zero member is refused."""
    ratios_hx = []
    ratios_xh = []
    samples = []
    for i, u in enumerate(family):
        nb = norm_bundle(u, s, p, w)
        if nb.x_norm == 0.0 or nb.h_norm == 0.0:
            raise ValueError(f"family member {i} is zero")
        ratios_hx.append(nb.h_norm / nb.x_norm)
        ratios_xh.append(nb.x_norm / nb.h_norm)
        samples.append(
            {"sample": i, "h_norm": nb.h_norm, "x_norm": nb.x_norm,
             "ratio": nb.h_norm / nb.x_norm}
        )
    params = {"s": s, "p": p, "weight": None if w is None else w.family}
    if not samples:
        return _ratio_report("norm_equivalence", params, family, [], samples,
                             EQUIVALENCE_CAP)
    worst = max(max(ratios_hx), max(ratios_xh))
    return InequalityReport(
        name="norm_equivalence",
        params=params,
        family=f"{len(family)} samples",
        max_ratio=float(worst),
        median_ratio=float(np.median(ratios_hx)),
        reference=EQUIVALENCE_CAP,
        verdict=_verdict(worst, EQUIVALENCE_CAP),
        samples=samples,
    )


@dataclass
class PoincareEstimate:
    constant: float
    eigenvalue: float
    residual: float
    iterations: int
    converged: bool
    method: str

    def to_record(self) -> dict:
        return asdict(self)


def poincare_constant(
    grid: Grid,
    mask: np.ndarray,
    s: float,
    p: float = 2.0,
    w: Weight | None = None,
    tol: float = 1e-8,
    max_iter: int | None = None,
    family=None,
    seed: int = 0,
) -> PoincareEstimate:
    """Best constant in ||u||_{L^p_w} <= C ||grad^s u||_{L^p_w} over interior u.

    Solves -div^s(w |grad^s u|^(p-2) grad^s u) = lambda w |u|^(p-2) u for
    its first eigenpair, started from the family member with the smallest
    Rayleigh quotient.  At p = 2 this is the symmetric pencil K u = lambda
    B u with B = w on Omega, solved by LOBPCG (method "lobpcg", see
    _lobpcg): each step applies the solver's preconditioner for w (the
    shifted (-Lap)^s scaled by the operator's diagonal) and K once, and no
    inner solve runs.  At every other p it is the nonlinear
    inverse power iteration (method "inverse_power"): each step is one
    warm-started Kacanov step, the step :func:`solve_plaplace` takes, with
    right-hand side w |u|^(p-2) u, started at the energy's minimizer on the
    ray through u, so the quotient never rises.  One problem and one solver
    state serve every step, which changes only the state's right-hand side
    f = B u; a failed inner solve or line search clears converged.
    Either way lambda never rises from step to step.  iterations counts
    LOBPCG steps or inverse power steps; max_iter caps it and defaults to
    2000 at p = 2 (the cap of :func:`solve_linear`, as each LOBPCG step
    costs about one CG iteration) and 200 otherwise.
    lambda is the Rayleigh quotient <u, Tu> / <u, Bu> and the residual is
    ||Tu - lambda Bu|| / (lambda ||Bu||), both computed afresh at the
    returned u; converged needs the residual below tol.  The constant is
    lambda^(-1/p), raised to the best family ratio when that is larger, so it
    dominates the family; it is the sharp constant when the iteration reaches
    the first eigenfunction.  p < 1.1 is refused and Omega needs the
    solver's 4h seam margin.  On the whole torus only p = 2 with a constant
    weight is admitted: T u is mean-free there and w |u|^(p-2) u otherwise
    is not, so no step could bring the residual to zero.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("interior mask is empty")
    if max_iter is None:
        max_iter = 2000 if p == 2.0 else 200
    if w is None:
        w = tabulated_weight(grid, np.ones(grid.spec.shape), p)
    if mask.all() and (p != 2.0 or np.ptp(w.values) > 0.0):
        raise ValueError(
            "on the whole torus T u is mean-free and w |u|^(p-2) u is not unless "
            "p = 2 and w is constant, so the eigen-residual cannot vanish; give "
            "omega as a proper subdomain"
        )
    if family is None:
        family = _interior_family(grid, mask, seed)
    u = None
    family_max = 0.0
    for v in family:
        uf = ScalarField(grid, np.where(mask, v.values, 0.0))
        gn = lp_norm(fo.riesz_gradient(uf, s), p, w)
        un = lp_norm(uf, p, w)
        if gn > 0.0 and un / gn > family_max:
            family_max = un / gn
            u = uf.values / un
    if u is None:
        raise ValueError("no usable family member inside the mask")
    # one problem serves every step; its right-hand side is unused, as each
    # step gives the solve state B u as f
    prob = PDEProblem(grid, mask, s, p, w, ScalarField(grid, np.zeros(grid.spec.shape)))

    def eigen(u):
        """(B u, lambda, residual) of an interior field u."""
        Bu = w.values * np.sign(u) * np.abs(u) ** (p - 1.0)
        Tu = _residual(prob, prob.kit.grad(u), 0.0)
        lam = float(_sum(u * Tu) / _sum(u * Bu))
        res = float(
            np.sqrt(_sum((Tu - lam * Bu) ** 2)) / (lam * np.sqrt(_sum(Bu * Bu)))
        )
        return Bu, lam, res

    if p == 2.0:
        u, iters = _lobpcg(prob, u, tol, max_iter)
        _, lam, res = eigen(u)
        return PoincareEstimate(
            constant=max(lam**-0.5, family_max),
            eigenvalue=lam,
            residual=res,
            iterations=iters,
            converged=res < tol,
            method="lobpcg",
        )
    Bu, lam, res = eigen(u)
    st = _SolveState(prob, "kacanov")
    iters = 0
    while res >= tol and iters < max_iter:
        st.f = prob.project(Bu)
        st.start(u * lam ** (-1.0 / (p - 1.0)))
        st.step()
        sol = ScalarField(grid, prob.project(st.u))
        u = sol.values / lp_norm(sol, p, w)
        Bu, lam, res = eigen(u)
        iters += 1
    failures = st.counts["inner_unconverged"] + st.counts["line_search_failures"]
    return PoincareEstimate(
        constant=max(lam ** (-1.0 / p), family_max),
        eigenvalue=lam,
        residual=res,
        iterations=iters,
        converged=res < tol and failures == 0,
        method="inverse_power",
    )


#: LOBPCG's Rayleigh-Ritz drops a direction whose eigenvalue in the Gram
#: matrix of B falls below this fraction of the largest one
_GRAM_DROP = 1e-12


def _lobpcg(prob: PDEProblem, x: np.ndarray, tol: float, max_iter: int):
    """Single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) for the
    smallest eigenpair of K u = lambda B u, K = -div^s(w grad^s .) on
    interior fields and B = w; returns (u, steps).

    A step forms r = K x - lambda B x with lambda = <x, Kx> / <x, Bx> and
    stops once ||r|| < tol lambda ||Bx||.  Otherwise it preconditions r by
    the solver's preconditioner for w (solver._make_precond: the shifted
    (-Lap)^s scaled on both sides by the operator's diagonal),
    W = prec(r), applies K once, to W, and runs Rayleigh-Ritz on
    span{x, W, P}, P the last step's update, by numpy.linalg.eigh:
    each column is scaled to unit B-norm, and directions whose B-Gram
    eigenvalue is below _GRAM_DROP times the largest are dropped.  x, Kx, P
    and KP follow by linear combination, so K is never applied to x again.
    The Ritz value is the minimum of the quotient over a span that holds x,
    so lambda never rises.  The Gram matrices are einsum sums, not matrix
    products, which would page in BLAS code for these few columns.
    """
    w = prob.weight.values
    prec = _make_precond(prob)

    def K(v):
        return _residual(prob, prob.kit.grad(v), 0.0)

    x = prob.project(x)
    Kx = K(x)
    P = KP = None
    steps = 0
    while True:
        Bx = w * x
        lam = float(_sum(x * Kx) / _sum(x * Bx))
        r = Kx - lam * Bx
        if _sum(r * r) < (tol * lam) ** 2 * _sum(Bx * Bx) or steps == max_iter:
            return x, steps
        W = prec(r)
        cols, kcols = [x, W], [Kx, K(W)]
        if P is not None:
            cols.append(P)
            kcols.append(KP)
        S = np.stack([c.ravel() for c in cols])
        KS = np.stack([c.ravel() for c in kcols])
        GB = np.einsum("ik,jk->ij", S, w.ravel() * S)
        GK = np.einsum("ik,jk->ij", S, KS)
        scale = 1.0 / np.sqrt(np.maximum(np.diag(GB), 1e-300))
        d, V = np.linalg.eigh(scale[:, None] * (GB + GB.T) * scale / 2.0)
        keep = d > _GRAM_DROP * d[-1]
        T = V[:, keep] / np.sqrt(d[keep])
        GK = scale[:, None] * (GK + GK.T) * scale / 2.0
        _, Y = np.linalg.eigh(np.einsum("ki,kl,lj->ij", T, GK, T))
        c = scale * np.einsum("ij,j->i", T, Y[:, 0])
        P = sum(ci * v for ci, v in zip(c[1:], cols[1:]))
        KP = sum(ci * v for ci, v in zip(c[1:], kcols[1:]))
        x = c[0] * x + P
        Kx = c[0] * Kx + KP
        steps += 1


def _interior_family(grid: Grid, mask: np.ndarray, seed: int, count: int = 8):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        vals = np.where(mask, rng.standard_normal(grid.spec.shape), 0.0)
        sm = band_limit(ScalarField(grid, vals), fraction=0.2)
        out.append(ScalarField(grid, np.where(mask, sm.values, 0.0)))
    return out


def gn_report(
    family,
    r: float,
    s: float,
    t: float,
    p: float,
    w: Weight | None = None,
) -> InequalityReport:
    """Interpolation ratio ||grad^s u|| / (||grad^r u||^(1-theta) ||grad^t u||^theta)."""
    if not (0.0 <= r <= s <= t <= 1.0) or r == t:
        raise ValueError(f"need 0 <= r <= s <= t <= 1 with r != t, got {(r, s, t)}")
    theta = (s - r) / (t - r)
    ratios = []
    samples = []
    for i, u in enumerate(family):
        num = grad_norm(u, s, p, w)
        den = grad_norm(u, r, p, w) ** (1.0 - theta) * grad_norm(u, t, p, w) ** theta
        if den == 0.0:
            continue
        ratios.append(num / den)
        samples.append({"sample": i, "ratio": num / den})
    params = {"r": r, "s": s, "t": t, "p": p, "theta": theta,
              "weight": None if w is None else w.family}
    return _ratio_report("gagliardo_nirenberg", params, family, ratios, samples, GN_CAP)


def sobolev_conjugate(n: int, s: float, p: float) -> float:
    if s * p >= n:
        raise ValueError(f"need s*p < n, got s*p = {s * p} with n = {n}")
    return n * p / (n - s * p)


def sobolev_report(
    family,
    s: float,
    p: float,
    w: Weight,
) -> InequalityReport:
    """||u||_{L^{p*}_w} / ||grad^s u||_{L^p_{w_{s,p}}} with w_{s,p} = w^((n-sp)/n)."""
    grid = w.grid
    n = grid.spec.n
    pstar = sobolev_conjugate(n, s, p)
    wsp = tabulated_weight(grid, w.values ** ((n - s * p) / n), p)
    ratios = []
    samples = []
    for i, u in enumerate(family):
        num = lp_norm(u, pstar, w)
        den = lp_norm(fo.riesz_gradient(u, s), p, wsp)
        if den == 0.0:
            continue
        ratios.append(num / den)
        samples.append({"sample": i, "ratio": num / den})
    params = {"s": s, "p": p, "p_star": pstar, "weight": w.family,
              "substituted_weight": "w^((n-sp)/n)"}
    return _ratio_report("sobolev", params, family, ratios, samples, SOBOLEV_CAP)


def s_limit_report(u: ScalarField, s_values=(0.9, 0.99, 0.999)) -> InequalityReport:
    """Convergence of the fractional gradient to the classical one as s -> 1."""
    classical = fo.spectral_gradient(u)
    den = lp_norm(classical, 2)
    if den == 0.0:
        return InequalityReport(
            "s_limit", {"s_values": list(s_values)}, "single field",
            0.0, 0.0, None, "inconclusive",
        )
    errs = []
    samples = []
    for s in s_values:
        gs = fo.riesz_gradient(u, s)
        err = np.sqrt(
            sum(
                lp_norm(gs.components[j] - classical.components[j], 2) ** 2
                for j in range(u.grid.spec.n)
            )
        ) / den
        errs.append(err)
        samples.append({"s": s, "relative_error": err})
    monotone = all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
    verdict = "bounded" if monotone and errs[-1] < 1e-2 else "inconclusive"
    return InequalityReport(
        name="s_limit",
        params={"s_values": list(s_values)},
        family="single field",
        max_ratio=float(errs[0]),
        median_ratio=float(np.median(errs)),
        reference=1e-2,
        verdict=verdict,
        samples=samples,
    )


def dual_representation_check(
    gvec: VectorField,
    family,
    s: float,
    p: float,
    w: Weight,
) -> InequalityReport:
    """Check |integral(g . grad^s u)| <= ||g||_{L^p'_{w*}} ||grad^s u||_{L^p_w};
    "inconclusive" when no member has a nonzero bound, as then no pairing
    is tested."""
    grid = gvec.grid
    hn = grid.h**grid.spec.n
    pprime = p / (p - 1.0)
    wstar = dual_weight(w, p)
    gnorm = lp_norm(gvec, pprime, wstar)
    worst = 0.0
    samples = []
    for i, u in enumerate(family):
        gr = fo.riesz_gradient(u, s)
        F = hn * float(
            sum(
                _sum(a.values * b.values)
                for a, b in zip(gvec.components, gr.components)
            )
        )
        bound = gnorm * lp_norm(gr, p, w)
        ratio = 0.0 if bound == 0.0 else abs(F) / bound
        worst = max(worst, ratio)
        samples.append({"sample": i, "pairing": F, "bound": bound, "ratio": ratio})
    params = {"s": s, "p": p, "weight": w.family}
    if not any(r["bound"] > 0.0 for r in samples):
        # a zero bound makes its ratio 0 whatever the pairing: nothing tested
        return InequalityReport("dual_representation_holder", params, "degenerate",
                                0.0, 0.0, 1.0, "inconclusive", samples)
    # the Hoelder bound holds exactly; 1e-10 absorbs the rounding of the sums
    verdict = "bounded" if worst <= 1.0 + 1e-10 else "violated"
    return InequalityReport(
        name="dual_representation_holder",
        params=params,
        family=f"{len(family)} samples",
        max_ratio=float(worst),
        median_ratio=float(np.median([r["ratio"] for r in samples])),
        reference=1.0,
        verdict=verdict,
        samples=samples,
    )
