"""Discrete weak solvers for the degenerate fractional p-Laplace problem.

The unknown is a grid field equal to the exterior data g outside the interior
mask Omega; the Riesz gradient is always evaluated globally on the full field
so nonlocality is honored, and residuals are restricted to interior points
(the discrete counterpart of testing against functions vanishing outside
Omega).  The discrete integration-by-parts identity is exact for the lattice
symbols, so the interior-restricted p=2 operator is symmetric positive
definite and conjugate gradients apply verbatim.

Residuals are measured in the dual-norm surrogate ||(-Lap)^(-s/2) r||_L2 over
interior modes, relative to the same norm of the right-hand side.

The p != 2 coefficient |grad^s u|^(p-2) is regularized as
(|grad^s u|^2 + eps^2)^((p-2)/2) with eps shrinking geometrically across
outer iterations; convergence is always declared on the unregularized
residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, ScalarField, VectorField, lp_norm
from .fracops import _RieszOps
from .weights import Weight

__all__ = [
    "PDEProblem",
    "SolveReport",
    "EllipticityError",
    "apply_operator",
    "energy",
    "weak_residual_norm",
    "solve_linear",
    "solve_plaplace",
    "monotonicity_gap",
    "manufacture",
    "enforce_exterior",
]


class EllipticityError(RuntimeError):
    """Raised when the interior operator stops being positive definite."""


@dataclass(frozen=True, eq=False)
class PDEProblem:
    """-div^s(coeff(x, grad^s u) grad^s u) = f in Omega, u = g outside.

    The coefficient is either a scalar Weight w (p-Laplacian flux
    w |grad^s u|^(p-2) grad^s u) or, for p = 2, a symmetric matrix field A
    with recorded degenerate-ellipticity constants c1 w |xi|^2 <= A xi.xi
    <= c2 w |xi|^2.  The right-hand side is either a scalar field f or a
    vector field acting through v -> integral(f_vec . grad^s v).
    """

    grid: Grid
    mask: np.ndarray
    s: float
    p: float
    weight: Weight
    rhs: ScalarField | VectorField
    matrix: np.ndarray | None = None
    c1: float | None = None
    c2: float | None = None
    exterior: ScalarField | None = None
    check_seed: int = 0

    def __post_init__(self) -> None:
        g = self.grid
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != g.spec.shape:
            raise ValueError("mask shape does not match grid")
        if not mask.any():
            raise ValueError("interior mask is empty")
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if not (self.p > 1.0):
            raise ValueError(f"p must exceed 1, got {self.p}")
        full = bool(mask.all())
        object.__setattr__(self, "full_torus", full)
        if not full:
            # a genuine exterior must keep clear of the periodic seam
            margin = 4.0 * g.h * (1.0 - 1e-12)
            coords = g.coords()
            for d in range(g.spec.n):
                lo = g.spec.origin[d]
                hi = lo + g.spec.L
                c = coords[d][mask]
                if np.any(c < lo + margin) or np.any(c > hi - margin):
                    raise ValueError("interior mask needs a margin of at least 4h")
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        if self.weight.grid != g:
            raise ValueError("weight lives on a different grid")
        if self.rhs.grid != g:
            raise ValueError("rhs lives on a different grid")
        if self.matrix is not None:
            self._validate_matrix()
        if self.exterior is not None:
            if self.p != 2.0:
                raise ValueError("nonzero exterior data requires p = 2")
            if self.exterior.grid != g:
                raise ValueError("exterior data lives on a different grid")

    def _validate_matrix(self) -> None:
        n = self.grid.spec.n
        A = np.asarray(self.matrix, dtype=np.float64)
        if A.shape != (n, n, *self.grid.spec.shape):
            raise ValueError(
                f"matrix field must have shape {(n, n, *self.grid.spec.shape)}"
            )
        if self.p != 2.0:
            raise ValueError("matrix coefficients are supported only for p = 2")
        if self.c1 is None or self.c2 is None or not (0 < self.c1 <= self.c2):
            raise ValueError("matrix problems need ellipticity constants 0 < c1 <= c2")
        sym_gap = max(
            float(np.max(np.abs(A[i, j] - A[j, i])))
            for i in range(n)
            for j in range(i + 1, n)
        ) if n > 1 else 0.0
        scale = float(np.max(np.abs(A))) or 1.0
        if sym_gap > 1e-12 * scale:
            raise ValueError("matrix field is not symmetric")
        # sampled degenerate-ellipticity check, 16 random directions
        rng = np.random.default_rng(self.check_seed)
        dirs = rng.standard_normal((16, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        w = self.weight.values
        tol = 1e-10
        for xi in dirs:
            quad = np.einsum("i,ij...,j->...", xi, A, xi)
            if np.any(quad < (self.c1 - tol) * w) or np.any(
                quad > (self.c2 + tol) * w
            ):
                raise EllipticityError(
                    "sampled direction violates the degenerate ellipticity bounds"
                )
        A = A.copy()
        A.flags.writeable = False
        object.__setattr__(self, "matrix", A)

    def exterior_values(self) -> np.ndarray:
        """The lifting field G: g on the exterior, zero inside Omega."""
        if self.exterior is None:
            return np.zeros(self.grid.spec.shape)
        return np.where(self.mask, 0.0, self.exterior.values)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Restrict to admissible variations: zero the exterior, or remove
        the mean when Omega is the whole torus (constants unconstrained)."""
        if self.full_torus:
            return v - np.mean(v)
        return np.where(self.mask, v, 0.0)


@dataclass
class SolveReport:
    solution: ScalarField
    iterations: int
    residuals: list[float]
    energies: list[float]
    converged: bool
    method: str
    preconditioner: str = "spectral"
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
            "preconditioner": self.preconditioner,
            "residuals": self.residuals,
            "energies": self.energies,
            **self.details,
        }

    def history_rows(self) -> list[tuple]:
        rows = []
        for k in range(max(len(self.residuals), len(self.energies))):
            res = self.residuals[k] if k < len(self.residuals) else ""
            en = self.energies[k] if k < len(self.energies) else ""
            rows.append((k, res, en))
        return rows


def _coeff(w: np.ndarray, p: float, gr: list[np.ndarray], eps: float) -> np.ndarray:
    """w m^((p-2)/2) with m = |g|^2 + eps^2, taking m = 1 where m = 0 (the
    flux a g vanishes there whatever a is)."""
    if p == 2.0:
        return w
    m = sum(c * c for c in gr) + eps * eps
    return w * np.where(m > 0.0, m, 1.0) ** ((p - 2.0) / 2.0)


def _flux(prob: PDEProblem, gr: list[np.ndarray], eps: float) -> list[np.ndarray]:
    """Pointwise flux a(x, |grad|) grad."""
    if prob.matrix is not None:
        return list(np.einsum("ij...,j...->i...", prob.matrix, np.stack(gr)))
    a = _coeff(prob.weight.values, prob.p, gr, eps)
    return [a * c for c in gr]


def _residual(kit: _RieszOps, prob: PDEProblem, gr, f, eps: float = 0.0) -> np.ndarray:
    """Interior residual -div^s(flux) - f of the field whose gradient is gr."""
    return prob.project(-kit.div(_flux(prob, gr, eps)) - f)


def apply_operator(prob: PDEProblem, u: ScalarField, eps: float = 0.0) -> ScalarField:
    """-div^s(coeff grad^s u) restricted to interior points (exterior zeroed).

    The caller is responsible for u respecting the exterior data; use
    :func:`enforce_exterior` for the projection.
    """
    kit = _RieszOps(prob.grid, prob.s)
    return ScalarField(prob.grid, _residual(kit, prob, kit.grad(u.values), 0.0, eps))


def enforce_exterior(prob: PDEProblem, u: ScalarField) -> ScalarField:
    g = prob.exterior_values()
    return ScalarField(prob.grid, np.where(prob.mask, u.values, g))


def _rhs_field(kit: _RieszOps, prob: PDEProblem) -> np.ndarray:
    """Interior field representing the right-hand-side functional."""
    if isinstance(prob.rhs, VectorField):
        # integral(f_vec . grad^s v) = -integral(div^s f_vec v) exactly
        comp = [c.values for c in prob.rhs.components]
        return prob.project(-kit.div(comp))
    return prob.project(prob.rhs.values)


def energy(prob: PDEProblem, u: ScalarField, eps: float = 0.0) -> float:
    """E(u) = (1/p) integral(coeff |grad^s u|^p) - rhs pairing."""
    kit = _RieszOps(prob.grid, prob.s)
    return _energy(kit, prob, u.values, eps)


def _energy(kit: _RieszOps, prob: PDEProblem, u: np.ndarray, eps: float, gr=None) -> float:
    """Regularized energy of u; gr, when given, is grad^s u."""
    if gr is None:
        gr = kit.grad(u)
    if prob.matrix is not None:
        bulk = 0.5 * np.sum(np.stack(gr) * _flux(prob, gr, eps))
    else:
        mag2 = sum(c * c for c in gr)
        w = prob.weight.values
        bulk = np.sum(w * (mag2 + eps * eps) ** (prob.p / 2.0)) / prob.p
    if isinstance(prob.rhs, VectorField):
        pair = sum(
            np.sum(c.values * gc) for c, gc in zip(prob.rhs.components, gr)
        )
    else:
        pair = np.sum(prob.rhs.values * np.where(prob.mask, u, 0.0))
    return float(kit.hn * (bulk - pair))


def weak_residual_norm(prob: PDEProblem, u: ScalarField) -> float:
    """Dual-norm surrogate of the interior weak residual, relative to the rhs."""
    kit = _RieszOps(prob.grid, prob.s)
    f = _rhs_field(kit, prob)
    r = _residual(kit, prob, kit.grad(u.values), f)
    fn = kit.dual_norm(f)
    return kit.dual_norm(r) / (fn if fn > 0 else 1.0)


def _make_precond(kit: _RieszOps, prob: PDEProblem, coeff: np.ndarray | None = None):
    """Interior-projected inverse of median(a) (-Lap)^s + id, optionally
    composed with a Jacobi rescaling for strongly degenerate coefficients."""
    if coeff is None:
        if prob.matrix is not None:
            n = prob.grid.spec.n
            coeff = np.einsum("ii...->...", prob.matrix) / n
        else:
            coeff = prob.weight.values
    inside = coeff[prob.mask]
    med = float(np.median(inside))
    inv = 1.0 / (med * kit.lap_sym + 1.0)
    ratio = float(np.max(inside) / np.min(inside)) if inside.size else 1.0
    if ratio > 1e4:
        d = np.sqrt(coeff / med)

        def prec(r):
            return prob.project(kit.multiply(inv, r / d) / d)

        return prec, "spectral+jacobi"

    def prec(r):
        return prob.project(kit.multiply(inv, r))

    return prec, "spectral"


def _cg(apply_K, prec, b, x0, tol, max_iter):
    """Preconditioned conjugate gradients; returns (x, residual history, ok).

    Convergence requires the relative residual to meet tol both in the
    preconditioned norm and in the plain L2 norm; the latter keeps the
    stopping rule honest on the low modes the preconditioner damps.
    """
    x = x0.copy()
    r = b - apply_K(x)
    z = prec(r)
    d = z.copy()
    rz = float(np.sum(r * z))
    if rz == 0.0:
        return x, [0.0], True
    rz0 = max(rz, 1e-300)
    bb = max(float(np.sum(b * b)), 1e-300)
    history = [1.0]
    for _ in range(max_iter):
        Ad = apply_K(d)
        dAd = float(np.sum(d * Ad))
        if dAd <= 0.0:
            raise EllipticityError(
                "conjugate gradients hit a non-positive curvature direction"
            )
        alpha = rz / dAd
        x += alpha * d
        r -= alpha * Ad
        z = prec(r)
        rznew = float(np.sum(r * z))
        history.append(np.sqrt(max(rznew, 0.0) / rz0))
        if rznew <= tol * tol * rz0 and float(np.sum(r * r)) <= tol * tol * bb:
            return x, history, True
        d = z + (rznew / rz) * d
        rz = rznew
    return x, history, False


def solve_linear(
    prob: PDEProblem,
    tol: float = 1e-10,
    max_iter: int = 2000,
    x0: ScalarField | None = None,
) -> SolveReport:
    """p=2 solve by preconditioned conjugate gradients on the lifted unknown.

    Solves for u_tilde = u - G (G = exterior data outside, zero inside), an
    interior-supported field, then reports u = u_tilde + G.  The tolerance is
    relative in the preconditioned residual norm.
    """
    if prob.p != 2.0:
        raise ValueError("solve_linear requires p = 2")
    kit = _RieszOps(prob.grid, prob.s)
    G = prob.exterior_values()

    def apply_K(v):
        return _residual(kit, prob, kit.grad(v), 0.0)

    f = _rhs_field(kit, prob)
    b = f - apply_K(G) if prob.exterior is not None else f
    b = prob.project(b)
    start = prob.project(x0.values) if x0 is not None else np.zeros_like(b)
    prec, ptag = _make_precond(kit, prob)
    x, history, ok = _cg(apply_K, prec, b, start, tol, max_iter)
    u = prob.project(x) + G
    uf = ScalarField(prob.grid, u)
    energies = [_energy(kit, prob, u, 0.0)]
    return SolveReport(
        solution=uf,
        iterations=len(history) - 1,
        residuals=[float(r) for r in history],
        energies=energies,
        converged=ok,
        method="pcg",
        preconditioner=ptag,
        details={"tol": tol},
    )


def _solve_frozen(kit: _RieszOps, prob: PDEProblem, a, b, x0, tol, max_iter):
    """CG on -div^s(a grad^s x) = b over interior fields for a frozen
    pointwise coefficient a; returns (x, converged)."""

    def apply_K(v):
        return prob.project(kit.elliptic(a, v))

    prec, _ = _make_precond(kit, prob, a)
    x, _, ok = _cg(apply_K, prec, b, x0, tol, max_iter)
    return prob.project(x), ok


#: Armijo sufficient-decrease fraction of the line search
_ARMIJO = 1e-4
#: descent's cap on Barzilai-Borwein iterations per eps stage
_MAX_INNER = 250


def _line_search(kit, prob, u, gu, d, gd, eps, e0, slope, t, t_min):
    """Armijo backtracking by halving on the regularized energy from u along d.

    gu and gd are grad^s u and grad^s d, and slope is the energy's
    directional derivative along d.  grad^s is linear, so a trial's gradient
    is gu + t gd and a trial costs no transform.  Returns (t, u + t d, its
    gradient, its energy, ok).  When t falls to t_min without sufficient
    decrease, the tiny step is still taken and ok is False.
    """

    def trial(t):
        ut = u + t * d
        gt = [a + t * b for a, b in zip(gu, gd)]
        return ut, gt, _energy(kit, prob, ut, eps, gt)

    while t > t_min:
        ut, gt, et = trial(t)
        if et <= e0 + _ARMIJO * t * slope:
            return t, ut, gt, et, True
        t *= 0.5
    return (t, *trial(t), False)


def _kacanov_step(kit, prob, f, fn, u, gu, eps, energies, counts):
    """Solve the problem with its coefficient frozen at u, then damp the
    step by the line search."""
    a = _coeff(prob.weight.values, prob.p, gu, eps)
    uhat, ok = _solve_frozen(kit, prob, a, f, u, 1e-12, 2000)
    # an inner solve that misses its tolerance still supplies the step
    counts["inner_unconverged"] += not ok
    d = prob.project(uhat - u)
    gd = kit.grad(d)
    e0 = _energy(kit, prob, u, eps, gu)
    slope = kit.hn * (
        sum(np.sum(a * c * cd) for c, cd in zip(gu, gd)) - np.sum(f * d)
    )
    _, u, gu, e, ok = _line_search(kit, prob, u, gu, d, gd, eps, e0, slope, 1.0, 1e-10)
    energies.append(e)
    counts["line_search_failures"] += not ok
    return u, gu


def _descent_stage(kit, prob, f, fn, u, gu, eps, energies, counts):
    """Barzilai-Borwein steps at fixed eps, preconditioned by the spectral
    surrogate of the coefficient frozen at the stage's start."""
    prec, _ = _make_precond(kit, prob, _coeff(prob.weight.values, prob.p, gu, eps))
    e = _energy(kit, prob, u, eps, gu)
    uprev = gprev = gn0 = None
    t = 1.0
    for _ in range(_MAX_INNER):
        gvec = _residual(kit, prob, gu, f, eps)
        pg = prec(gvec)
        gdot = float(np.sum(gvec * pg))
        gn = np.sqrt(max(gdot, 0.0))
        if gn0 is None:
            gn0 = gn
        if gn < 1e-3 * gn0 or gn < 1e-13 * fn:
            break
        if uprev is not None:
            du = u - uprev
            den = float(np.sum((pg - gprev) * du))
            if den > 0:
                t = float(np.sum(du * du)) / den
        gd = [-c for c in kit.grad(pg)]
        uprev, gprev = u, pg
        _, u, gu, e, ok = _line_search(
            kit, prob, u, gu, -pg, gd, eps, e, -kit.hn * gdot, min(t, 1e8), 1e-18
        )
        energies.append(e)
        counts["line_search_failures"] += not ok
    return u, gu


def solve_plaplace(
    prob: PDEProblem,
    method: str = "kacanov",
    tol: float | None = None,
    max_outer: int = 200,
    x0: ScalarField | None = None,
) -> SolveReport:
    """Iterative solve of the weighted fractional p-Laplace problem (g = 0).

    kacanov: freeze a_k = w (|grad^s u_k|^2 + eps_k^2)^((p-2)/2), solve the
    linear problem, damp by an Armijo line search on the regularized energy
    (default tol 1e-8).  descent: Barzilai-Borwein steps on the regularized
    energy with the same line search, preconditioned per stage by the frozen
    coefficient's spectral surrogate, with eps following a homotopy from a
    large value (default tol 1e-6; a first-order method cannot certify much
    smaller dual residuals at the regularization floor).  Both run one outer
    loop and declare convergence on the unregularized weak residual
    (relative dual norm).
    """
    if prob.p < 1.1:
        raise ValueError(
            "p below 1.1 leaves the regularized coefficient too degenerate; "
            "refusing (documented limitation)"
        )
    if prob.exterior is not None:
        raise ValueError("solve_plaplace requires homogeneous exterior data")
    if prob.matrix is not None:
        raise ValueError("matrix coefficients are linear-path only (p = 2)")
    if method not in ("kacanov", "descent"):
        raise ValueError(f"unknown method {method!r}")
    kacanov = method == "kacanov"
    if tol is None:
        tol = 1e-8 if kacanov else 1e-6
    kit = _RieszOps(prob.grid, prob.s)
    f = _rhs_field(kit, prob)
    fn = kit.dual_norm(f)
    if fn == 0.0:
        # zero data: the unique minimizer is zero (energy vanishes there)
        zero = ScalarField(prob.grid, np.zeros(prob.grid.spec.shape))
        return SolveReport(
            solution=zero,
            iterations=0,
            residuals=[0.0],
            energies=[0.0],
            converged=True,
            method=method,
            details={"tol": tol, "note": "zero right-hand side"},
        )

    if x0 is not None:
        u = prob.project(x0.values)
    else:
        u, _ = _solve_frozen(
            kit, prob, prob.weight.values, f, np.zeros_like(f), 1e-12, 2000
        )
    gu = kit.grad(u)
    gmag = np.sqrt(sum(c * c for c in gu))
    med = float(np.median(gmag[prob.mask]))
    scale = float(np.max(gmag)) or 1.0
    eps_min = max(1e-8 * med, 1e-15 * scale)
    # kacanov tolerates the target regularization at once; descent follows a
    # homotopy from a large eps so early stages stay well conditioned
    step = _kacanov_step if kacanov else _descent_stage
    eps = eps_min if kacanov else max(1e-2 * scale, eps_min)
    # every step appends one energy; line-search and inner-solve failures
    # are counted into the report
    energies = [_energy(kit, prob, u, eps, gu)]
    counts = {"line_search_failures": 0}
    if kacanov:
        counts["inner_unconverged"] = 0
    residuals = []
    converged = False
    f2 = max(float(np.sqrt(np.sum(f * f))), 1e-300)

    for _ in range(max_outer):
        u, gu = step(kit, prob, f, fn, u, gu, eps, energies, counts)
        r = _residual(kit, prob, gu, f)
        rn = kit.dual_norm(r) / fn
        if kacanov:
            # kacanov can afford a certificate that also bounds the plain L2
            # residual (the dual surrogate damps exactly the modes a
            # Newton-like method nails); descent certifies the dual surrogate
            rn = max(rn, float(np.sqrt(np.sum(r * r))) / f2)
        residuals.append(rn)
        if rn < tol:
            converged = True
            break
        if not kacanov and len(residuals) > 3 and eps <= eps_min * 1.001:
            # descent at the regularization floor with no progress left
            if abs(residuals[-1] - residuals[-2]) < 1e-3 * residuals[-1]:
                break
        eps = max(eps * 0.5, 1e-15 * scale) if kacanov else max(eps * 0.25, eps_min)

    return SolveReport(
        solution=ScalarField(prob.grid, prob.project(u)),
        iterations=len(energies) - 1,
        residuals=[float(r) for r in residuals],
        energies=[float(e) for e in energies],
        converged=converged,
        method=method,
        details={"tol": tol, "final_eps": eps, **counts},
    )


def monotonicity_gap(
    prob: PDEProblem, u: ScalarField, v: ScalarField
) -> tuple[float, float]:
    """(lhs, lower_bound) for the monotone-operator inequality.

    lhs = <Tu - Tv, u - v>; the bound is 2^(2-p) ||grad^s(u-v)||_{L^p_w}^p for
    p >= 2 and (p-1) ||grad^s(u-v)||^2 (||grad^s u|| + ||grad^s v||)^(p-2)
    for 1 < p < 2 (all norms weighted L^p).
    """
    kit = _RieszOps(prob.grid, prob.s)
    gu = kit.grad(prob.project(u.values))
    gv = kit.grad(prob.project(v.values))
    fu = _flux(prob, gu, 0.0)
    fv = _flux(prob, gv, 0.0)
    lhs = kit.hn * float(
        sum(np.sum((a - b) * (x - y)) for a, b, x, y in zip(fu, fv, gu, gv))
    )
    w = prob.weight.values
    p = prob.p
    diff_p = (kit.hn * float(np.sum(sum((x - y) ** 2 for x, y in zip(gu, gv)) ** (p / 2.0) * w))) ** (1.0 / p)
    if p >= 2.0:
        lower = 2.0 ** (2.0 - p) * diff_p**p
    else:
        nu = (kit.hn * float(np.sum(sum(x * x for x in gu) ** (p / 2.0) * w))) ** (1.0 / p)
        nv = (kit.hn * float(np.sum(sum(y * y for y in gv) ** (p / 2.0) * w))) ** (1.0 / p)
        total = nu + nv
        lower = 0.0 if total == 0.0 else (p - 1.0) * diff_p**2 * total ** (p - 2.0)
    return lhs, lower


def manufacture(
    grid: Grid,
    mask: np.ndarray,
    s: float,
    p: float,
    weight: Weight,
    u_star: ScalarField,
    matrix: np.ndarray | None = None,
    c1: float | None = None,
    c2: float | None = None,
) -> PDEProblem:
    """Problem whose exact discrete solution is u_star (g = 0): f := T(u_star).

    u_star must be supported strictly inside the mask.
    """
    outside = ~np.asarray(mask, dtype=bool)
    if np.any(u_star.values[outside] != 0.0):
        raise ValueError("u_star must vanish outside the interior mask")
    probe = PDEProblem(
        grid=grid,
        mask=mask,
        s=s,
        p=p,
        weight=weight,
        rhs=ScalarField(grid, np.zeros(grid.spec.shape)),
        matrix=matrix,
        c1=c1,
        c2=c2,
    )
    kit = _RieszOps(grid, s)
    gr = kit.grad(u_star.values)
    fl = _flux(probe, gr, 0.0)
    f = ScalarField(grid, -kit.div(fl))
    return PDEProblem(
        grid=grid,
        mask=mask,
        s=s,
        p=p,
        weight=weight,
        rhs=f,
        matrix=matrix,
        c1=c1,
        c2=c2,
    )
