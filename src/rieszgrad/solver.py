"""Discrete weak solvers for the degenerate fractional p-Laplace problem.

The unknown is a grid field equal to the exterior data g outside the interior
mask Omega; the Riesz gradient is always evaluated globally on the full field
so nonlocality is honored, and residuals are restricted to interior points
(the discrete counterpart of testing against functions vanishing outside
Omega).  The discrete integration-by-parts identity is exact for the lattice
symbols, so the interior-restricted p=2 operator is symmetric positive
definite and conjugate gradients apply verbatim.

Residuals are measured in the dual-norm surrogate ||(-Lap)^(-s/2) r||_L2 over
interior modes, relative to the same norm of the right-hand side, and the
energy pairs u with the interior field f the residual subtracts.  Every
helper takes its operators from the problem, which builds them once.

The p != 2 coefficient |grad^s u|^(p-2) is regularized as
(|grad^s u|^2 + eps^2)^((p-2)/2) with eps shrinking geometrically across
outer iterations; convergence is always declared on the unregularized
residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .grid import Grid, ScalarField, VectorField
from .fracops import _RieszOps, _sum
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
    "default_method",
    "monotonicity_gap",
    "manufacture",
]


#: the name every report and steps row gives the one preconditioner
_PRECONDITIONER = "spectral+diagonal"


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
        # sampled degenerate-ellipticity check, 16 seeded random directions
        rng = np.random.default_rng(0)
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

    @cached_property
    def kit(self) -> _RieszOps:
        """grad^s, div^s and the spectral surrogates of (grid, s), built on
        first use and kept."""
        return _RieszOps(self.grid, self.s)


@dataclass
class SolveReport:
    solution: ScalarField
    iterations: int
    residuals: list[float]
    energies: list[float]
    converged: bool
    method: str
    preconditioner: str = _PRECONDITIONER
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
        rows = zip_longest(self.residuals, self.energies, fillvalue="")
        return [(k, res, en) for k, (res, en) in enumerate(rows)]


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


def _residual(prob: PDEProblem, gr, f, eps: float = 0.0) -> np.ndarray:
    """Interior residual -div^s(flux) - f of the field whose gradient is gr."""
    return prob.project(-prob.kit.div(_flux(prob, gr, eps)) - f)


def apply_operator(prob: PDEProblem, u: ScalarField, eps: float = 0.0) -> ScalarField:
    """-div^s(coeff grad^s u) restricted to interior points (exterior zeroed).

    The caller is responsible for u respecting the exterior data.
    """
    return ScalarField(prob.grid, _residual(prob, prob.kit.grad(u.values), 0.0, eps))


def _rhs_field(prob: PDEProblem) -> np.ndarray:
    """Interior field representing the right-hand-side functional."""
    if isinstance(prob.rhs, VectorField):
        # integral(f_vec . grad^s v) = -integral(div^s f_vec v) exactly
        comp = [c.values for c in prob.rhs.components]
        return prob.project(-prob.kit.div(comp))
    return prob.project(prob.rhs.values)


def energy(prob: PDEProblem, u: ScalarField, eps: float = 0.0) -> float:
    """E(u) = (1/p) integral(coeff |grad^s u|^p) - integral(f u), with f the
    interior field of the rhs (its functional for admissible u)."""
    return _energy(prob, _rhs_field(prob), u.values, eps)


def _energy(prob: PDEProblem, f: np.ndarray, u: np.ndarray, eps: float, gr=None) -> float:
    """Regularized energy of u against the interior rhs f; gr is grad^s u."""
    if gr is None:
        gr = prob.kit.grad(u)
    if prob.matrix is not None:
        bulk = 0.5 * _sum(np.stack(gr) * _flux(prob, gr, eps))
    else:
        mag2 = sum(c * c for c in gr)
        w = prob.weight.values
        bulk = _sum(w * (mag2 + eps * eps) ** (prob.p / 2.0)) / prob.p
    return float(prob.kit.hn * (bulk - _sum(f * u)))


def weak_residual_norm(prob: PDEProblem, u: ScalarField) -> float:
    """Dual-norm surrogate of the interior weak residual, relative to the rhs."""
    kit = prob.kit
    f = _rhs_field(prob)
    r = _residual(prob, kit.grad(u.values), f)
    fn = kit.dual_norm(f)
    return kit.dual_norm(r) / (fn if fn > 0 else 1.0)


def _make_precond(prob: PDEProblem, coeff: np.ndarray | None = None):
    """Preconditioner of -div^s(a grad^s .) on interior fields for the
    pointwise coefficient a = coeff (by default the weight, or trace(A)/n
    of a matrix coefficient), with diagonal scale D:

        M^-1 r = P D^-1 F^-1[F(D^-1 r) / (med (|2 pi xi|^(2s) + (2 pi/L)^(2s)))]
        D^2 = (a * kappa) / (med sum(kappa))                  for p > 2,
        D^2 = min(a / med, (a * kappa) / (med sum(kappa)))    for p <= 2,

    with med the median of a on Omega, P the projection onto admissible
    fields and a * kappa the exact diagonal of the operator
    (_RieszOps.diag_sym): a spectrally equivalent operator in the sense of
    Faber, Manteuffel & Parter (Adv. Appl. Math. 11, 1990) and Axelsson &
    Karatson (Numer. Algorithms 50, 2009).  D = 1 for a constant a, and
    scaling a by c scales M^-1 by 1/c, so CG counts do not depend on the
    size of the weight; the shift (2 pi/L)^(2s), the smallest nonzero value
    of (-Lap)^s, keeps the zero mode invertible on the same scale.

    Why the minimum: kappa vanishes at 0 (each kernel g_j is odd), so the
    diagonal at x averages a over the neighbours of x and leaves a(x) out.
    Only a p < 2 coefficient spikes at the zeros of grad^s u.  Such a
    spike at one node enters the diagonals of its neighbours, so scaling
    by the diagonal alone lets it stiffen them all, while scaling by a
    alone lets it stiffen its own node; the minimum takes the softer scale
    at every point.  On the p < 2 solves either scale alone took 1.6 to 21
    times the CG iterations of the minimum.  A p > 2 coefficient dips to
    zero there instead, and the minimum would copy each dip into D; the
    diagonal averages it out.  On the three p = 3 benchmark solves that
    took 0.41 to 0.49 times the CG iterations or descent steps of the
    minimum, and it turned p = 4 and 6 runs that overflowed or stalled
    into converged ones.  At p = 2 a is the weight and the two forms did
    the same work.  The diagonal costs two transforms per call; kappa's
    spectrum is built once per kit.
    """
    if coeff is None:
        if prob.matrix is not None:
            n = prob.grid.spec.n
            coeff = np.einsum("ii...->...", prob.matrix) / n
        else:
            coeff = prob.weight.values
    kit = prob.kit
    med = float(np.median(coeff[prob.mask]))
    diag = kit.multiply(kit.diag_sym, coeff) / kit.diag_sum
    d = np.sqrt((diag if prob.p > 2.0 else np.minimum(coeff, diag)) / med)
    inv = 1.0 / (med * kit.lap_sym + med * kit.lap_shift)

    def prec(r):
        return prob.project(kit.multiply(inv, r / d) / d)

    return prec


def _cg(apply_K, prec, b, x0, tol, max_iter):
    """Preconditioned conjugate gradients; returns (x, residual history, ok).

    Convergence requires the residual to meet tol relative to the
    right-hand side b both in the preconditioned norm, sqrt(r.M^-1 r) against
    sqrt(b.M^-1 b), and in the plain L2 norm; the latter keeps the stopping
    rule honest on the low modes the preconditioner damps.  Measured against
    b rather than against the start's own residual, a warm start near the
    solution stops as soon as a cold start would (Barrett et al., Templates
    for the Solution of Linear Systems, SIAM 1994, sec. 4.2); from x0 = 0
    the two rules agree.  The history is relative to b as well.
    """
    bb = float(_sum(b * b))
    if bb == 0.0:
        # K is positive definite on admissible fields: K x = 0 only for x = 0
        return np.zeros_like(b), [0.0], True
    x = x0.copy()
    r = b - apply_K(x)
    z = prec(r)
    d = z.copy()
    rz = float(_sum(r * z))
    if rz == 0.0:
        return x, [0.0], True
    # from a zero start r is b, so r.M^-1 r already is b.M^-1 b
    rz0 = max(float(_sum(b * prec(b))) if x.any() else rz, 1e-300)
    history = [float(np.sqrt(rz / rz0))]
    for _ in range(max_iter):
        Ad = apply_K(d)
        dAd = float(_sum(d * Ad))
        if dAd <= 0.0:
            raise EllipticityError(
                "conjugate gradients hit a non-positive curvature direction"
            )
        alpha = rz / dAd
        x += alpha * d
        r -= alpha * Ad
        z = prec(r)
        rznew = float(_sum(r * z))
        history.append(np.sqrt(max(rznew, 0.0) / rz0))
        if rznew <= tol * tol * rz0 and float(_sum(r * r)) <= tol * tol * bb:
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
    relative to the right-hand side, in the preconditioned residual norm and
    in L2, also when CG starts from x0.
    """
    if prob.p != 2.0:
        raise ValueError("solve_linear requires p = 2")
    G = prob.exterior_values()

    def apply_K(v):
        return _residual(prob, prob.kit.grad(v), 0.0)

    f = _rhs_field(prob)
    b = f - apply_K(G) if prob.exterior is not None else f
    b = prob.project(b)
    start = prob.project(x0.values) if x0 is not None else np.zeros_like(b)
    prec = _make_precond(prob)
    x, history, ok = _cg(apply_K, prec, b, start, tol, max_iter)
    u = prob.project(x) + G
    uf = ScalarField(prob.grid, u)
    energies = [_energy(prob, f, u, 0.0)]
    return SolveReport(
        solution=uf,
        iterations=len(history) - 1,
        residuals=[float(r) for r in history],
        energies=energies,
        converged=ok,
        method="pcg",
        details={"tol": tol},
    )


def _solve_frozen(prob: PDEProblem, a, b, x0, tol):
    """CG on -div^s(a grad^s x) = b over interior fields for a frozen
    pointwise coefficient a; returns x and the inner solve (CG iterations,
    converged)."""

    def apply_K(v):
        return prob.project(prob.kit.elliptic(a, v))

    prec = _make_precond(prob, a)
    x, history, ok = _cg(apply_K, prec, b, x0, tol, _MAX_CG)
    return prob.project(x), (len(history) - 1, ok)


#: Armijo sufficient-decrease fraction of the halving line search, which
#: starts at t = 1 and takes the step it reaches at _T_MIN without decrease
_ARMIJO = 1e-4
_T_MIN = 1e-10
#: Kacanov's inner CG stops at _ETA times the last certificate, clipped to
#: [_INNER_TOL, 0.1]: the residual-tied forcing of inexact Newton methods
#: (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).  Without a
#: certificate it stops at _INNER_TOL.
_ETA = 0.1
_INNER_TOL = 1e-12
#: descent's cap on nonlinear CG steps per eps stage
_MAX_INNER = 250
#: cap on CG iterations per inner solve
_MAX_CG = 2000
#: a run is flagged stalled when the best certificate of its last
#: _STALL_WINDOW outer steps is not below (1 - _STALL_GAIN) times the best
#: one before them
_STALL_WINDOW = 10
_STALL_GAIN = 1e-3
#: Kacanov's line minimization: the largest trial step, the fraction of
#: |phi'(0)| that ends the root search, and its cap on slope evaluations
_T_MAX = 64.0
_SLOPE_STOP = 1e-2
_MAX_SLOPES = 30
#: approximate Wolfe test: energy slack relative to |phi(0)| and the
#: curvature fraction
_WOLFE_EPS = 1e-10
_WOLFE_SIGMA = 0.9


def _line_search(prob, f, u, gu, d, gd, eps, e0, slope):
    """Armijo backtracking by halving from t = 1 on the regularized energy
    from u along d.

    gu and gd are grad^s u and grad^s d, f is the interior rhs and slope is
    the energy's directional derivative along d.  grad^s is linear, so a
    trial's gradient is gu + t gd and a trial costs no transform.  Returns
    (t, u + t d, its gradient, its energy, ok).  When t falls to _T_MIN
    without sufficient decrease, the tiny step is still taken and ok is False;
    a non-finite energy fails the Armijo test, and if the floor's energy is
    not finite either, no step is taken: t = 0, u, gu and e0 come back.
    """

    def trial(t):
        ut = u + t * d
        gt = [a + t * b for a, b in zip(gu, gd)]
        return ut, gt, _energy(prob, f, ut, eps, gt)

    t = 1.0
    while t > _T_MIN:
        ut, gt, et = trial(t)
        if et <= e0 + _ARMIJO * t * slope:
            return t, ut, gt, et, True
        t *= 0.5
    ut, gt, et = trial(t)
    if not np.isfinite(et):
        return 0.0, u, gu, e0, False
    return t, ut, gt, et, False


def _line_minimum(prob, f, u, gu, d, gd, eps, e0, slope, fd):
    """Minimize the regularized energy phi(t) = E_eps(u + t d) along d.

    phi is convex for p > 1 and grad^s is linear, so a trial's gradient is
    gu + t gd and its slope phi'(t) = h^n (sum a(g_t) g_t . gd - fd) costs no
    transform; slope is phi'(0) < 0 and fd is f . d.  The root of phi' is
    bracketed from [0, 1] by doubling the upper end while phi' < 0 (up to
    _T_MAX), then found by regula falsi, bisecting when the secant lands in
    the outer tenth of the bracket, until |phi'(t)| <= _SLOPE_STOP |phi'(0)|
    or _MAX_SLOPES slopes.  A non-finite phi'(t) (an overflow along a huge
    d) counts as past the minimum and is bisected, never interpolated.  t is
    accepted under Armijo or the approximate Wolfe test of Hager & Zhang
    (SIAM J. Optim. 16, 2005), which survives energy differences at
    round-off and fails a non-finite phi(t); otherwise this falls back to
    the halving search from t = 1.  Returns what _line_search returns.
    """
    w, p, hn = prob.weight.values, prob.p, prob.kit.hn

    def dphi(t):
        gt = [c + t * cd for c, cd in zip(gu, gd)]
        at = _coeff(w, p, gt, eps)
        return gt, hn * (sum(_sum(at * c * cd) for c, cd in zip(gt, gd)) - fd)

    if slope < 0.0:
        lo, slo, hi, shi = 0.0, slope, None, None
        t = 1.0
        gt, st = dphi(t)
        for _ in range(_MAX_SLOPES - 1):
            if abs(st) <= _SLOPE_STOP * abs(slope):
                break
            if -np.inf < st < 0.0:
                lo, slo = t, st
            else:
                hi, shi = t, st
            if hi is None:
                if t >= _T_MAX:
                    break
                t *= 2.0
            elif np.isfinite(shi):
                t = lo - slo * (hi - lo) / (shi - slo)
                edge = 0.1 * (hi - lo)
                if not lo + edge <= t <= hi - edge:
                    t = 0.5 * (lo + hi)
            else:
                t = 0.5 * (lo + hi)
            gt, st = dphi(t)
        ut = u + t * d
        et = _energy(prob, f, ut, eps, gt)
        armijo = et <= e0 + _ARMIJO * t * slope
        wolfe = et <= e0 + _WOLFE_EPS * abs(e0) and (
            -_WOLFE_SIGMA * abs(slope) <= st <= (1.0 - 2.0 * _ARMIJO) * abs(slope)
        )
        if armijo or wolfe:
            return t, ut, gt, et, True
    return _line_search(prob, f, u, gu, d, gd, eps, e0, slope)


def _damped_update(st, a, d, inner, minimize):
    """Count the inner solve that gave d (inner: its CG iterations, whether
    it converged and the tolerance its CG was given, which make its row of
    details["steps"]), then step from u along d on the regularized energy,
    whose slope along d is h^n (sum a grad^s u . grad^s d - f . d) for
    a = _coeff at u: to the energy's minimum along d when minimize is set,
    else by the halving search from t = 1.  Records the energy and the step
    length."""
    its, inner_ok, tol = inner
    st.counts["inner_iterations"] += its
    st.counts["inner_unconverged"] += not inner_ok
    st.counts["steps"].append({"inner_iterations": its,
                               "inner_converged": bool(inner_ok),
                               "inner_tol": float(tol),
                               "preconditioner": _PRECONDITIONER,
                               "eps": float(st.eps)})
    gd = st.prob.kit.grad(d)
    e0 = _energy(st.prob, st.f, st.u, st.eps, st.gu)
    fd = _sum(st.f * d)
    slope = st.prob.kit.hn * (sum(_sum(a * c * cd) for c, cd in zip(st.gu, gd)) - fd)
    args = (st.prob, st.f, st.u, st.gu, d, gd, st.eps, e0, slope)
    if minimize:
        t, st.u, st.gu, e, ok = _line_minimum(*args, fd)
    else:
        t, st.u, st.gu, e, ok = _line_search(*args)
    st.energies.append(e)
    st.counts["line_search_failures"] += not ok
    st.counts["step_lengths"].append(float(t))


def _kacanov_step(st):
    """Solve the problem with its coefficient frozen at u, then move to the
    regularized energy's minimum along the step.  The energy's Hessian lies
    between p - 1 and 1 times the frozen operator (either way round), so the
    full step only contracts the error by about |2 - p|; at p = 2 the
    minimum is t = 1.  The frozen solve starts from u and stops at
    _ETA times the last certificate, clipped to [1e-12, 0.1]; with no
    certificate yet (a solve's first step, and every step of the Poincare
    loop, which records none) it stops at 1e-12.  A truncated CG from u
    still lowers the frozen quadratic energy, whose gradient at u is the
    regularized energy's, so the step stays a descent direction."""
    a = _coeff(st.prob.weight.values, st.prob.p, st.gu, st.eps)
    tol = (max(_INNER_TOL, min(0.1, _ETA * st.residuals[-1])) if st.residuals
           else _INNER_TOL)
    uhat, inner = _solve_frozen(st.prob, a, st.f, st.u, tol)
    # an inner solve that misses its tolerance still supplies the step
    _damped_update(st, a, st.prob.project(uhat - st.u), (*inner, tol), True)


def _newton_step(st):
    """Solve H d = f - T_eps(u) with the regularized energy's Hessian
    H v = -div^s(a (grad^s v + (p-2) (g . grad^s v)/m g)), g = grad^s u and
    m = |g|^2 + eps^2, from zero to the relative forcing tolerance
    min(0.1, max(r, 0.5 tol / r)) with r the last certificate (0.1 on the
    first step, which has none), then damp the step by the line search.
    The 0.5 tol / r floor is Kelley's safeguard against oversolving
    (Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
    eq. 6.20): a step that cuts r by its forcing already meets tol.  The
    frozen Kacanov coefficient (the Hessian without its rank-one term)
    gives the solve's preconditioner, _make_precond."""
    prob, gu, kit = st.prob, st.gu, st.prob.kit
    a = _coeff(prob.weight.values, prob.p, gu, st.eps)
    m = sum(c * c for c in gu) + st.eps * st.eps
    rank1 = (prob.p - 2.0) * a / np.where(m > 0.0, m, 1.0)

    def apply_H(v):
        gv = kit.grad(v)
        gdot = rank1 * sum(c * cv for c, cv in zip(gu, gv))
        return prob.project(-kit.div([a * cv + gdot * c for c, cv in zip(gu, gv)]))

    b = -_residual(prob, gu, st.f, st.eps)
    r = st.residuals[-1] if st.residuals else 1.0
    forcing = min(0.1, max(r, 0.5 * st.tol / r))
    prec = _make_precond(prob, a)
    d, history, ok = _cg(apply_H, prec, b, np.zeros_like(b), forcing, _MAX_CG)
    d = prob.project(d)
    # Newton's natural step is 1: minimizing along d costs more CG overall
    _damped_update(st, a, d, (len(history) - 1, ok, forcing), False)


def _descent_stage(st):
    """Preconditioned Polak-Ribiere+ nonlinear CG at fixed eps (Gilbert &
    Nocedal, SIAM J. Optim. 2, 1992), preconditioned by _make_precond of
    the coefficient frozen at the stage's start.

    With g the regularized residual at u and pg its preconditioned image,
    beta = max(0, g . (pg - pg_prev) / g_prev . pg_prev) and the direction is
    d = -pg + beta d_prev.  grad^s is linear, so grad^s d follows from
    grad^s pg and the last direction's gradient: one grad^s and one
    preconditioner application per step.  The slope along d is h^n g . d,
    exact by the discrete integration by parts; a direction that does not
    descend, or whose beta or slope is not finite, restarts at -pg.  Each
    step moves to the regularized energy's minimum along d (_line_minimum),
    as Kacanov's does.  The stage ends once sqrt(g . pg) falls by 1e-3 from
    its start or below 1e-13 times the dual norm of f, or after _MAX_INNER
    steps.  It also ends, naming the reason in the report's "breakdown",
    when g . pg is not finite or the line search finds no finite energy
    along d; u then keeps its last finite value."""
    prob, eps, kit = st.prob, st.eps, st.prob.kit
    prec = _make_precond(prob, _coeff(prob.weight.values, prob.p, st.gu, eps))
    e = _energy(prob, st.f, st.u, eps, st.gu)
    d = gd = pg_prev = gn0 = None
    for _ in range(_MAX_INNER):
        g = _residual(prob, st.gu, st.f, eps)
        pg = prec(g)
        gdot = float(_sum(g * pg))
        if not np.isfinite(gdot):
            st.counts["breakdown"] = "non-finite preconditioned residual"
            return
        gn = np.sqrt(max(gdot, 0.0))
        if gn0 is None:
            gn0 = gn
        if gn < 1e-3 * gn0 or gn < 1e-13 * st.fn:
            break
        gpg = kit.grad(pg)
        beta = 0.0 if d is None else max(0.0, float(_sum(g * (pg - pg_prev))) / gdot_prev)
        if 0.0 < beta < np.inf:
            d = beta * d - pg
            gd = [beta * c - cp for c, cp in zip(gd, gpg)]
            slope = kit.hn * float(_sum(g * d))
        if not 0.0 < beta < np.inf or not -np.inf < slope < 0.0:
            d, gd, slope = -pg, [-c for c in gpg], -kit.hn * gdot
        pg_prev, gdot_prev = pg, gdot
        t, st.u, st.gu, e, ok = _line_minimum(
            prob, st.f, st.u, st.gu, d, gd, eps, e, slope, _sum(st.f * d)
        )
        st.counts["line_search_failures"] += not ok
        if t == 0.0:
            st.counts["breakdown"] = "no finite energy along the search direction"
            return
        st.energies.append(e)


_STEPS = {"kacanov": _kacanov_step, "newton": _newton_step, "descent": _descent_stage}


def default_method(p: float) -> str:
    """The method a solve of exponent p uses when none is named: pcg for the
    linear problem at p = 2, newton above 2 and kacanov below."""
    if p == 2.0:
        return "pcg"
    return "newton" if p > 2.0 else "kacanov"


class _SolveState:
    """One nonlinear solve of prob by method to the certificate tol (default
    1e-8, and 1e-6 for descent): the interior right-hand side f with its
    norms fn (dual) and f2 (L2), the iterate u with gu = grad^s u, eps, the
    report's counts, the energies and the certificates.  The operators
    are prob.kit.  The Poincare loop swaps f between Kacanov steps, which
    read neither fn nor f2."""

    def __init__(self, prob: PDEProblem, method: str | None, tol: float | None = None):
        if prob.p < 1.1:
            raise ValueError(
                "p below 1.1 leaves the regularized coefficient too degenerate; "
                "refusing (documented limitation)"
            )
        if prob.exterior is not None:
            raise ValueError("solve_plaplace requires homogeneous exterior data")
        if prob.matrix is not None:
            raise ValueError("matrix coefficients are linear-path only (p = 2)")
        if method is None:
            # at p = 2 a Kacanov step is one frozen CG solve: this solver's pcg
            method = default_method(prob.p)
            if method == "pcg":
                method = "kacanov"
        if method not in _STEPS:
            raise ValueError(f"unknown method {method!r}")
        if method == "newton" and prob.p <= 2.0:
            raise ValueError(
                "newton needs p > 2: below 2 it stays unconverged after 200 "
                "steps on problems centred on a grid node, and at 2 the problem "
                "is linear; use kacanov or solve_linear"
            )
        self.prob, self.method = prob, method
        # kacanov and newton share the eps schedule and the strict certificate
        self.frozen = method != "descent"
        self.tol = tol if tol is not None else (1e-8 if self.frozen else 1e-6)
        self.counts = {"line_search_failures": 0}
        if self.frozen:
            self.counts.update(inner_iterations=0, inner_unconverged=0,
                               step_lengths=[], steps=[])
        self.f = _rhs_field(prob)
        self.fn = prob.kit.dual_norm(self.f)
        self.f2 = max(float(np.sqrt(_sum(self.f * self.f))), 1e-300)
        self.energies = []
        self.residuals = []

    def start(self, x0: np.ndarray | None) -> None:
        """Start at the projection of x0, or else at the frozen solve with
        coefficient w.  kacanov and newton take the target regularization
        eps_min at once; descent follows a homotopy from a large eps so early
        stages stay well conditioned."""
        prob = self.prob
        if x0 is not None:
            self.u = prob.project(x0)
        else:
            self.u, (its, _) = _solve_frozen(
                prob, prob.weight.values, self.f, np.zeros_like(self.f), _INNER_TOL
            )
            if self.frozen:
                self.counts["inner_iterations"] += its
        self.gu = prob.kit.grad(self.u)
        gmag = np.sqrt(sum(c * c for c in self.gu))
        med = float(np.median(gmag[prob.mask]))
        self.scale = float(np.max(gmag)) or 1.0
        self.eps_min = max(1e-8 * med, 1e-15 * self.scale)
        self.eps = self.eps_min if self.frozen else max(1e-2 * self.scale, self.eps_min)

    def step(self) -> None:
        _STEPS[self.method](self)

    def certificate(self) -> float:
        """Append and return the unregularized residual at u relative to f
        in the dual norm, which kacanov and newton also bound in L2 (the
        dual surrogate damps exactly the modes a Newton-like method nails)."""
        r = _residual(self.prob, self.gu, self.f)
        rn = self.prob.kit.dual_norm(r) / self.fn
        if self.frozen:
            rn = max(rn, float(np.sqrt(_sum(r * r))) / self.f2)
        self.residuals.append(rn)
        return rn


def solve_plaplace(
    prob: PDEProblem,
    method: str | None = None,
    tol: float | None = None,
    max_outer: int = 200,
    x0: ScalarField | None = None,
) -> SolveReport:
    """Iterative solve of the weighted fractional p-Laplace problem (g = 0).

    kacanov: freeze a_k = w (|grad^s u_k|^2 + eps_k^2)^((p-2)/2), solve the
    linear problem by CG from u_k, stopped at 0.1 times the last certificate
    (clipped to [1e-12, 0.1]; 1e-12 on the first step, which has none), and
    move to the regularized energy's minimum along the step, found from the
    energy's slope without a transform and accepted under Armijo or an
    approximate Wolfe test (default tol 1e-8).  newton
    (p > 2 only): inexact Newton on the regularized energy, each Hessian
    solve stopped at the forcing tolerance min(0.1, max(r, 0.5 tol / r)),
    r the last certificate (0.1 on the first step), and preconditioned by
    the frozen Kacanov coefficient, damped by an Armijo halving search from
    t = 1, with Kacanov's eps schedule and tolerance.  Below p = 2 newton
    stays unconverged after 200 steps on problems whose solution is centred
    on a grid node, and at p = 2 the problem is linear, so newton is refused
    there.  descent: preconditioned Polak-Ribiere+ nonlinear CG on the
    regularized energy, each step moved to the energy's minimum along its
    direction as Kacanov's is, preconditioned per stage by the frozen
    coefficient, with eps following a homotopy from a large value (default
    tol 1e-6; a first-order method cannot certify much smaller dual
    residuals at the regularization floor).  All run one outer
    loop and declare convergence on the unregularized weak residual
    (relative dual norm).  The default method is default_method(p), with
    kacanov at p = 2.

    details counts line-search floor hits (every method) and, for kacanov
    and newton, the CG iterations of all inner solves, the inner solves
    that missed their tolerance, the step length of every outer step
    ("step_lengths") and one row per outer step ("steps": its inner
    solve's CG iterations, convergence, tolerance ("inner_tol") and
    preconditioner, and its eps);
    the rows and the initial guess's solve add up to "inner_iterations".
    "stalled" flags a run whose best certificate of its last 10 outer
    steps improved on the best before them by less than a relative 1e-3.
    A descent run that meets a non-finite value it cannot restart past
    stops unconverged at its last finite iterate, with the reason in
    "breakdown" (absent from every other report).
    Every CG solve and descent stage uses the one preconditioner of
    _make_precond, which the report and each row name "spectral+diagonal".
    """
    st = _SolveState(prob, method, tol)
    tol = st.tol
    if st.fn == 0.0:
        # zero data: the unique minimizer is zero (energy vanishes there)
        zero = ScalarField(prob.grid, np.zeros(prob.grid.spec.shape))
        return SolveReport(
            solution=zero,
            iterations=0,
            residuals=[0.0],
            energies=[0.0],
            converged=True,
            method=st.method,
            details={"tol": tol, "note": "zero right-hand side", **st.counts,
                     "stalled": False},
        )

    st.start(None if x0 is None else x0.values)
    # every step appends one energy and counts its failures and inner
    # iterations into the report
    st.energies.append(_energy(prob, st.f, st.u, st.eps, st.gu))
    converged = False
    for _ in range(max_outer):
        st.step()
        if st.certificate() < tol:
            converged = True
            break
        if "breakdown" in st.counts:
            break
        if not st.frozen and len(st.residuals) > 3 and st.eps <= st.eps_min * 1.001:
            # descent at the regularization floor with no progress left
            if abs(st.residuals[-1] - st.residuals[-2]) < 1e-3 * st.residuals[-1]:
                break
        st.eps = (max(st.eps * 0.5, 1e-15 * st.scale) if st.frozen
                  else max(st.eps * 0.25, st.eps_min))

    stalled = len(st.residuals) > _STALL_WINDOW and min(
        st.residuals[-_STALL_WINDOW:]
    ) >= (1.0 - _STALL_GAIN) * min(st.residuals[:-_STALL_WINDOW])

    return SolveReport(
        solution=ScalarField(prob.grid, prob.project(st.u)),
        iterations=len(st.energies) - 1,
        residuals=[float(r) for r in st.residuals],
        energies=[float(e) for e in st.energies],
        converged=converged,
        method=st.method,
        details={"tol": tol, "final_eps": st.eps, **st.counts, "stalled": stalled},
    )


def monotonicity_gap(
    prob: PDEProblem, u: ScalarField, v: ScalarField
) -> tuple[float, float]:
    """(lhs, lower_bound) for the monotone-operator inequality.

    lhs = <Tu - Tv, u - v>; the bound is 2^(2-p) ||grad^s(u-v)||_{L^p_w}^p for
    p >= 2 and (p-1) ||grad^s(u-v)||^2 (||grad^s u|| + ||grad^s v||)^(p-2)
    for 1 < p < 2 (all norms weighted L^p).
    """
    kit = prob.kit
    gu = kit.grad(prob.project(u.values))
    gv = kit.grad(prob.project(v.values))
    fu = _flux(prob, gu, 0.0)
    fv = _flux(prob, gv, 0.0)
    lhs = kit.hn * float(
        sum(_sum((a - b) * (x - y)) for a, b, x, y in zip(fu, fv, gu, gv))
    )
    w = prob.weight.values
    p = prob.p
    diff_p = (kit.hn * float(_sum(sum((x - y) ** 2 for x, y in zip(gu, gv)) ** (p / 2.0) * w))) ** (1.0 / p)
    if p >= 2.0:
        lower = 2.0 ** (2.0 - p) * diff_p**p
    else:
        nu = (kit.hn * float(_sum(sum(x * x for x in gu) ** (p / 2.0) * w))) ** (1.0 / p)
        nv = (kit.hn * float(_sum(sum(y * y for y in gv) ** (p / 2.0) * w))) ** (1.0 / p)
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

    u_star must be supported strictly inside the mask.  The problem is
    validated and its kit built once: f is computed with the kit of the
    problem it is then set on.
    """
    outside = ~np.asarray(mask, dtype=bool)
    if np.any(u_star.values[outside] != 0.0):
        raise ValueError("u_star must vanish outside the interior mask")
    prob = PDEProblem(
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
    kit = prob.kit
    fl = _flux(prob, kit.grad(u_star.values), 0.0)
    object.__setattr__(prob, "rhs", ScalarField(grid, -kit.div(fl)))
    return prob
