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
residual.  The same solve state carries the nonlinear inverse power steps
of the first eigenpair behind the Poincare constant (LOBPCG at p = 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .grid import Grid, ScalarField, VectorField, lp_norm
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
        if self.p == np.inf:
            raise ValueError("p must be finite, got inf")
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
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
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


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is not finite and positive: CG squares it, so
    -1 stops where 1 would; no residual meets NaN and every one meets inf."""
    if not (0.0 < tol < np.inf):
        raise ValueError(f"tol must be finite and positive, got {tol}")


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
    _check_tol(tol)
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
#: (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).  The
#: Poincare loop's steps follow no certificate: they force by the
#: eigen-residual instead.
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


def _stalled(residuals: list[float]) -> bool:
    """Whether the best of the last _STALL_WINDOW certificates is not below
    (1 - _STALL_GAIN) times the best one before them."""
    r = residuals
    return len(r) > _STALL_WINDOW and (
        min(r[-_STALL_WINDOW:]) >= (1.0 - _STALL_GAIN) * min(r[:-_STALL_WINDOW]))


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


def _slope_root(dphi, slope):
    """The root of a slope along a line, from its value slope < 0 at t = 0.

    dphi(t) returns (what the caller keeps of the trial at t, the slope
    there).  The root is bracketed from [0, 1] by doubling the upper end
    while the slope is negative (up to _T_MAX), then found by regula falsi,
    bisecting when the secant lands in the outer tenth of the bracket, until
    the slope is at most _SLOPE_STOP |slope| in size or after _MAX_SLOPES
    slopes.  A non-finite slope (an overflow along a huge step) counts as
    past the root and is bisected, never interpolated.  Returns (t, what
    dphi kept at t, the slope at t)."""
    lo, slo, hi, shi = 0.0, slope, None, None
    t = 1.0
    kept, st = dphi(t)
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
        kept, st = dphi(t)
    return t, kept, st


def _line_minimum(prob, f, u, gu, d, gd, eps, e0, slope, fd):
    """Minimize the regularized energy phi(t) = E_eps(u + t d) along d.

    phi is convex for p > 1 and grad^s is linear, so a trial's gradient is
    gu + t gd and its slope phi'(t) = h^n (sum a(g_t) g_t . gd - fd) costs no
    transform; slope is phi'(0) < 0 and fd is f . d.  The root of phi' is
    found by _slope_root.  t is accepted under Armijo or the approximate
    Wolfe test of Hager & Zhang (SIAM J. Optim. 16, 2005), which survives
    energy differences at round-off and fails a non-finite phi(t); otherwise
    this falls back to the halving search from t = 1.  Returns what
    _line_search returns.
    """
    w, p, hn = prob.weight.values, prob.p, prob.kit.hn

    def dphi(t):
        gt = [c + t * cd for c, cd in zip(gu, gd)]
        at = _coeff(w, p, gt, eps)
        return gt, hn * (sum(_sum(at * c * cd) for c, cd in zip(gt, gd)) - fd)

    if slope < 0.0:
        t, gt, st = _slope_root(dphi, slope)
        ut = u + t * d
        et = _energy(prob, f, ut, eps, gt)
        armijo = et <= e0 + _ARMIJO * t * slope
        wolfe = et <= e0 + _WOLFE_EPS * abs(e0) and (
            -_WOLFE_SIGMA * abs(slope) <= st <= (1.0 - 2.0 * _ARMIJO) * abs(slope)
        )
        if armijo or wolfe:
            return t, ut, gt, et, True
    return _line_search(prob, f, u, gu, d, gd, eps, e0, slope)


def _count_inner(st, its, ok, tol):
    """Count an inner solve (its CG iterations, whether it converged and the
    tolerance its CG was given) into st.counts, with its row of
    details["steps"]."""
    st.counts["inner_iterations"] += its
    st.counts["inner_unconverged"] += not ok
    st.counts["steps"].append({"inner_iterations": its,
                               "inner_converged": bool(ok),
                               "inner_tol": float(tol),
                               "eps": float(st.eps)})


def _frozen_step(st, tol):
    """Freeze the coefficient a = _coeff at u, solve the frozen problem by
    CG from u to tol and count that solve; returns (a, d, grad^s d) with
    d = P(u_hat - u).  A truncated CG from u still lowers the frozen
    quadratic energy, whose gradient at u is the regularized energy's, so d
    stays a descent direction, and an inner solve that misses its tolerance
    still supplies it."""
    prob = st.prob
    a = _coeff(prob.weight.values, prob.p, st.gu, st.eps)
    uhat, (its, ok) = _solve_frozen(prob, a, st.f, st.u, tol)
    _count_inner(st, its, ok, tol)
    d = prob.project(uhat - st.u)
    return a, d, prob.kit.grad(d)


def _damped_update(st, a, d, gd, minimize):
    """Step from u along d, gd = grad^s d, on the regularized energy, whose
    slope along d is h^n (sum a grad^s u . gd - f . d) for a = _coeff at u:
    to the energy's minimum along d when minimize is set, else by the
    halving search from t = 1.  Records the energy and the step length."""
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


def _kacanov_tol(r: float) -> float:
    """Kacanov's inner tolerance after certificate r: _ETA r clipped to
    [_INNER_TOL, 0.1]."""
    return max(_INNER_TOL, min(0.1, _ETA * r))


def _kacanov_step(st):
    """Solve the problem with its coefficient frozen at u (_frozen_step),
    then move to the regularized energy's minimum along the step.  The
    energy's Hessian lies between p - 1 and 1 times the frozen operator
    (either way round), so the full step only contracts the error by about
    |2 - p|; at p = 2 the minimum is t = 1.  The frozen solve stops at
    _kacanov_tol of the last certificate, the start's on a solve's first
    step."""
    _damped_update(st, *_frozen_step(st, _kacanov_tol(st.residuals[-1])), True)


def _newton_step(st):
    """Solve H d = f - T_eps(u) with the regularized energy's Hessian
    H v = -div^s(a (grad^s v + (p-2) (g . grad^s v)/m g)), g = grad^s u and
    m = |g|^2 + eps^2, from zero to the relative forcing tolerance
    min(0.1, max(r, 0.5 tol / r)) with r the last certificate (the start's
    on the first step), then damp the step by the line search.
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
    r = st.residuals[-1]
    forcing = min(0.1, max(r, 0.5 * st.tol / r))
    prec = _make_precond(prob, a)
    d, history, ok = _cg(apply_H, prec, b, np.zeros_like(b), forcing, _MAX_CG)
    d = prob.project(d)
    _count_inner(st, len(history) - 1, ok, forcing)
    # Newton's natural step is 1: minimizing along d costs more CG overall
    _damped_update(st, a, d, kit.grad(d), False)


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
    are prob.kit.  _first_eigenpair swaps f between its steps, which read
    neither fn nor f2."""

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
        _check_tol(self.tol)
        self.counts = {"line_search_failures": 0}
        if self.frozen:
            self.counts.update(inner_iterations=0, inner_unconverged=0,
                               step_lengths=[], steps=[])
        self.f = _rhs_field(prob)
        self.fn = prob.kit.dual_norm(self.f)
        self.f2 = max(float(np.sqrt(_sum(self.f * self.f))), 1e-300)
        self.energies = []
        self.residuals = []
        # the number of certificates before which no floor estimate is due
        self.floor_due = 0

    def start(self, x0: np.ndarray | None) -> None:
        """Start at the projection of x0, or else at the frozen solve with
        coefficient w.  That solve's CG begins at u = 0, whose certificate is
        1 (the residual there is -f), and stops at Kacanov's forcing of that
        certificate, _kacanov_tol(1) = 0.1.  kacanov and newton take the
        target regularization eps_min at once; descent follows a homotopy
        from a large eps so early stages stay well conditioned."""
        prob = self.prob
        if x0 is not None:
            self.u = prob.project(x0)
        else:
            self.u, (its, _) = _solve_frozen(prob, prob.weight.values, self.f,
                                             np.zeros_like(self.f), _kacanov_tol(1.0))
            if self.frozen:
                self.counts["inner_iterations"] += its
        self.gu = prob.kit.grad(self.u)
        gmag = np.sqrt(sum(c * c for c in self.gu))
        med = float(np.median(gmag[prob.mask]))
        self.scale = float(np.max(gmag)) or 1.0
        self.eps_min = max(1e-8 * med, 1e-15 * self.scale)
        self.eps = self.eps_min if self.frozen else max(1e-2 * self.scale, self.eps_min)

    def _certify(self, gu) -> float:
        """The unregularized residual of the field whose gradient is gu,
        relative to f in the dual norm, which kacanov and newton also bound
        in L2 (the dual surrogate damps exactly the modes a Newton-like
        method nails)."""
        r = _residual(self.prob, gu, self.f)
        rn = self.prob.kit.dual_norm(r) / self.fn
        if self.frozen:
            rn = max(rn, float(np.sqrt(_sum(r * r))) / self.f2)
        return rn

    def certificate(self) -> float:
        """Append and return the certificate at u, taken on gu."""
        rn = self._certify(self.gu)
        self.residuals.append(rn)
        return rn

    def certificate_floor(self) -> float:
        """The round-off spread of the certificate at u: the largest change
        of the certificate of u (1 + d) from that of u, d in {+-ulp,
        +-4 ulp} with ulp the float64 epsilon, each taken on grad^s of its
        own field.  The flux w|g|^(p-2) g is only (p-1)-Hoelder where g = 0,
        so below p = 2 a round-off change of g at a node where grad^s u
        vanishes moves the certificate by far more than the change itself.
        Reads u only."""
        grad, ulp = self.prob.kit.grad, np.finfo(np.float64).eps
        c0 = self._certify(grad(self.u))
        return max(abs(self._certify(grad(self.u * (1.0 + d))) - c0)
                   for d in (-4.0 * ulp, -ulp, ulp, 4.0 * ulp))

    def at_floor(self) -> bool:
        """Whether a stalled kacanov or newton run has its certificate stuck
        above tol by round-off: its floor is at least tol, and its best
        certificate lies above tol by more than the floor, so no rounding
        within the floor of an iterate it has reached would certify it.  The
        floor is estimated while the run is stalled and at most once per
        _STALL_WINDOW steps; each estimate goes into the report as
        "certificate_floor", and a stop names itself in "stop_reason"."""
        k = len(self.residuals)
        if not _stalled(self.residuals) or k < self.floor_due:
            return False
        self.floor_due = k + _STALL_WINDOW
        floor = self.certificate_floor()
        self.counts["certificate_floor"] = floor
        if floor < self.tol or min(self.residuals) - floor < self.tol:
            return False
        self.counts["stop_reason"] = "certificate at its round-off floor"
        return True

    def report(self, converged: bool) -> SolveReport:
        """The report of the solve at u, with its certificates, energies,
        final eps and counts; "stalled" as solve_plaplace describes it."""
        return SolveReport(
            solution=ScalarField(self.prob.grid, self.prob.project(self.u)),
            iterations=len(self.energies) - 1,
            residuals=[float(x) for x in self.residuals],
            energies=[float(e) for e in self.energies],
            converged=converged,
            method=self.method,
            details={"tol": self.tol, "final_eps": self.eps, **self.counts,
                     "stalled": _stalled(self.residuals)},
        )


def solve_plaplace(
    prob: PDEProblem,
    method: str | None = None,
    tol: float | None = None,
    max_outer: int = 200,
    x0: ScalarField | None = None,
) -> SolveReport:
    """Iterative solve of the weighted fractional p-Laplace problem (g = 0).

    The start is x0 or, without one, the p = 2 solve with coefficient w,
    its CG stopped at 0.1 (Kacanov's forcing of the certificate 1 of u = 0).
    The start's certificate is residuals[0], so every outer step's inner
    solve follows a certificate.  kacanov: freeze
    a_k = w (|grad^s u_k|^2 + eps_k^2)^((p-2)/2), solve the linear problem
    by CG from u_k, stopped at 0.1 times the last certificate (clipped to
    [1e-12, 0.1]), and move to the regularized energy's minimum along the
    step, found from the energy's slope without a transform and accepted
    under Armijo or an approximate Wolfe test (default tol 1e-8).  newton
    (p > 2 only): inexact Newton on the regularized energy, each Hessian
    solve stopped at the forcing tolerance min(0.1, max(r, 0.5 tol / r)),
    r the last certificate, and preconditioned by
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
    (relative dual norm) after a step.  residuals holds the start's
    certificate and one per outer step (kacanov, newton) or eps stage
    (descent), so kacanov and newton report iterations + 1 of them, each
    row of history_rows pairing the certificate and energy of one iterate.
    The default method is default_method(p), with kacanov at p = 2.

    details counts line-search floor hits (every method) and, for kacanov
    and newton, the CG iterations of all inner solves, the inner solves
    that missed their tolerance, the step length of every outer step
    ("step_lengths") and one row per outer step ("steps": its inner
    solve's CG iterations, convergence, tolerance ("inner_tol") and eps);
    the rows and the initial guess's solve add up to "inner_iterations".
    "stalled" flags a run whose best certificate of its last 10 outer
    steps improved on the best before them, the start's included, by less
    than a relative 1e-3.
    Below p = 2 the certificate has a round-off floor where grad^s u
    vanishes on a grid node: the flux is only (p-1)-Hoelder there, so
    rounding g by one ulp moves it by far more.  While a kacanov or newton
    run is stalled, at most once per 10 steps, it estimates that floor as
    the largest change of the certificate of u (1 + d) from that of u,
    d in {+-1, +-4} ulp, each certificate taken on grad^s of its own field,
    and records it as "certificate_floor".  The run stops, unconverged and
    with "stop_reason" = "certificate at its round-off floor", once the
    floor is at least tol and its best certificate lies above tol by more
    than the floor; otherwise it goes on as before, the estimate having
    only read u.  Both keys appear only where the estimate ran or the stop
    fired.
    A descent run that meets a non-finite value it cannot restart past
    stops unconverged at its last finite iterate, with the reason in
    "breakdown" (absent from every other report).  Zero data gives the
    zero solution, converged, with final_eps 0.
    """
    st = _SolveState(prob, method, tol)
    if st.fn == 0.0:
        # zero data: the unique minimizer is zero (energy vanishes there)
        st.u, st.eps = np.zeros_like(st.f), 0.0
        st.residuals, st.energies = [0.0], [0.0]
        return st.report(True)

    st.start(None if x0 is None else x0.values)
    # residuals[0] and energies[0] are the start's; every step appends one
    # energy and counts its failures and inner iterations into the report
    st.certificate()
    st.energies.append(_energy(prob, st.f, st.u, st.eps, st.gu))
    converged = False
    for _ in range(max_outer):
        _STEPS[st.method](st)
        if st.certificate() < st.tol:
            converged = True
            break
        if "breakdown" in st.counts or (st.frozen and st.at_floor()):
            break
        if not st.frozen and len(st.residuals) > 4 and st.eps <= st.eps_min * 1.001:
            # descent at the regularization floor, four stages or more past
            # the start's certificate, with no progress left
            if abs(st.residuals[-1] - st.residuals[-2]) < 1e-3 * st.residuals[-1]:
                break
        st.eps = (max(st.eps * 0.5, 1e-15 * st.scale) if st.frozen
                  else max(st.eps * 0.25, st.eps_min))
    return st.report(converged)


def _first_eigenpair(prob: PDEProblem, u: np.ndarray, tol: float, max_iter: int):
    """The first eigenpair of T u = -div^s(w |grad^s u|^(p-2) grad^s u) =
    lambda B u, B u = w |u|^(p-2) u, from the interior start u; returns
    (lambda, residual, steps, converged, method, inner CG iterations).

    At p = 2 this is the pencil K u = lambda w u, solved by _lobpcg (method
    "lobpcg"), which runs no inner solve.  At every other p it is the
    nonlinear inverse power iteration (Hein & Buehler, NIPS 2010; method
    "inverse_power") on one solve state whose steps change only its f = B u:
    each starts at u0 = u lambda^(-1/(p-1)), the energy's minimizer on the
    ray through u, and takes the frozen step of _frozen_step, its solve
    forced at _kacanov_tol of the eigen-residual: along d = u_hat - u0 to
    the minimum of the Rayleigh quotient R(u0 + t d) (_quotient_minimum),
    or, when no t lowers R, to the frozen problem's energy minimum along the
    same d, as a Kacanov step does.  Either way lambda never rises.  lambda
    is the Rayleigh quotient <u, Tu> / <u, Bu> and the residual
    ||Tu - lambda Bu|| / (lambda ||Bu||), both taken afresh at the returned
    u; converged needs the residual below tol and no failed inner solve or
    line search."""
    w, p = prob.weight, prob.p

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
        return lam, res, iters, res < tol, "lobpcg", 0
    Bu, lam, res = eigen(u)
    st = _SolveState(prob, "kacanov")
    iters = 0
    while res >= tol and iters < max_iter:
        st.f = prob.project(Bu)
        st.start(u * lam ** (-1.0 / (p - 1.0)))
        a, d, gd = _frozen_step(st, _kacanov_tol(res))
        t = _quotient_minimum(prob, st.u, st.gu, d, gd)
        if t is None:
            _damped_update(st, a, d, gd, True)
        else:
            st.u = st.u + t * d
        sol = ScalarField(prob.grid, prob.project(st.u))
        u = sol.values / lp_norm(sol, p, w)
        Bu, lam, res = eigen(u)
        iters += 1
    failures = st.counts["inner_unconverged"] + st.counts["line_search_failures"]
    return (lam, res, iters, res < tol and failures == 0, "inverse_power",
            st.counts["inner_iterations"])


def _quotient_minimum(prob, u, gu, d, gd):
    """The step t > 0 to the minimum of the Rayleigh quotient
    R(t) = N(t) / D(t), N(t) = sum w |gu + t gd|^p and D(t) = sum w |u + t d|^p,
    along d, or None when the step found does not keep R(t) <= R(0).

    gu and gd are grad^s u and grad^s d, so a trial costs no transform.
    _slope_root finds the root of (N' D - N D')(t) / p, which has the sign
    of R'(t), as it finds the energy's for a Kacanov step.  R is flat to
    second order at its minimum, so only a slope can place the minimum to
    more than half the digits.  R' itself, like the slope of log R, decays
    to zero where R levels off far out along a long d and would end the
    search there; the numerator grows there.

    |grad^s|^(p-2) is taken only where m = |gu + t gd|^2 > 0 and
    |u + t d|^(p-2) only where u + t d != 0, with 1 elsewhere, as _coeff
    guards m.  Every such factor is multiplied by m, by the vanishing
    gradient or by u + t d, so the guard changes no term: above p = 2 the
    power is 0 there anyway and the sums keep their bits, and below p = 2
    it keeps 0 * inf = NaN out of the sums."""
    w, p = prob.weight.values, prob.p

    def parts(t):
        gt = [c + t * cd for c, cd in zip(gu, gd)]
        ut = u + t * d
        m = sum(c * c for c in gt)
        a = w * np.where(m > 0.0, m, 1.0) ** ((p - 2.0) / 2.0)
        b = w * np.where(ut != 0.0, np.abs(ut), 1.0) ** (p - 2.0)
        num, den = _sum(a * m), _sum(b * ut * ut)
        dnum = sum(_sum(a * c * cd) for c, cd in zip(gt, gd))
        return num / den, dnum * den - num * _sum(b * ut * d)

    r0, slope = parts(0.0)
    if not slope < 0.0:
        return None
    t, r, _ = _slope_root(parts, slope)
    return t if r <= r0 else None


#: LOBPCG's Rayleigh-Ritz drops a direction whose eigenvalue in the Gram
#: matrix of B falls below this fraction of the largest one
_GRAM_DROP = 1e-12


def _lobpcg(prob: PDEProblem, x: np.ndarray, tol: float, max_iter: int):
    """Single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) for the
    smallest eigenpair of K u = lambda B u, K = -div^s(w grad^s .) on
    interior fields and B = w; returns (u, steps).

    A step forms r = K x - lambda B x with lambda = <x, Kx> / <x, Bx> and
    stops once ||r|| < tol lambda ||Bx||.  Otherwise it preconditions r by
    _make_precond (the shifted (-Lap)^s scaled on both sides by the
    operator's diagonal), W = prec(r), applies K once, to W, and runs
    Rayleigh-Ritz on span{x, W, P}, P the last step's update, by
    numpy.linalg.eigh: each column is scaled to unit B-norm, and directions
    whose B-Gram eigenvalue is below _GRAM_DROP times the largest are
    dropped.  x, Kx, P and KP follow by linear combination, so K is never
    applied to x again.  The Ritz value is the minimum of the quotient over
    a span that holds x, so lambda never rises.  The Gram matrices are
    einsum sums, not matrix products, which would page in BLAS code for
    these few columns.
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
