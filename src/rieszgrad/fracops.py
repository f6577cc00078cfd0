"""Fractional operators as Fourier multipliers, and their normalizing constants.

Symbols on the frequency lattice (japanese bracket ``<xi> = (1+4 pi^2 |xi|^2)^(1/2)``):

    riesz_gradient_j        2 pi i xi_j / |2 pi xi|^(1-s)        s in (0, 1)
    fractional_divergence   dot product of the gradient symbol   s in (0, 1)
    riesz_potential         (2 pi |xi|)^(-sigma)                 sigma in (0, n)
    bessel_potential        <xi>^(-sigma)                        any real sigma
    fractional_laplacian    (2 pi |xi|)^sigma                    sigma in (0, 2)
    riesz_transform_j       -i xi_j / |xi|
    T_s                     (2 pi |xi|)^s / <xi>^s
    G_s                     <xi>^s / (1 + (2 pi |xi|)^s)

Conventions on the torus lattice:

* homogeneous symbols take the value 0 at xi = 0 (the discrete stand-in for
  the missing continuum zero frequency); bessel_potential and G_s take 1;
* symbols odd in one frequency component (gradient, divergence, Riesz
  transform, the plain derivative) are zeroed on that component's Nyquist
  plane, the unpaired frequency -N/(2L); this keeps outputs of real inputs
  exactly real and makes the discrete integration-by-parts identity exact.

Operators apply their symbol on the half spectrum of the real transforms
(``rfftn``/``irfftn``).  The origin phase and the h^n scaling cancel inside a
multiplier and a real inverse has no imaginary residue, so the phase, the
scaling and the residue guard live only in the public ``forward_transform``
and ``inverse_transform``.

An independent principal-value quadrature of the Riesz fractional gradient is
provided for cross-validating the spectral route; it never touches a symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, ScalarField, VectorField

__all__ = [
    "MULTIPLIER_KINDS",
    "FracConstants",
    "symbol",
    "lattice_symbol",
    "apply_multiplier",
    "riesz_gradient",
    "riesz_gradient_pv",
    "fractional_divergence",
    "riesz_potential",
    "bessel_potential",
    "fractional_laplacian",
    "riesz_transform",
    "ts_multiplier",
    "gs_multiplier",
    "spectral_gradient",
    "spectral_divergence",
    "constants",
    "gradient_normalization",
    "riesz_normalization",
    "pv_kernel",
]

MULTIPLIER_KINDS = (
    "riesz_gradient",
    "fractional_divergence",
    "riesz_potential",
    "bessel_potential",
    "fractional_laplacian",
    "riesz_transform",
    "T_s",
    "G_s",
    "derivative",
)

#: kinds whose symbol is odd in a single component and needs an index
_COMPONENT_KINDS = {"riesz_gradient", "riesz_transform", "derivative"}


def _check_order(kind: str, order: float, n: int) -> None:
    if kind in ("riesz_gradient", "fractional_divergence"):
        if not (0.0 < order < 1.0):
            raise ValueError(f"{kind} needs order in (0, 1), got {order}")
    elif kind == "riesz_potential":
        if not (0.0 < order < n):
            raise ValueError(f"riesz_potential needs order in (0, {n}), got {order}")
    elif kind == "fractional_laplacian":
        if not (0.0 < order < 2.0):
            raise ValueError(f"fractional_laplacian needs order in (0, 2), got {order}")
    elif kind in ("T_s", "G_s"):
        if not (0.0 < order < 1.0):
            raise ValueError(f"{kind} needs order in (0, 1), got {order}")
    elif kind in ("riesz_transform", "derivative", "bessel_potential"):
        pass
    else:
        raise ValueError(f"unknown multiplier kind {kind!r}")


def _scalar_symbol(kind, order, xi_norm, xi_j=None):
    """Symbol formula on arrays; zero-frequency entries patched afterwards."""
    two_pi = 2.0 * np.pi
    if kind == "riesz_gradient":
        return 1j * two_pi * xi_j / (two_pi * xi_norm) ** (1.0 - order)
    if kind == "riesz_transform":
        return -1j * xi_j / xi_norm
    if kind == "derivative":
        return 1j * two_pi * xi_j
    if kind == "riesz_potential":
        return (two_pi * xi_norm) ** (-order)
    if kind == "bessel_potential":
        return (1.0 + (two_pi * xi_norm) ** 2) ** (-order / 2.0)
    if kind == "fractional_laplacian":
        return (two_pi * xi_norm) ** order
    if kind == "T_s":
        return (two_pi * xi_norm) ** order / (
            1.0 + (two_pi * xi_norm) ** 2
        ) ** (order / 2.0)
    if kind == "G_s":
        return (1.0 + (two_pi * xi_norm) ** 2) ** (order / 2.0) / (
            1.0 + (two_pi * xi_norm) ** order
        )
    raise ValueError(f"unknown multiplier kind {kind!r}")


def symbol(kind: str, xi, order: float, component: int | None = None):
    """Evaluate a multiplier symbol at a single frequency vector.

    Returns a complex scalar, or a complex vector for the gradient/divergence
    kinds when no component is given.  This is the pure formula; the lattice
    version additionally applies the Nyquist-plane reality convention.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    n = xi.size
    _check_order(kind, order, n)
    norm = float(np.sqrt(np.sum(xi * xi)))
    if kind in ("riesz_gradient", "fractional_divergence") and component is None:
        if norm == 0.0:
            return np.zeros(n, dtype=np.complex128)
        return np.asarray(
            [
                _scalar_symbol("riesz_gradient", order, norm, xi[j])
                for j in range(n)
            ],
            dtype=np.complex128,
        )
    if kind == "fractional_divergence":
        kind = "riesz_gradient"
    if kind in _COMPONENT_KINDS:
        if component is None or not (0 <= component < n):
            raise ValueError(f"{kind} needs a component index in [0, {n})")
    if norm == 0.0:
        return complex(1.0 if kind in ("bessel_potential", "G_s") else 0.0)
    xi_j = xi[component] if kind in _COMPONENT_KINDS else None
    return complex(_scalar_symbol(kind, order, norm, xi_j))


def lattice_symbol(
    grid: Grid, kind: str, order: float, component: int | None = None
) -> np.ndarray:
    """Symbol evaluated on the whole frequency lattice, FFT ordering.

    Homogeneous symbols are set to 0 at xi = 0 (1 for bessel_potential/G_s);
    component symbols vanish on their Nyquist plane.
    """
    return _symbol(grid, kind, order, component, half=False).astype(np.complex128)


def _symbol(grid: Grid, kind: str, order: float, component=None, half=True):
    """Symbol on the half lattice of the real transforms (or the full one).

    Odd (component) symbols come back complex, even ones real.
    """
    n = grid.spec.n
    if kind == "fractional_divergence":
        kind = "riesz_gradient"
    _check_order(kind, order, n)
    xi, norm = (grid.half_xi, grid.half_xi_norm) if half else (grid.xi, grid.xi_norm)
    zero = norm == 0.0
    safe = np.where(zero, 1.0, norm)
    if kind in _COMPONENT_KINDS:
        if component is None or not (0 <= component < n):
            raise ValueError(f"{kind} needs a component index in [0, {n})")
        m = np.where(zero, 0.0, _scalar_symbol(kind, order, safe, xi[component]))
        # the unpaired Nyquist plane is index N/2 of the component's axis on
        # both lattices (+N/(2L) on the half lattice's last axis)
        m[(slice(None),) * component + (grid.spec.N // 2,)] = 0.0
        return m
    # <0> = 1 for the bessel kind, so its fill reproduces the formula at 0.
    fill = 1.0 if kind in ("bessel_potential", "G_s") else 0.0
    return np.where(zero, fill, _scalar_symbol(kind, order, safe, None))


# ---------------------------------------------------------------------------
# Raw-array spectral layer: irfftn(symbol * rfftn(u)) on the half lattice.
# ---------------------------------------------------------------------------


def _rfft(grid: Grid, u: np.ndarray) -> np.ndarray:
    return np.fft.rfftn(u, axes=tuple(range(grid.spec.n)))


def _irfft(grid: Grid, F: np.ndarray) -> np.ndarray:
    return np.fft.irfftn(F, s=grid.spec.shape, axes=tuple(range(grid.spec.n)))


def _multiply(grid: Grid, m: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _irfft(grid, m * _rfft(grid, u))


def _grad(grid: Grid, syms, u: np.ndarray) -> list[np.ndarray]:
    """One forward transform, one inverse per component."""
    F = _rfft(grid, u)
    return [_irfft(grid, m * F) for m in syms]


def _div(grid: Grid, syms, vec) -> np.ndarray:
    """Components summed in the half spectrum before one inverse."""
    acc = syms[0] * _rfft(grid, vec[0])
    for m, c in zip(syms[1:], vec[1:]):
        acc += m * _rfft(grid, c)
    return _irfft(grid, acc)


class _RieszOps:
    """grad^s, div^s and the spectral surrogates of one (grid, s) on raw
    arrays.  Symbols are built once per instance; callers keep the instance
    for as long as they apply its operators."""

    def __init__(self, grid: Grid, s: float):
        self.grid = grid
        self.s = s
        self.hn = grid.h**grid.spec.n
        self.grad_syms = [
            _symbol(grid, "riesz_gradient", s, j) for j in range(grid.spec.n)
        ]

    def grad(self, u: np.ndarray) -> list[np.ndarray]:
        return _grad(self.grid, self.grad_syms, u)

    def div(self, vec) -> np.ndarray:
        return _div(self.grid, self.grad_syms, vec)

    def elliptic(self, a: np.ndarray, u: np.ndarray) -> np.ndarray:
        """-div^s(a grad^s u) for a pointwise coefficient a."""
        return -self.div([a * c for c in self.grad(u)])

    def multiply(self, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _multiply(self.grid, m, u)

    @cached_property
    def lap_sym(self) -> np.ndarray:
        """(-Laplace)^s, i.e. (2 pi |xi|)^(2s) with 0 at xi = 0."""
        return _symbol(self.grid, "fractional_laplacian", 2.0 * self.s)

    @cached_property
    def _dual_sym(self) -> np.ndarray:
        return _symbol(self.grid, "riesz_potential", self.s)

    def dual_norm(self, r: np.ndarray) -> float:
        """||(-Lap)^(-s/2) r|| from unscaled FFT coefficients (a surrogate
        compared only with itself)."""
        z = self._dual_sym * _rfft(self.grid, r)
        a2 = z.real**2 + z.imag**2
        # Parseval over the half spectrum: columns 0 and N/2 of the last axis
        # are their own mirror images, every other column stands for two
        total = 2.0 * np.sum(a2) - np.sum(a2[..., 0]) - np.sum(a2[..., -1])
        return float(np.sqrt(total / self.grid.spec.volume))


def apply_multiplier(
    u: ScalarField, kind: str, order: float, component: int | None = None
) -> ScalarField:
    """The real field whose transform is symbol * forward_transform(u)."""
    g = u.grid
    return ScalarField(g, _multiply(g, _symbol(g, kind, order, component), u.values))


def _gradient_field(u: ScalarField, kind: str, order: float) -> VectorField:
    g = u.grid
    syms = [_symbol(g, kind, order, j) for j in range(g.spec.n)]
    return VectorField(g, tuple(ScalarField(g, c) for c in _grad(g, syms, u.values)))


def _divergence_field(v: VectorField, kind: str, order: float) -> ScalarField:
    g = v.grid
    syms = [_symbol(g, kind, order, j) for j in range(g.spec.n)]
    return ScalarField(g, _div(g, syms, [c.values for c in v.components]))


def riesz_gradient(u: ScalarField, s: float) -> VectorField:
    """Riesz fractional gradient of order s via its Fourier symbol."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"riesz_gradient needs s in (0, 1), got {s}")
    return _gradient_field(u, "riesz_gradient", s)


def fractional_divergence(v: VectorField, s: float) -> ScalarField:
    """Fractional divergence, the formal dual of the Riesz gradient."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"fractional_divergence needs s in (0, 1), got {s}")
    return _divergence_field(v, "riesz_gradient", s)


def riesz_potential(u: ScalarField, sigma: float) -> ScalarField:
    """Smoothing of order sigma; acts on the mean-free part of u."""
    return apply_multiplier(u, "riesz_potential", sigma)


def bessel_potential(u: ScalarField, sigma: float) -> ScalarField:
    """Bessel potential of order sigma (negative orders differentiate)."""
    return apply_multiplier(u, "bessel_potential", sigma)


def fractional_laplacian(u: ScalarField, sigma: float) -> ScalarField:
    """(-Laplace)^(sigma/2), symbol (2 pi |xi|)^sigma."""
    return apply_multiplier(u, "fractional_laplacian", sigma)


def riesz_transform(u: ScalarField, component: int) -> ScalarField:
    return apply_multiplier(u, "riesz_transform", 0.0, component=component)


def ts_multiplier(u: ScalarField, s: float) -> ScalarField:
    return apply_multiplier(u, "T_s", s)


def gs_multiplier(u: ScalarField, s: float) -> ScalarField:
    return apply_multiplier(u, "G_s", s)


def spectral_gradient(u: ScalarField) -> VectorField:
    """Classical gradient via the derivative symbol (the s -> 1 limit)."""
    return _gradient_field(u, "derivative", 0.0)


def spectral_divergence(v: VectorField) -> ScalarField:
    return _divergence_field(v, "derivative", 0.0)


# ---------------------------------------------------------------------------
# Normalizing constants.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FracConstants:
    """Gradient constant c_{n,s} and Riesz-potential constant gamma_{n,s}.

    Their product across complementary orders satisfies the exact identity
    gamma_{n,1-s} * c_{n,s} = n + s - 1 (a Gamma-recurrence consequence of
    the two closed forms).
    """

    c: float
    gamma: float


def gradient_normalization(n: int, s: float) -> float:
    """c_{n,s} = Gamma((n+s+1)/2) / (pi^(n/2) 2^(-s) Gamma((1-s)/2))."""
    if not (-1.0 < s < 1.0):
        raise ValueError(f"c_(n,s) needs s in (-1, 1), got {s}")
    return math.exp(
        math.lgamma((n + s + 1) / 2.0)
        - math.lgamma((1.0 - s) / 2.0)
        + s * math.log(2.0)
        - (n / 2.0) * math.log(math.pi)
    )


def riesz_normalization(n: int, sigma: float) -> float:
    """gamma_{n,sigma} = pi^(n/2) 2^sigma Gamma(sigma/2) / Gamma((n-sigma)/2)."""
    if not (0.0 < sigma < n):
        raise ValueError(f"gamma_(n,sigma) needs sigma in (0, {n}), got {sigma}")
    return math.exp(
        (n / 2.0) * math.log(math.pi)
        + sigma * math.log(2.0)
        + math.lgamma(sigma / 2.0)
        - math.lgamma((n - sigma) / 2.0)
    )


def constants(n: int, s: float) -> FracConstants:
    """Both constants at order s (s in (0, 1) so both formulas are pole-free)."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"constants needs s in (0, 1), got {s}")
    return FracConstants(
        c=gradient_normalization(n, s), gamma=riesz_normalization(n, s)
    )


# ---------------------------------------------------------------------------
# Principal-value quadrature of the Riesz fractional gradient: an oracle that
# never evaluates a Fourier symbol.
# ---------------------------------------------------------------------------


def pv_kernel(z, s: float, n: int) -> np.ndarray:
    """Vector kernel c_{n,s} z / |z|^{n+s+1}; odd: pv_kernel(-z) = -pv_kernel(z)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    r = float(np.sqrt(np.sum(z * z)))
    if r == 0.0:
        raise ValueError("kernel is singular at z = 0")
    return gradient_normalization(n, s) * z / r ** (n + s + 1)


#: surface area of the unit sphere in R^n
_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _fd_gradient(u: ScalarField) -> list[np.ndarray]:
    """Fourth-order centered finite-difference gradient (periodic rolls).

    Used only by the principal-value oracle, which must stay independent of
    the spectral machinery.
    """
    h = u.grid.h
    v = u.values
    grads = []
    for axis in range(u.grid.spec.n):
        gp1 = np.roll(v, -1, axis=axis)
        gm1 = np.roll(v, 1, axis=axis)
        gp2 = np.roll(v, -2, axis=axis)
        gm2 = np.roll(v, 2, axis=axis)
        grads.append((-gp2 + 8.0 * gp1 - 8.0 * gm1 + gm2) / (12.0 * h))
    return grads


def _pv_weights(grid: Grid, s: float, eps: float, radius: float):
    """Quadrature weights for the truncated kernel, per lattice offset.

    Yields (offset index tuple, weight vector).  In one dimension the weight
    is the exact kernel moment over the offset's cell clipped to
    [eps, radius] (product integration; the |z|^(-s) moment defeats the
    midpoint rule's O(h^(1-s)) error near the singularity).  In higher
    dimensions cells are not radially alignable, so the midpoint value
    z |z|^(-(n+s+1)) h^n is used.
    """
    n, h = grid.spec.n, grid.h
    L = grid.spec.L
    offsets = []
    if n == 1:
        z = h * np.arange(grid.spec.N)
        z -= L * np.round(z / L)
        for k in range(1, grid.spec.N):
            a = max(abs(z[k]) - h / 2.0, eps)
            b = min(abs(z[k]) + h / 2.0, radius)
            if b <= a:
                continue
            w = (a ** (-s) - b ** (-s)) / s
            offsets.append(((k,), np.array([np.sign(z[k]) * w])))
        return offsets
    ax = h * np.arange(grid.spec.N)
    ax -= L * np.round(ax / L)
    zs = np.meshgrid(*(ax,) * n, indexing="ij")
    r = np.sqrt(sum(zz * zz for zz in zs))
    keep = (r >= eps * (1.0 - 1e-12)) & (r <= radius * (1.0 + 1e-12))
    for idx in np.argwhere(keep):
        idx = tuple(int(i) for i in idx)
        rr = r[idx]
        zvec = np.array([zs[d][idx] for d in range(n)])
        offsets.append((idx, zvec * rr ** (-(n + s + 1.0)) * h**n))
    return offsets


def riesz_gradient_pv(
    u: ScalarField,
    s: float,
    eps: float | None = None,
    radius: float | None = None,
) -> VectorField:
    """Truncated principal-value quadrature of the Riesz fractional gradient.

    Real-space sum of c_{n,s} (u(x)-u(y)) (x-y) / |x-y|^{n+s+1} over lattice
    offsets with eps <= |x-y| <= radius (periodic minimal-image distance),
    plus the analytic linear moment of the dropped shell |x-y| < eps: by the
    kernel's odd symmetry that shell integral equals
    grad u(x) . (area(S^{n-1}) / (n (1-s))) eps^{1-s} + O(eps^{3-s}).
    The gradient there is a fourth-order finite difference, so the oracle
    never evaluates a Fourier symbol.

    The oracle approximates the free-space operator; for a bump of support
    radius rho it is trustworthy on the window |x - center| <= radius - 2 rho
    (outside, sources beyond the cutoff are dropped and the comparison with
    the periodized spectral operator is meaningless).
    """
    g = u.grid
    n, h, L = g.spec.n, g.h, g.spec.L
    if not (0.0 < s < 1.0):
        raise ValueError(f"riesz_gradient_pv needs s in (0, 1), got {s}")
    eps = 2.0 * h if eps is None else float(eps)
    radius = L / 4.0 if radius is None else float(radius)
    if eps < h * (1.0 - 1e-12):
        raise ValueError(f"eps = {eps} is below the grid spacing {h}")
    if radius >= L / 2.0:
        raise ValueError(f"radius = {radius} must stay below L/2 = {L/2}")
    c = gradient_normalization(n, s)
    v = u.values
    out = [np.zeros(g.spec.shape) for _ in range(n)]
    for idx, w in _pv_weights(g, s, eps, radius):
        shift = v - np.roll(v, idx, axis=tuple(range(n)))
        for j in range(n):
            if w[j] != 0.0:
                out[j] += shift * w[j]
    shell = _SPHERE_AREA[n] / (n * (1.0 - s)) * eps ** (1.0 - s)
    fd = _fd_gradient(u)
    comps = tuple(
        ScalarField(g, c * (out[j] + shell * fd[j])) for j in range(n)
    )
    return VectorField(g, comps)
