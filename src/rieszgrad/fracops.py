"""Fractional operators as Fourier multipliers, and their normalizing constants.

Symbols on the frequency lattice (japanese bracket ``<xi> = (1+4 pi^2 |xi|^2)^(1/2)``):

    riesz_gradient_j        2 pi i xi_j / |2 pi xi|^(1-s)        s in (0, 1)
    fractional_divergence   dot product of the gradient symbol   s in (0, 1)
    riesz_potential         (2 pi |xi|)^(-sigma)                 sigma in (0, n)
    bessel_potential        <xi>^(-sigma)                        any finite sigma
    fractional_laplacian    (2 pi |xi|)^sigma                    sigma in (0, 2)
    riesz_transform_j       -i xi_j / |xi|
    T_s                     (2 pi |xi|)^s / <xi>^s
    G_s                     <xi>^s / (1 + (2 pi |xi|)^s)

Each kind is defined in one place, its entry in ``_KINDS``: order domain,
value at xi = 0, formula, and whether it is odd.  The pointwise ``symbol``,
the half-lattice symbols and the operator kit all read that table.

Conventions on the torus lattice:

* homogeneous symbols take the value 0 at xi = 0 (the discrete stand-in for
  the missing continuum zero frequency); bessel_potential and G_s take 1;
* symbols odd in one frequency component (gradient, divergence, Riesz
  transform, the plain derivative) are zeroed on that component's Nyquist
  plane, the unpaired frequency -N/(2L); this keeps outputs of real inputs
  exactly real and makes the discrete integration-by-parts identity exact.

Symbols are built on the half lattice of the real transforms only, and
operators apply them on the half spectrum (per-axis passes, real last axis,
inverse in place), forming each product in a spectrum no one else holds.
An odd symbol whose radial factor is a constant (the plain derivative,
2 pi i xi_j) is an axis vector, of extent 1 off axis j, that broadcasts
against the spectrum; its products are bitwise those of the full array.
``lattice_symbol`` extends a symbol to the whole lattice
by conjugate symmetry, m(-xi) = conj(m(xi)).  The origin phase and
the h^n scaling cancel inside a multiplier and a real inverse has no
imaginary residue, so the phase, the scaling and the residue guard live only
in the public ``forward_transform`` and ``inverse_transform``.

An independent principal-value quadrature of the Riesz fractional gradient in
one dimension, truncated at the fixed radii 2h and L/4, cross-validates the
spectral route; it never touches a symbol.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .grid import Grid, ScalarField, VectorField

__all__ = [
    "MULTIPLIER_KINDS",
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
    "gradient_normalization",
    "riesz_normalization",
]


def _sum(x) -> np.floating:
    """Sum over every entry: the reduction np.sum runs, without np.sum's
    Python-level dispatch, which dominates on the solver's small arrays;
    bitwise the same result."""
    return np.add.reduce(x, axis=None)


class _Kind(NamedTuple):
    """One multiplier kind: the open interval of its orders ("n" stands for
    the dimension; None admits every finite order), its value at xi = 0, its
    formula f(order, r) of the angular wavenumber r = 2 pi |xi| > 0, and
    whether it is odd, with symbol i xi_j f in a component j, rather than
    even, with symbol f."""

    orders: tuple | None
    at_zero: float
    f: Callable
    odd: bool = False


_TWO_PI = 2.0 * np.pi
_GRADIENT = _Kind((0, 1), 0.0, lambda o, r: _TWO_PI / r ** (1.0 - o), odd=True)

#: Every multiplier kind, defined once; fractional_divergence shares the
#: gradient's entry (its symbol is the dot product with the gradient's).
#: <0> = 1, so the bessel_potential and G_s fills reproduce their formulas.
_KINDS = {
    "riesz_gradient": _GRADIENT,
    "fractional_divergence": _GRADIENT,
    "riesz_potential": _Kind((0, "n"), 0.0, lambda o, r: r ** (-o)),
    "bessel_potential": _Kind(None, 1.0, lambda o, r: (1.0 + r**2) ** (-o / 2.0)),
    "fractional_laplacian": _Kind((0, 2), 0.0, lambda o, r: r**o),
    "riesz_transform": _Kind(None, 0.0, lambda o, r: -_TWO_PI / r, odd=True),
    "T_s": _Kind((0, 1), 0.0, lambda o, r: r**o / (1.0 + r**2) ** (o / 2.0)),
    "G_s": _Kind((0, 1), 1.0, lambda o, r: (1.0 + r**2) ** (o / 2.0) / (1.0 + r**o)),
    "derivative": _Kind(None, 0.0, lambda o, r: _TWO_PI, odd=True),
}

MULTIPLIER_KINDS = tuple(_KINDS)


def _kind(kind: str, order: float, n: int, *components) -> _Kind:
    """The entry of kind, once order is finite and lies in its domain in
    dimension n and, for an odd kind, at least one component is given and
    each is an axis."""
    entry = _KINDS.get(kind)
    if entry is None:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    if not math.isfinite(order):
        raise ValueError(f"{kind} needs a finite order, got {order}")
    if entry.orders is not None:
        lo, hi = entry.orders
        hi = n if hi == "n" else hi
        if not lo < order < hi:
            raise ValueError(f"{kind} needs order in ({lo}, {hi}), got {order}")
    if entry.odd and (
        not components or any(j is None or not 0 <= j < n for j in components)
    ):
        raise ValueError(f"{kind} needs a component index in [0, {n})")
    return entry


def symbol(kind: str, xi, order: float, component: int | None = None):
    """Evaluate a multiplier symbol at a single frequency vector.

    Returns a complex scalar, or a complex vector for the gradient/divergence
    kinds when no component is given.  This is the pure formula; the lattice
    version additionally applies the Nyquist-plane reality convention.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    n = xi.size
    if component is None and _KINDS.get(kind) is _GRADIENT:
        return np.array([symbol(kind, xi, order, j) for j in range(n)])
    entry = _kind(kind, order, n, component)
    r = 2.0 * np.pi * float(np.sqrt(_sum(xi * xi)))
    if r == 0.0:
        return complex(entry.at_zero)
    m = entry.f(order, r)
    return complex(1j * xi[component] * m if entry.odd else m)


def lattice_symbol(
    grid: Grid, kind: str, order: float, component: int | None = None
) -> np.ndarray:
    """Symbol evaluated on the whole frequency lattice, FFT ordering.

    Homogeneous symbols are set to 0 at xi = 0 (1 for bessel_potential/G_s);
    component symbols vanish on their Nyquist plane.  The half-lattice
    symbol, broadcast to the half lattice if it is an axis vector, is
    extended by m(-xi) = conj(m(xi)): last-axis columns
    N/2+1 ... N-1 are the conjugates of columns N/2-1 ... 1 at index -k on
    every leading axis (a flip, then a roll by one).
    """
    m = np.broadcast_to(_symbol(grid, kind, order, component),
                        grid.half_wavenumber.shape)
    mirror = np.conj(m[..., grid.spec.N // 2 - 1 : 0 : -1])
    for ax in range(grid.spec.n - 1):
        mirror = np.roll(np.flip(mirror, ax), 1, ax)
    return np.concatenate([m, mirror], axis=-1).astype(np.complex128)


def _symbol(grid: Grid, kind: str, order: float, component=None):
    """Symbol on the half lattice of the real transforms.

    Odd (component) symbols come back complex, even ones real.
    """
    n = grid.spec.n
    entry = _kind(kind, order, n, component)
    if entry.odd:
        return _odd_symbols(grid, kind, order, [component])[0]
    m = entry.f(order, grid.half_wavenumber)
    m[(0,) * n] = entry.at_zero
    return m


def _odd_symbols(grid: Grid, kind: str, order: float, components):
    """Symbols of the given components of an odd kind, all built from one
    radial factor (:func:`_odd_symbol`)."""
    f = _radial_factor(grid, kind, order, components)
    return [_odd_symbol(grid, f, j) for j in components]


def _radial_factor(grid: Grid, kind: str, order: float, components=(0,)):
    """The radial factor f(2 pi |xi|) of an odd kind on the half lattice,
    once order lies in its domain and each of the components is an axis:
    what a caller keeps to form each component's symbol at its use
    (:func:`_odd_symbol`)."""
    return _kind(kind, order, grid.spec.n, *components).f(order, grid.half_wavenumber)


def _odd_symbol(grid: Grid, f, j: int) -> np.ndarray:
    """The symbol i xi_j f of component j, from the radial factor f: 0 at
    the origin and on the component's Nyquist plane, index N/2 of its axis
    (+N/(2L) on the last axis).  Every odd kind is 0 at the origin.

    A constant f (the plain derivative, 2 pi i xi_j) gives an axis vector,
    of extent 1 off axis j, that broadcasts against the half spectrum: its
    products are bitwise those of the full array it stands for, whose
    xi_j = 0 plane holds the origin's value already."""
    m = 1j * grid.half_xi[j] * f
    m[(0,) * grid.spec.n] = 0.0
    m[(slice(None),) * j + (grid.spec.N // 2,)] = 0.0
    return m


# ---------------------------------------------------------------------------
# Raw-array spectral layer: _irfft(symbol * _rfft(u)) on the half lattice.
# ---------------------------------------------------------------------------


def _rfft(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Half spectrum of a real array: a real pass on the last axis, then
    complex passes in place on the others, last to first (rfftn's order)."""
    F = np.fft.rfft(u, axis=-1)
    for ax in range(grid.spec.n - 2, -1, -1):
        np.fft.fft(F, axis=ax, out=F)
    return F


def _irfft(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Real array of a half spectrum, in irfftn's order of passes.  The
    complex passes run in place, so F is overwritten: callers pass a
    temporary they no longer need."""
    for ax in range(grid.spec.n - 1):
        np.fft.ifft(F, axis=ax, out=F)
    return np.fft.irfft(F, n=grid.spec.N, axis=-1)


def _rfft_times(grid: Grid, m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """m times the half spectrum of u, formed in that spectrum, which no one
    else holds: bitwise m * _rfft(grid, u), without a second array."""
    F = _rfft(grid, u)
    return np.multiply(m, F, out=F)


def _multiply(grid: Grid, m: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _irfft(grid, _rfft_times(grid, m, u))


def _grad(grid: Grid, syms, u: np.ndarray) -> list[np.ndarray]:
    """One forward transform, one inverse per component."""
    F = _rfft(grid, u)
    return [_irfft(grid, m * F) for m in syms]


def _div(grid: Grid, syms, vec) -> np.ndarray:
    """Components summed in the half spectrum before one inverse."""
    acc = _rfft_times(grid, syms[0], vec[0])
    for m, c in zip(syms[1:], vec[1:]):
        acc += _rfft_times(grid, m, c)
    return _irfft(grid, acc)


class _RieszOps:
    """grad^s, div^s and the spectral surrogates of one (grid, s) on raw
    arrays.  Symbols are built once per instance; callers keep the instance
    for as long as they apply its operators."""

    def __init__(self, grid: Grid, s: float):
        self.grid = grid
        self.s = s
        self.hn = grid.h**grid.spec.n
        self.grad_syms = _odd_symbols(grid, "riesz_gradient", s, range(grid.spec.n))

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
    def lap_shift(self) -> float:
        """(2 pi / L)^(2s), the smallest nonzero value of lap_sym."""
        return (_TWO_PI / self.grid.spec.L) ** (2.0 * self.s)

    @cached_property
    def diag_sym(self) -> np.ndarray:
        """Half spectrum of kappa = sum_j g_j^2, g_j the real-space kernel of
        component j of grad^s (the inverse transform of its symbol).  Each
        g_j is odd, so -div^s(a grad^s .) has the diagonal a * kappa, the
        circular convolution multiply(diag_sym, a).  kappa is even, so its
        spectrum is real."""
        kappa = sum(_irfft(self.grid, m.copy()) ** 2 for m in self.grad_syms)
        return _rfft(self.grid, kappa).real.copy()

    @cached_property
    def diag_sum(self) -> float:
        """sum(kappa): the diagonal a * kappa of a unit coefficient."""
        return float(self.diag_sym[(0,) * self.grid.spec.n])

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
        total = 2.0 * _sum(a2) - _sum(a2[..., 0]) - _sum(a2[..., -1])
        return float(np.sqrt(total / self.grid.spec.volume))


def apply_multiplier(
    u: ScalarField, kind: str, order: float, component: int | None = None
) -> ScalarField:
    """The real field whose transform is symbol * forward_transform(u)."""
    g = u.grid
    m = _symbol(g, kind, order, component)
    return ScalarField._own(g, _multiply(g, m, u.values))


def _gradient_field(u: ScalarField, kind: str, order: float) -> VectorField:
    g = u.grid
    syms = _odd_symbols(g, kind, order, range(g.spec.n))
    comps = tuple(ScalarField._own(g, c) for c in _grad(g, syms, u.values))
    return VectorField(g, comps)


def _divergence_field(v: VectorField, kind: str, order: float) -> ScalarField:
    g = v.grid
    syms = _odd_symbols(g, kind, order, range(g.spec.n))
    return ScalarField._own(g, _div(g, syms, [c.values for c in v.components]))


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


# ---------------------------------------------------------------------------
# Principal-value quadrature of the Riesz fractional gradient in 1D: an oracle
# that never evaluates a Fourier symbol.
# ---------------------------------------------------------------------------


def _fd_derivative(v: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered finite difference of a periodic 1D array (rolls).

    Used only by the principal-value oracle, which must stay independent of
    the spectral machinery.
    """
    gp1 = np.roll(v, -1, axis=0)
    gm1 = np.roll(v, 1, axis=0)
    gp2 = np.roll(v, -2, axis=0)
    gm2 = np.roll(v, 2, axis=0)
    return (-gp2 + 8.0 * gp1 - 8.0 * gm1 + gm2) / (12.0 * h)


def riesz_gradient_pv(u: ScalarField, s: float) -> VectorField:
    """Truncated principal-value quadrature of the 1D Riesz fractional gradient.

    Real-space sum of c_{1,s} (u(x)-u(y)) (x-y) / |x-y|^{s+2} over lattice
    offsets with eps <= |x-y| <= R (periodic minimal-image distance), with
    the fixed truncation eps = 2h and R = L/4.  Each offset's weight is the
    exact kernel moment over its cell clipped to [eps, R] (product
    integration; the |z|^(-s) moment defeats the midpoint rule's O(h^(1-s))
    error near the singularity).  The dropped shell |x-y| < eps adds its
    analytic linear moment: by the kernel's odd symmetry it equals
    u'(x) 2 eps^(1-s) / (1-s) + O(eps^(3-s)), with u' a fourth-order finite
    difference, so the oracle never evaluates a Fourier symbol.

    The oracle approximates the free-space operator; for a bump of support
    radius rho it is trustworthy on the window |x - center| <= R - 2 rho
    (outside, sources beyond the cutoff are dropped and the comparison with
    the periodized spectral operator is meaningless).

    Only n = 1; the n = 2, 3 oracle is the closed-form Gaussian image sum
    planned in ROADMAP item 4.
    """
    g = u.grid
    if g.spec.n != 1:
        raise ValueError(
            f"riesz_gradient_pv is one-dimensional, got n = {g.spec.n}; the "
            "n = 2, 3 oracle is the closed-form Gaussian image sum of ROADMAP "
            "item 4, not yet built"
        )
    if not (0.0 < s < 1.0):
        raise ValueError(f"riesz_gradient_pv needs s in (0, 1), got {s}")
    h, L = g.h, g.spec.L
    eps, radius = 2.0 * h, L / 4.0
    v = u.values
    z = h * np.arange(g.spec.N)
    z -= L * np.round(z / L)
    out = np.zeros(g.spec.shape)
    for k in range(1, g.spec.N):
        a = max(abs(z[k]) - h / 2.0, eps)
        b = min(abs(z[k]) + h / 2.0, radius)
        if b <= a:
            continue
        w = (a ** (-s) - b ** (-s)) / s
        out += (v - np.roll(v, k, axis=0)) * (np.sign(z[k]) * w)
    shell = 2.0 / (1.0 - s) * eps ** (1.0 - s)
    pv = gradient_normalization(1, s) * (out + shell * _fd_derivative(v, h))
    return VectorField(g, (ScalarField(g, pv),))
