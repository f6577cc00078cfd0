"""Uniform periodic-box discretization: fields, transforms, and weighted norms.

The ambient space is a periodic box ``[origin, origin + L)^n`` sampled on a
uniform lattice of ``N`` points per axis (``N`` a power of two).  The discrete
Fourier transform is normalized to approximate the continuum transform with
convention ``u_hat(xi) = \\int u(x) exp(-2 pi i x.xi) dx``, so the frequency
lattice is ``xi = k / L`` for integer ``k`` in ``[-N/2, N/2)`` per axis and

    forward:  u_hat(k) = h^n * sum_j u(x_j) exp(-2 pi i x_j . xi_k)
    inverse:  u(x_j)   = L^-n * sum_k u_hat(k) exp(+2 pi i x_j . xi_k)

With these scalings Parseval reads ``h^n sum |u|^2 = L^-n sum |u_hat|^2``.
Integrals are trapezoidal sums ``h^n sum(...)`` (exact for band-limited
periodic integrands); accumulation uses numpy's pairwise summation.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "Grid",
    "ScalarField",
    "VectorField",
    "SpectralField",
    "make_grid",
    "sample",
    "forward_transform",
    "inverse_transform",
    "bump",
    "lp_norm",
    "remove_mean",
    "write_field",
    "read_field",
    "field_to_csv",
]

#: Relative imaginary residue tolerated when an inverse transform is cast to a
#: real field; anything larger signals a symbol-symmetry bug upstream.
IMAG_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the periodic box: dimension, resolution, edge, lower corner."""

    n: int
    N: int
    L: float
    origin: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name in ("n", "N"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension n must be 1, 2 or 3, got {self.n}")
        if self.N < 8 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not (0 < self.L < np.inf):
            raise ValueError(f"box edge L must be positive and finite, got {self.L}")
        origin = tuple(float(o) for o in self.origin or (0.0,) * self.n)
        if len(origin) != self.n:
            raise ValueError(f"origin must have {self.n} entries, got {len(origin)}")
        if not np.all(np.isfinite(origin)):
            raise ValueError(f"origin entries must be finite, got {origin}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "L", float(self.L))

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def volume(self) -> float:
        return self.L**self.n


class Grid:
    """A GridSpec with cached coordinates and half frequency lattice.

    Build through :func:`make_grid`.  The frequencies per axis are
    ``numpy.fft.fftfreq(N, d=h) == k/L`` in FFT order; the Nyquist entry is the
    (unpaired) frequency ``-N/(2L)``.  Symbols live on the half lattice of the
    real transforms (``rfftn`` over all axes), which keeps ``fftfreq`` on the
    leading axes and uses ``rfftfreq`` on the last, whose Nyquist entry is
    ``+N/(2L)``.  The half lattice and the angular wavenumber ``2 pi |xi|`` on
    it are built on first use and kept.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n, N, h = spec.n, spec.N, spec.h
        self.h = h
        self.axes = tuple(spec.origin[d] + h * np.arange(N) for d in range(n))

    @cached_property
    def half_xi(self) -> tuple[np.ndarray, ...]:
        """Half lattice of ``rfftn``, one broadcastable array per axis."""
        n, N, h = self.spec.n, self.spec.N, self.h
        freqs = [np.fft.fftfreq(N, d=h)] * (n - 1) + [np.fft.rfftfreq(N, d=h)]
        return tuple(np.meshgrid(*freqs, indexing="ij", sparse=True))

    @cached_property
    def half_wavenumber(self) -> np.ndarray:
        """``2 pi |xi|`` on the half lattice, with the origin entry set to 1.

        The origin stands in for the continuum's missing zero frequency, so
        every symbol overwrites its value there by index; the finite stand-in
        only keeps negative powers from dividing by zero.  Read-only: symbols
        are evaluated on it, never in place.
        """
        r = 2.0 * np.pi * np.sqrt(sum(x * x for x in self.half_xi))
        r[(0,) * r.ndim] = 1.0
        r.flags.writeable = False
        return r

    def coords(self) -> list[np.ndarray]:
        """Meshgrid coordinate arrays (``indexing='ij'``)."""
        return np.meshgrid(*self.axes, indexing="ij")

    def sparse_coords(self) -> list[np.ndarray]:
        """The axes as broadcastable arrays, axis d varying along dimension d
        only: an elementwise expression in them takes the values it takes in
        :meth:`coords` without building n full arrays."""
        return np.meshgrid(*self.axes, indexing="ij", sparse=True)

    def _apply_phase(self, F: np.ndarray, conj: bool) -> np.ndarray:
        """F times the origin phase exp(-2 pi i origin . xi), or its conjugate:
        one factor per axis whose origin is non-zero."""
        out = F
        for d, o in enumerate(self.spec.origin):
            if o != 0.0:
                ph = np.exp(-2j * np.pi * o * np.fft.fftfreq(self.spec.N, d=self.h))
                shape = [-1 if e == d else 1 for e in range(self.spec.n)]
                out = out * (np.conj(ph) if conj else ph).reshape(shape)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"Grid({self.spec!r})"


def make_grid(spec: GridSpec) -> Grid:
    """Validate the spec and return a grid that caches its half lattice."""
    return Grid(spec)


def _frozen(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as given,
    past its __post_init__: the no-copy wrap behind the _own constructors."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real values on the grid lattice; immutable and always finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.spec.shape:
            raise ValueError(
                f"values shape {v.shape} does not match grid {self.grid.spec.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains NaN or Inf")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _own(cls, grid: Grid, values: np.ndarray) -> "ScalarField":
        """Wrap a float64 array of the grid's shape that the library has just
        allocated and holds no other reference to.  It is marked read-only
        in place; the copy and the finiteness scan of the public constructor
        are skipped."""
        values.flags.writeable = False
        return _frozen(cls, grid=grid, values=values)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)

    def __mul__(self, a: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(a))

    __rmul__ = __mul__

    def mean(self) -> float:
        return float(np.mean(self.values))


@dataclass(frozen=True, eq=False)
class VectorField:
    """n scalar components sharing one grid."""

    grid: Grid
    components: tuple[ScalarField, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if len(comps) != self.grid.spec.n:
            raise ValueError(
                f"expected {self.grid.spec.n} components, got {len(comps)}"
            )
        for c in comps:
            if c.grid != self.grid:
                raise ValueError("components live on different grids")
        object.__setattr__(self, "components", comps)

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean magnitude: the squares summed in component
        order into the first one, then its square root in place."""
        first, *rest = self.components
        acc = first.values * first.values
        for c in rest:
            acc += c.values * c.values
        return np.sqrt(acc, out=acc)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients on the frequency lattice, FFT ordering."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.shape != self.grid.spec.shape:
            raise ValueError(
                f"coefficients shape {c.shape} does not match grid "
                f"{self.grid.spec.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("spectral field contains NaN or Inf")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @classmethod
    def _own(cls, grid: Grid, coefficients: np.ndarray) -> "SpectralField":
        """The no-copy wrap of :meth:`ScalarField._own`, for complex128."""
        coefficients.flags.writeable = False
        return _frozen(cls, grid=grid, coefficients=coefficients)


def sample(f, grid: Grid) -> ScalarField:
    """Evaluate a pointwise function of position on the grid.

    ``f`` is called with one coordinate array per axis (numpy-vectorized);
    any non-finite result raises, naming an offending coordinate.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.asarray(f(*grid.coords()), dtype=np.float64)
    vals = np.broadcast_to(vals, grid.spec.shape).copy()
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        x = tuple(float(grid.axes[d][idx[d]]) for d in range(grid.spec.n))
        raise ValueError(f"sampled function is not finite at x = {x}")
    return ScalarField(grid, vals)


def forward_transform(u: ScalarField) -> SpectralField:
    """Discrete Fourier transform with continuum normalization h^n * FFT."""
    g = u.grid
    F = np.fft.fftn(u.values) * g.h**g.spec.n
    F = g._apply_phase(F, conj=False)
    return SpectralField._own(g, F)


def inverse_transform(F: SpectralField) -> ScalarField:
    """Inverse transform; asserts the imaginary residue is below IMAG_TOL."""
    g = F.grid
    C = g._apply_phase(F.coefficients, conj=True)
    out = np.fft.ifftn(C) / g.h**g.spec.n
    scale = float(np.max(np.abs(out)))
    if scale > 0.0:
        rel = float(np.max(np.abs(out.imag))) / scale
        if rel > IMAG_TOL:
            raise ValueError(
                f"imaginary residue {rel:.3e} exceeds {IMAG_TOL:.1e}; "
                "coefficients lack conjugate symmetry"
            )
    return ScalarField(g, out.real)


def bump(grid: Grid, center, radius: float, sharpness: float = 1.0) -> ScalarField:
    """Mollifier profile exp(-sharpness / (1 - |x-c|^2/r^2)), zero outside the ball.

    The ball must sit inside the box with a margin of at least one radius so
    nonlocal operators see a genuinely compactly supported function.
    """
    center = tuple(float(c) for c in np.atleast_1d(center))
    if len(center) != grid.spec.n:
        raise ValueError(f"center must have {grid.spec.n} entries")
    if not (np.all(np.isfinite(center)) and 0 < radius < np.inf and 0 < sharpness < np.inf):
        raise ValueError("need a finite center and a positive, finite radius and sharpness, "
                         f"got {center}, {radius}, {sharpness}")
    o, L = grid.spec.origin, grid.spec.L
    for d in range(grid.spec.n):
        if center[d] - 2 * radius < o[d] or center[d] + 2 * radius > o[d] + L:
            raise ValueError(
                "ball(center, radius) must lie inside the box with margin >= radius"
            )
    r2 = sum((x - c) ** 2 for x, c in zip(grid.sparse_coords(), center)) / radius**2
    vals = np.zeros(grid.spec.shape)
    inside = r2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        vals[inside] = np.exp(-sharpness / (1.0 - r2[inside]))
    return ScalarField(grid, vals)


def lp_norm(u, p: float, weight=None) -> float:
    """Weighted L^p norm (h^n * sum |u|^p w)^(1/p) for finite p > 1; w
    omitted means w == 1.

    Vector fields enter through their pointwise Euclidean magnitude.  The
    weight is a Weight on u's grid, checked when it was built, or a finite,
    non-negative array of u's shape.
    """
    if not (p > 1):
        raise ValueError(f"p must exceed 1, got {p}")
    if p == np.inf:
        raise ValueError(f"p must be finite, got {p}")
    # a fresh array either way, so the power and the weight go in place
    acc = u.magnitude() if isinstance(u, VectorField) else np.abs(u.values)
    g = u.grid
    acc **= p
    if weight is not None:
        if hasattr(weight, "grid"):
            if weight.grid != g:
                raise ValueError("weight lives on a different grid")
            wv = weight.values
        else:
            wv = np.asarray(weight, dtype=np.float64)
            if wv.shape != acc.shape:
                raise ValueError(f"weight shape {wv.shape} does not match field {acc.shape}")
            if not np.all((wv >= 0.0) & (wv < np.inf)):
                raise ValueError("weight array must be finite and non-negative")
        acc *= wv
    return float((g.h**g.spec.n * np.sum(acc)) ** (1.0 / p))


def remove_mean(u: ScalarField) -> ScalarField:
    """Subtract the grid mean (zero-frequency mode)."""
    return ScalarField(u.grid, u.values - np.mean(u.values))


# ---------------------------------------------------------------------------
# Serialization: a flat little-endian binary container and a CSV dump.
#
# Layout: int64 n | int64 N | float64 L | float64 origin[n] | float64 payload
# (row-major, N^n values).  Everything little-endian.
# ---------------------------------------------------------------------------


def write_field(u: ScalarField, path) -> None:
    spec = u.grid.spec
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qq", spec.n, spec.N))
        fh.write(struct.pack("<d", spec.L))
        fh.write(struct.pack(f"<{spec.n}d", *spec.origin))
        fh.write(u.values.astype("<f8").tobytes(order="C"))


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) < 24:
            raise ValueError(f"field header is cut short: {len(head)} of 24 bytes")
        n, N, L = struct.unpack("<qqd", head)
        if n not in (1, 2, 3):
            raise ValueError(f"field header gives dimension n = {n}, not 1, 2 or 3")
        raw = fh.read(8 * n)
        if len(raw) < 8 * n:
            raise ValueError(f"field header is cut short inside its {n} origin values")
        origin = struct.unpack(f"<{n}d", raw)
        payload = np.frombuffer(fh.read(), dtype="<f8")
    spec = GridSpec(n=int(n), N=int(N), L=float(L), origin=origin)
    if payload.size != N**n:
        raise ValueError(
            f"payload holds {payload.size} values, expected {N**n}"
        )
    return ScalarField(make_grid(spec), payload.reshape(spec.shape))


def field_to_csv(u: ScalarField, path) -> None:
    """Coordinates-then-value rows for external inspection."""
    g = u.grid
    coords = [c.ravel() for c in g.coords()]
    cols = np.column_stack(coords + [u.values.ravel()])
    header = ",".join([f"x{d+1}" for d in range(g.spec.n)] + ["value"])
    np.savetxt(path, cols, delimiter=",", header=header, comments="")
