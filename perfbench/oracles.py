"""Reference computations made apart from rieszgrad.

Nothing here imports rieszgrad.  Symbols are written out from their
definitions, field files are parsed from the documented byte layout, cube
sums are direct ``np.add.reduceat`` sums over each tiling, and the p = 2
Poincare eigenvalue comes from a dense generalized eigensolve.
"""

from __future__ import annotations

import struct

import numpy as np

TWO_PI = 2.0 * np.pi


def coords(n: int, N: int, L: float, origin) -> list[np.ndarray]:
    h = L / N
    axes = [origin[d] + h * np.arange(N) for d in range(n)]
    return np.meshgrid(*axes, indexing="ij")


def bump_values(n, N, L, origin, center, radius, sharpness) -> np.ndarray:
    """exp(-sharpness / (1 - |x-c|^2/r^2)) inside the ball, 0 outside."""
    X = coords(n, N, L, origin)
    r2 = sum((x - c) ** 2 for x, c in zip(X, center)) / radius**2
    out = np.zeros((N,) * n)
    inside = r2 < 1.0
    out[inside] = np.exp(-sharpness / (1.0 - r2[inside]))
    return out


def read_field_bin(path):
    """Parse ``int64 n | int64 N | float64 L | float64 origin[n] | payload``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    n, N = struct.unpack_from("<qq", blob, 0)
    (L,) = struct.unpack_from("<d", blob, 16)
    origin = struct.unpack_from(f"<{n}d", blob, 24)
    payload = np.frombuffer(blob, dtype="<f8", offset=24 + 8 * n)
    if payload.size != N**n:
        raise ValueError(f"{path}: payload has {payload.size} values, expected {N**n}")
    return n, N, L, origin, payload.reshape((N,) * n)


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm((a - b).ravel()) / np.linalg.norm(b.ravel()))


# ---------------------------------------------------------------------------
# Single Fourier modes: u = A cos(2 pi xi.x + phi) with xi = k / L.
# ---------------------------------------------------------------------------


def mode_field(X, xi, amp, phase):
    theta = TWO_PI * sum(x * k for x, k in zip(X, xi)) + phase
    return amp * np.cos(theta), amp * np.sin(theta)


def mode_expected(op: str, X, xi, amps, phase, order=None, comp=None):
    """Closed-form image of a single mode under operator ``op``.

    For a real multiplier m(xi) (even) the image of A cos(theta) is
    m A cos(theta); for an imaginary one, m = i b with b odd, it is
    -b A sin(theta).  ``amps`` is one amplitude, or one per component for
    the divergence kinds (the vector field (A_j cos(theta))_j).
    """
    xi = np.asarray(xi, dtype=float)
    r = TWO_PI * float(np.sqrt(np.sum(xi * xi)))
    c, s = mode_field(X, xi, 1.0, phase)
    if op == "riesz_gradient":
        return [-amps * TWO_PI * xi[j] * r ** (order - 1.0) * s for j in range(len(xi))]
    if op == "spectral_gradient":
        return [-amps * TWO_PI * xi[j] * s for j in range(len(xi))]
    if op == "fractional_divergence":
        return -sum(a * TWO_PI * xi[j] for j, a in enumerate(amps)) * r ** (order - 1.0) * s
    if op == "spectral_divergence":
        return -sum(a * TWO_PI * xi[j] for j, a in enumerate(amps)) * s
    if op == "riesz_transform":
        return amps * xi[comp] / float(np.sqrt(np.sum(xi * xi))) * s
    scalar = {
        "riesz_potential": lambda: r ** (-order),
        "bessel_potential": lambda: (1.0 + r * r) ** (-order / 2.0),
        "fractional_laplacian": lambda: r**order,
        "ts_multiplier": lambda: r**order / (1.0 + r * r) ** (order / 2.0),
        "gs_multiplier": lambda: (1.0 + r * r) ** (order / 2.0) / (1.0 + r**order),
    }[op]()
    return amps * scalar * c


def max_rel_err(got: list[np.ndarray], want: list[np.ndarray]) -> float:
    scale = max(float(np.max(np.abs(w))) for w in want)
    return max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) / scale


# ---------------------------------------------------------------------------
# Riesz gradient on the lattice, from its definition.
# ---------------------------------------------------------------------------


def grad_symbols(n: int, N: int, L: float, s: float) -> list[np.ndarray]:
    """2 pi i xi_j / |2 pi xi|^(1-s); 0 at xi = 0 and on the j-th Nyquist plane."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    K = np.meshgrid(*([k] * n), indexing="ij")
    xi = [kk / L for kk in K]
    norm = np.sqrt(sum(x * x for x in xi))
    safe = np.where(norm == 0.0, 1.0, norm)
    syms = []
    for j in range(n):
        m = 1j * TWO_PI * xi[j] / (TWO_PI * safe) ** (1.0 - s)
        m[norm == 0.0] = 0.0
        m[K[j] == -N // 2] = 0.0
        syms.append(m)
    return syms


def riesz_grad(u: np.ndarray, syms) -> list[np.ndarray]:
    F = np.fft.fftn(u)
    return [np.fft.ifftn(m * F).real for m in syms]


def weighted_lp(values, p: float, w: np.ndarray | None, hn: float) -> float:
    acc = np.abs(values) ** p
    if w is not None:
        acc = acc * w
    return float((hn * np.sum(acc)) ** (1.0 / p))


def poincare_ratio_max(family, mask, s, p, w, n, N, L) -> float:
    """max over u in the family (restricted to Omega) of
    ||u||_{L^p_w} / ||grad^s u||_{L^p_w}."""
    syms = grad_symbols(n, N, L, s)
    hn = (L / N) ** n
    best = 0.0
    for u in family:
        ui = np.where(mask, u, 0.0)
        g = riesz_grad(ui, syms)
        mag = np.sqrt(sum(c * c for c in g))
        gn = weighted_lp(mag, p, w, hn)
        if gn > 0.0:
            best = max(best, weighted_lp(ui, p, w, hn) / gn)
    return best


def poincare_eigenvalue(n, N, L, mask, s, w: np.ndarray | None) -> float:
    """Smallest lambda of -div^s(w grad^s u) = lambda w u over interior u.

    Each gradient component is the circulant G_j = F^-1 diag(m_j) F, whose
    column for lattice point b is the kernel g_j = ifftn(m_j) rolled to b.
    With m_j imaginary and odd, G_j^T = -G_j, so the interior operator is
    K = sum_j G_j[:, I]^T W G_j[:, I].
    """
    wv = np.ones((N,) * n) if w is None else w
    interior = np.argwhere(mask)
    kernels = [np.fft.ifftn(m).real for m in grad_symbols(n, N, L, s)]
    sqrt_w = np.sqrt(wv).ravel()
    K = np.zeros((len(interior), len(interior)))
    for g in kernels:
        cols = np.stack(
            [np.roll(g, tuple(int(i) for i in b), axis=tuple(range(n))).ravel()
             for b in interior],
            axis=1,
        )
        cols *= sqrt_w[:, None]
        K += cols.T @ cols
    wi = wv[tuple(interior.T)]
    scale = 1.0 / np.sqrt(wi)
    return float(np.linalg.eigvalsh(K * scale[:, None] * scale[None, :])[0])


# ---------------------------------------------------------------------------
# Cube families: direct sums over the aligned and half-shifted tilings.
# ---------------------------------------------------------------------------


def _tile_sums(a: np.ndarray, block: int, offset: int) -> np.ndarray:
    """Sums over the blocks [offset + i*block, offset + (i+1)*block) of every
    axis that fit inside the array."""
    count = (a.shape[0] - offset) // block
    starts = block * np.arange(count)
    for axis in range(a.ndim):
        window = [slice(None)] * a.ndim
        window[axis] = slice(offset, offset + count * block)
        a = np.add.reduceat(a[tuple(window)], starts, axis=axis)
    return a


def family_sup(arrays, term, L: float, level_min: int, level_max: int) -> float:
    """sup of term(point count, [cube sums], edge) over the dyadic family of
    the whole grid box.

    Level l cuts each axis into blocks of N / 2^l points; the half-shifted
    tiling starts half a block in and drops the cube that would leave the
    box.
    """
    n = arrays[0].ndim
    N = arrays[0].shape[0]
    best = -np.inf
    for lev in range(level_min, level_max + 1):
        block = N >> lev
        if block < 2:
            raise ValueError("level finer than half the grid")
        for offset in (0, block // 2):
            if (N - offset) // block == 0:
                continue
            sums = [_tile_sums(a, block, offset) for a in arrays]
            best = max(best, float(np.max(term(block**n, sums, L / 2**lev))))
    return best


def ap_closed_form(alpha: float, p: float) -> float:
    """[|x|^alpha]_{A_p} in 1D over intervals with an endpoint at 0."""
    return (1.0 / (1.0 + alpha)) * (1.0 - alpha / (p - 1.0)) ** (-(p - 1.0))
