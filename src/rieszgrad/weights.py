"""Muckenhoupt weights and their cube-family constants.

A weight is a strictly positive grid function together with a family
descriptor.  The A_p constant

    [w]_p = sup_Q (avg_Q w) (avg_Q w^(-1/(p-1)))^(p-1)

is estimated over dyadic cube families (plus half-shifted translates, the
standard three-lattice surrogate for the supremum over all cubes).  Cube
averages are grid quadrature restricted to the cube; any weight sample
coinciding with a singular point is evaluated at distance h/2 instead.

A family is compiled once per grid and kept on the family, keyed by the
grid's spec: its tilings (level by level, aligned cubes before half-shifted
ones), and along each axis a tiling's run of index ranges [lo, hi) of the
grid points inside its cubes, each tiling's shape and point counts, and its
offset in family order.  When, along every axis, every tiling cuts
contiguous blocks of one length, a power-of-two multiple of a common block,
starting a whole or a half block past the lowest start (a family whose box
and edges sit on the grid lattice), the plan also holds where each tiling
lies in a dyadic pyramid: the finest level sums the common blocks by a
reshape, each coarser aligned level adds pairs of the finer one along each
axis, and a half-shifted level adds pairs of the next finer aligned level
starting at its second block.  Every other family is summed one tiling at
a time along each axis in turn, contiguous blocks of one length by a
reshape and clipped or uneven ranges by ``np.add.reduceat``.

An estimate is then one pass: each array's cube sums, from its pyramid or
per tiling, are written into one flat array in family order, checked once,
and the term is evaluated once over every cube; one argmax gives the
family's first maximal cube.  A cube sum is a direct sum of positive
samples, accurate to rounding even for weights spanning many orders of
magnitude.  A cube whose sum is non-positive or non-finite, or whose term
is NaN, raises instead of dropping out of the supremum, naming the cube a
tiling-by-tiling sweep would meet first.

Distance weights take the squared distance to M one line of M at a time.
The points of M that share every coordinate but one axis form a line; along
that axis a binary search finds the nearest of them to each grid
coordinate, and the other axes' squares are added in axis order.  Rounded
subtraction, squaring and addition are monotone, so the minimum is bitwise
that of a per-point scan.

Power weights |x - x0|^alpha belong to A_p exactly for -n < alpha < n(p-1);
distance weights d(x, M)^alpha for a k-dimensional set M require
-(n-k) < alpha < (n-k)(p-1).  The constructors record that membership flag
so downstream checks can compare it with the estimator's divergence
behaviour.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

__all__ = [
    "Weight",
    "CubeFamily",
    "CubeEstimate",
    "power_weight",
    "distance_weight",
    "tabulated_weight",
    "dual_weight",
    "ap_constant",
    "apq_constant",
    "sawyer_wheeden_constant",
    "weighted_measure",
]


@dataclass(frozen=True, eq=False)
class Weight:
    """Strictly positive grid function with family metadata."""

    grid: Grid
    values: np.ndarray
    family: dict
    p: float
    in_class: bool | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.spec.shape:
            raise ValueError("weight shape does not match grid")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValueError("weight values must be finite and strictly positive")
        if not (1 < self.p < math.inf):
            raise ValueError(f"weight exponent p must be finite and exceed 1, got {self.p}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _nudged(dist: np.ndarray, h: float) -> np.ndarray:
    out = dist.copy()
    out[out == 0.0] = h / 2.0
    return out


def power_weight(grid: Grid, x0, alpha: float, p: float) -> Weight:
    """w(x) = |x - x0|^alpha; in A_p exactly when -n < alpha < n(p-1)."""
    x0 = tuple(float(c) for c in np.atleast_1d(x0))
    if len(x0) != grid.spec.n:
        raise ValueError(f"x0 must have {grid.spec.n} entries")
    if not all(math.isfinite(c) for c in x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    dist = np.sqrt(sum((x - c) ** 2 for x, c in zip(grid.sparse_coords(), x0)))
    vals = _nudged(dist, grid.h) ** alpha
    n = grid.spec.n
    member = -n < alpha < n * (p - 1.0)
    return Weight(
        grid,
        vals,
        family={"kind": "power", "x0": list(x0), "alpha": alpha},
        p=p,
        in_class=member,
    )


def _lines(pts: np.ndarray):
    """Split M into lines along one axis: the points sharing every coordinate
    but axis d, for the d giving the fewest lines.  Returns d, the shared
    coordinates per line, the coordinates along d, sorted within each line,
    and the bounds of the lines in them."""
    best = None
    for d in range(pts.shape[1]):
        rest = np.delete(pts, d, axis=1)
        # by the shared coordinates in axis order, then along d
        order = np.lexsort((pts[:, d],) + tuple(rest.T[::-1]))
        rest = rest[order]
        new = np.ones(len(rest), dtype=bool)
        new[1:] = (rest[1:] != rest[:-1]).any(axis=1)
        starts = np.flatnonzero(new)
        if best is None or len(starts) < len(best[2]):
            best = d, rest[starts], starts, pts[order, d]
    d, shared, starts, along = best
    return d, shared, along, np.append(starts, len(along))


def _nearest_squares(x: np.ndarray, along: np.ndarray, bounds: np.ndarray):
    """Per line, the points along[bounds[r]:bounds[r + 1]] (sorted), the
    minimum over its points q of (x - q)^2 per x.  The nearest q below and
    above x suffice, since rounded subtraction and squaring are monotone."""
    out = (x - along[bounds[:-1], None]) ** 2
    for r in np.flatnonzero(np.diff(bounds) > 1):
        q = along[bounds[r]:bounds[r + 1]]
        i = np.searchsorted(q, x)
        below = q[np.maximum(i - 1, 0)]
        above = q[np.minimum(i, len(q) - 1)]
        out[r] = np.minimum((x - below) ** 2, (x - above) ** 2)
    return out


#: grid points times lines of M summed at once, at most
_LINE_BATCH = 2**16


def distance_weight(
    grid: Grid, points, alpha: float, p: float, manifold_dim: int = 0
) -> Weight:
    """w(x) = d(x, M)^alpha for a point-sampled set M of declared dimension k.

    The squared distance is taken per line of M (see the module docstring),
    a batch of lines at a time, and folded into a running minimum, bitwise
    what a per-point scan gives.  A segment or flat costs two grid passes
    per line (a sum and a minimum) instead of three per point; scattered
    points form lines of one point."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        raise ValueError("point set M must be nonempty")
    if pts.shape[1] != grid.spec.n:
        raise ValueError(f"points must have {grid.spec.n} coordinates")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points of M must be finite")
    k = int(manifold_dim)
    if not (0 <= k < grid.spec.n):
        raise ValueError(f"manifold dimension must be in [0, {grid.spec.n})")
    axes = grid.sparse_coords()
    d, shared, along, bounds = _lines(pts)
    sq = np.full(grid.spec.shape, np.inf)
    batch = max(1, _LINE_BATCH // sq.size)
    buf = np.empty((min(batch, len(shared)),) + sq.shape)
    for r in range(0, len(shared), batch):
        # a batch of lines at once: per line, each axis's squares, summed in
        # axis order over the grid, then the minimum over the lines
        rest = iter(shared[r:r + batch].T)
        terms = []
        for j, ax in enumerate(axes):
            x = ax.reshape(-1)
            if j == d:
                t = _nearest_squares(x, along, bounds[r:r + batch + 1])
            else:
                t = (x - next(rest)[:, None]) ** 2
            terms.append(t.reshape((-1,) + ax.shape))
        total = terms[0]
        for t in terms[1:-1]:
            total = total + t
        if len(terms) > 1:
            total = np.add(total, terms[-1], out=buf[:len(total)])
        np.minimum(sq, total[0] if len(total) == 1 else total.min(axis=0), out=sq)
    vals = _nudged(np.sqrt(sq), grid.h) ** alpha
    codim = grid.spec.n - k
    member = -codim < alpha < codim * (p - 1.0)
    return Weight(
        grid,
        vals,
        family={"kind": "distance", "alpha": alpha, "manifold_dim": k},
        p=p,
        in_class=member,
    )


def _check_p(p: float) -> None:
    if not (1 < p < math.inf):
        raise ValueError(f"p must be finite and exceed 1, got {p}")


def _check_pq(p: float, q: float) -> None:
    for name, value in (("p", p), ("q", q)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (1 < p < q):
        raise ValueError(f"need 1 < p < q, got p={p}, q={q}")


def tabulated_weight(grid: Grid, values, p: float) -> Weight:
    return Weight(grid, values, family={"kind": "tabulated"}, p=p, in_class=None)


def dual_weight(w: Weight, p: float | None = None) -> Weight:
    """w* = w^(-1/(p-1)), analyzed against the dual exponent p' = p/(p-1)."""
    p = w.p if p is None else float(p)
    _check_p(p)
    vals = w.values ** (-1.0 / (p - 1.0))
    return Weight(
        w.grid,
        vals,
        family={"kind": "tabulated", "dual_of": w.family},
        p=p / (p - 1.0),
        in_class=w.in_class,
    )


@dataclass(frozen=True)
class CubeFamily:
    """Dyadic subcubes of a bounding box over a level range, plus the
    half-shifted translates (shifted cubes that exit the grid are dropped)."""

    lo: tuple[float, ...]
    size: float
    level_min: int = 0
    level_max: int = 4
    shifted: bool = True
    #: the family compiled per grid (see _compile_family), keyed by GridSpec
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo = tuple(float(c) for c in self.lo)
        if not all(math.isfinite(c) for c in lo):
            raise ValueError(f"lo must be finite, got {lo}")
        if not math.isfinite(self.size):
            raise ValueError(f"size must be finite, got {self.size}")
        if self.size <= 0:
            raise ValueError("bounding box edge must be positive")
        for name in ("level_min", "level_max"):
            level = getattr(self, name)
            if isinstance(level, bool) or not isinstance(level, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {level!r}")
            object.__setattr__(self, name, int(level))
        if not (0 <= self.level_min <= self.level_max):
            raise ValueError("need 0 <= level_min <= level_max")
        object.__setattr__(self, "lo", lo)

    def tilings(self, grid: Grid):
        """Yield (edge, corners) per tiling, in family order: level by level,
        aligned cubes before half-shifted ones.  ``corners[d]`` holds the
        cube corners along axis d; the tiling is their product in C order."""
        n = len(self.lo)
        if n != grid.spec.n:
            raise ValueError("cube family dimension does not match grid")
        gl = grid.spec.origin
        gh = tuple(o + grid.spec.L for o in gl)
        tol = 1e-9 * grid.spec.L
        for d in range(n):
            if self.lo[d] < gl[d] - tol or self.lo[d] + self.size > gh[d] + tol:
                raise ValueError("bounding box must lie inside the grid box")
        for lev in range(self.level_min, self.level_max + 1):
            idx = np.arange(2**lev)
            edge = self.size / 2**lev
            yield edge, [self.lo[d] + idx * edge for d in range(n)]
            if self.shifted:
                corners = []
                for d in range(n):
                    c = self.lo[d] + (idx + 0.5) * edge
                    corners.append(c[(c >= gl[d] - tol) & (c + edge <= gh[d] + tol)])
                yield edge, corners

    def cubes(self, grid: Grid):
        """All (corner, edge) cubes of the family lying inside the grid box."""
        return [
            (corner, edge)
            for edge, corners in self.tilings(grid)
            for corner in itertools.product(*(c.tolist() for c in corners))
        ]

    def _plan(self, grid: Grid) -> _FamilyPlan:
        """The family compiled for grid, on first use per GridSpec: the
        family is frozen and its tilings depend on the grid's spec only."""
        plan = self._plans.get(grid.spec)
        if plan is None:
            plan = self._plans[grid.spec] = _compile_family(grid, self)
        return plan

    def describe(self) -> dict:
        return {
            "lo": list(self.lo),
            "size": self.size,
            "levels": [self.level_min, self.level_max],
            "shifted": self.shifted,
        }


@dataclass(frozen=True)
class CubeEstimate:
    """Supremum estimate over a cube family, with provenance."""

    value: float
    argmax_cube: tuple | None
    family: dict
    params: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        cube = None
        if self.argmax_cube is not None:
            cube = {"corner": list(self.argmax_cube[0]), "edge": self.argmax_cube[1]}
        return {
            "constant": self.value,
            "argmax_cube": cube,
            "cube_family": self.family,
            **self.params,
        }


def _axis_ranges(grid: Grid, axis: int, corners: np.ndarray, edge: float):
    """Half-open index ranges [lo, hi) of the grid points inside the cubes
    [corner, corner + edge) along one axis, clipped to the grid."""
    h = grid.h
    tol = 1e-9 * h
    o = grid.spec.origin[axis]
    lo = np.ceil((corners - o) / h - tol).astype(np.intp)
    hi = np.ceil((corners + edge - o) / h - tol).astype(np.intp)
    return np.maximum(lo, 0), np.minimum(hi, grid.spec.N)


def _cube_at(corners, flat: int, edge: float):
    """The (corner, edge) cube at a C-order index of a tiling."""
    at = np.unravel_index(flat, tuple(len(c) for c in corners))
    return tuple(float(c[i]) for c, i in zip(corners, at)), edge


def _axis_sums(a: np.ndarray, axis: int, lo: np.ndarray, hi: np.ndarray):
    """Sums of a over the index ranges [lo_k, hi_k) along one axis."""
    k, b = len(lo), int(hi[0] - lo[0])
    if np.all(hi - lo == b) and np.all(lo[1:] == hi[:-1]):
        # contiguous blocks of one length: a reshape and a sum, several times
        # faster than reduceat along a leading axis
        block = a[(slice(None),) * axis + (slice(lo[0], lo[0] + k * b),)]
        shape = a.shape[:axis] + (k, b) + a.shape[axis + 1:]
        return block.reshape(shape).sum(axis + 1)
    # reduceat segment 2k sums [lo_k, hi_k); odd segments are discarded, and
    # a last range ending at the end of the axis is that end's own segment
    bounds = np.stack([lo, hi], axis=1).ravel()
    if hi[-1] == a.shape[axis]:
        bounds = bounds[:-1]
    a = np.add.reduceat(a, bounds, axis=axis)
    return a[(slice(None),) * axis + (slice(None, None, 2),)]


def _tilings(grid: Grid, cubes: CubeFamily):
    """The family's tilings in family order as (edge, corners, ranges): per
    axis the corners and index ranges of the cubes holding a grid point.
    A tiling with no such cube along some axis is left out.  The ranges of
    every tiling are found at once per axis."""
    tilings = list(cubes.tilings(grid))
    edges = [edge for edge, _ in tilings]
    per_axis = []
    for d in range(grid.spec.n):
        corners = [c[d] for _, c in tilings]
        sizes = [len(c) for c in corners]
        c = np.concatenate(corners)
        lo, hi = _axis_ranges(grid, d, c, np.repeat(edges, sizes))
        keep = hi > lo
        c, lo, hi = c[keep], lo[keep], hi[keep]
        # the kept cubes of tiling t are entries cut[t]:cut[t + 1]
        cut = np.cumsum(np.r_[0, keep])[np.cumsum([0] + sizes)].tolist()
        per_axis.append([(c[a:b], lo[a:b], hi[a:b]) for a, b in zip(cut, cut[1:])])
    out = []
    for edge, axes in zip(edges, zip(*per_axis)):
        if all(len(c) for c, _, _ in axes):
            out.append((edge, [c for c, _, _ in axes], [(lo, hi) for _, lo, hi in axes]))
    return out


def _along(axis: int, sl: slice):
    return (slice(None),) * axis + (sl,)


def _pyramid_plan(tilings):
    """Where each tiling's cube sums lie in a dyadic pyramid, or None.

    Along axis d the pyramid's level j sums blocks of beta_d * 2^j points
    from s_d on, s_d being the lowest first index of any tiling.  A tiling
    is read from it when, along every axis, its ranges are contiguous blocks
    of one length b = beta_d * 2^j, for one j on all axes, whose first block
    starts a multiple of b past s_d (a slice of level j) or a multiple of
    b/2 (pairs of level j - 1); beta_d is the gcd of the lengths and of the
    offsets.  Returns the base (s_d, beta_d, block count) per axis and, per
    tiling, (level, paired, first block per axis)."""
    base, blocks, offsets = [], [], []
    for d in range(len(tilings[0][2])):
        # every tiling's ranges along axis d at once
        sizes = [len(r[d][0]) for _, _, r in tilings]
        lo = np.concatenate([r[d][0] for _, _, r in tilings])
        hi = np.concatenate([r[d][1] for _, _, r in tilings])
        first = np.cumsum([0] + sizes[:-1])
        b = hi[first] - lo[first]
        gaps = lo[1:] != hi[:-1]
        gaps[first[1:] - 1] = False
        if (hi - lo != np.repeat(b, sizes)).any() or gaps.any():
            return None
        s = int(lo[first].min())
        b, off = b.tolist(), (lo[first] - s).tolist()
        beta = math.gcd(*b, *off)
        end = int(hi[first + sizes - 1].max())
        base.append((s, beta, (end - s) // beta))
        blocks.append(b)
        offsets.append(off)
    reads = []
    for t in range(len(tilings)):
        kinds, firsts = set(), []
        for bs, offs, (s, beta, _) in zip(blocks, offsets, base):
            b, off = bs[t], offs[t]
            j = (b // beta).bit_length() - 1
            if b != beta << j:
                return None
            if off % b == 0:
                kinds.add((j, False))
                firsts.append(off // b)
            elif j > 0 and off % (b // 2) == 0:
                kinds.add((j - 1, True))
                firsts.append(off // (b // 2))
            else:
                return None
        if len(kinds) != 1:
            return None
        reads.append((*kinds.pop(), firsts))
    return base, reads


def _pyramid(a: np.ndarray, base, depth: int):
    """Levels 0..depth of a's dyadic pyramid (see _pyramid_plan): level 0
    sums blocks of beta_d points along each axis by a reshape (a view when
    every block is one point), each next level adds pairs of the one before
    along each axis."""
    x = a[tuple(slice(s, s + k * beta) for s, beta, k in base)]
    for d, (_, beta, k) in enumerate(base):
        if beta > 1:
            x = x.reshape(x.shape[:d] + (k, beta) + x.shape[d + 1:]).sum(d + 1)
    levels = [x]
    for _ in range(depth):
        for d in range(x.ndim):
            m = x.shape[d] // 2 * 2
            x = x[_along(d, slice(0, m, 2))] + x[_along(d, slice(1, m, 2))]
        levels.append(x)
    return levels


def _pyramid_sums(levels, read, out: np.ndarray) -> None:
    """Write one tiling's cube sums from a pyramid into out (shaped like the
    tiling): a slice of an aligned level, or pairs of it from the first
    block on along each axis."""
    level, paired, firsts = read
    x = levels[level]
    if not paired:
        out[...] = x[tuple(slice(i, i + k) for i, k in zip(firsts, out.shape))]
        return
    last = out.ndim - 1
    for d, (i, k) in enumerate(zip(firsts, out.shape)):
        x = np.add(x[_along(d, slice(i, i + 2 * k, 2))],
                   x[_along(d, slice(i + 1, i + 2 * k, 2))],
                   out=out if d == last else None)


@dataclass(frozen=True, eq=False)
class _FamilyPlan:
    """A cube family compiled for one grid (see _compile_family).

    Per tiling, in family order: the edge, the kept corners per axis, the
    shape (cubes per axis) and the flat offset of its first cube, with the
    family's cube count as the last offset.  An on-lattice family keeps its
    pyramid base, depth and per-tiling reads (see _pyramid_plan), and
    ``points`` holds one point count per tiling; any other family keeps its
    per-axis index ranges, and ``points`` holds the point count of every
    cube."""

    edges: list
    corners: list
    shapes: list
    offsets: list
    points: np.ndarray
    base: list | None = None
    depth: int = 0
    reads: list | None = None
    ranges: list | None = None

    def sums(self, a: np.ndarray) -> np.ndarray:
        """Every cube's sum of a, in family order, written into one array."""
        out = np.empty(self.offsets[-1])
        slots = [out[lo:hi].reshape(shape) for lo, hi, shape
                 in zip(self.offsets, self.offsets[1:], self.shapes)]
        if self.reads is not None:
            levels = _pyramid(a, self.base, self.depth)
            for read, slot in zip(self.reads, slots):
                _pyramid_sums(levels, read, slot)
        else:
            for ranges, slot in zip(self.ranges, slots):
                x = a
                for d, (lo, hi) in enumerate(ranges):
                    x = _axis_sums(x, d, lo, hi)
                slot[...] = x
        return out

    def counts(self) -> np.ndarray:
        """The grid points in each cube, in family order."""
        if self.reads is None:
            return self.points
        return np.repeat(self.points, np.diff(self.offsets))

    def factors(self, edge_factor) -> np.ndarray:
        """edge_factor(edge) per cube, in family order, called once per
        tiling on its Python float edge."""
        return np.repeat([edge_factor(e) for e in self.edges], np.diff(self.offsets))

    def tiling(self, k: int) -> int:
        """The tiling holding flat cube k."""
        return bisect.bisect_right(self.offsets, k) - 1

    def cube(self, t: int, k: int):
        """The (corner, edge) cube at index k of tiling t."""
        return _cube_at(self.corners[t], k, self.edges[t])


def _compile_family(grid: Grid, cubes: CubeFamily) -> _FamilyPlan:
    """Everything about a family's cubes that depends on the grid alone."""
    tilings = _tilings(grid, cubes)
    if not tilings:
        raise ValueError("no cube in the family contains a grid point")
    shapes = [tuple(len(lo) for lo, _ in ranges) for _, _, ranges in tilings]
    offsets = [0, *itertools.accumulate(math.prod(shape) for shape in shapes)]
    edges = [edge for edge, _, _ in tilings]
    corners = [kept for _, kept, _ in tilings]
    pyramid = _pyramid_plan(tilings)
    if pyramid is not None:
        base, reads = pyramid
        # every cube of a tiling holds the points of its first
        points = np.array([math.prod(int(hi[0] - lo[0]) for lo, hi in ranges)
                           for _, _, ranges in tilings])
        return _FamilyPlan(edges, corners, shapes, offsets, points, base=base,
                           depth=max(level for level, _, _ in reads), reads=reads)
    points = []
    for _, _, ranges in tilings:
        count = 1
        for lo, hi in ranges:
            count = np.multiply.outer(count, hi - lo)
        points.append(count.ravel())
    ranges = [ranges for _, _, ranges in tilings]
    return _FamilyPlan(edges, corners, shapes, offsets, np.concatenate(points),
                       ranges=ranges)


def _first_bad(a: np.ndarray) -> int | None:
    """The index of a's first non-positive or non-finite entry, or None."""
    if a.min() > 0.0 and a.max() < np.inf:
        return None
    return int(np.argmax(~((a > 0.0) & (a < np.inf))))


def _family_sup(grid: Grid, arrays, term, cubes: CubeFamily, edge_factor=None):
    """Maximize term(count, sums, factor) over the family in one pass.

    The family's plan for the grid is compiled once and kept (see
    CubeFamily._plan).  Each array's cube sums are written into one flat
    array in family order, from one dyadic pyramid per array when the
    family allows it; arrays is iterated once, so an array a generator
    yields is freed once its sums are taken.  count holds each cube's grid
    points, and factor each cube's edge_factor(edge) (None without one).
    term is called once, and one argmax picks the first maximal cube of the
    family.  A non-positive or non-finite sum or a NaN term raises, naming
    the cube a tiling-by-tiling sweep meets first: the first failing tiling,
    its arrays in order, then its term."""
    plan = cubes._plan(grid)
    sums = [plan.sums(a) for a in arrays]
    count = plan.counts()
    factor = None if edge_factor is None else plan.factors(edge_factor)
    bad = [k for k in map(_first_bad, sums) if k is not None]
    if not bad:
        vals = term(count, sums, factor)
        k = int(np.argmax(vals))  # the first NaN, if there is one
        t = plan.tiling(k)
        if not np.isnan(vals[k]):
            return vals[k], plan.cube(t, k - plan.offsets[t])
    else:
        # the first tiling with a bad sum, unless a NaN term comes before it
        t = plan.tiling(min(bad))
        stop = plan.offsets[t]
        vals = term(count[:stop], [a[:stop] for a in sums],
                    None if factor is None else factor[:stop])
        nan = np.flatnonzero(np.isnan(vals))
        if nan.size:
            t = plan.tiling(int(nan[0]))
    # replay tiling t's checks in sweep order: sums array by array, then term
    sl = slice(plan.offsets[t], plan.offsets[t + 1])
    for a in sums:
        k = _first_bad(a[sl])
        if k is not None:
            raise ValueError(f"cube {plan.cube(t, k)} has "
                             f"non-positive or non-finite sum {a[sl][k]}")
    vals = term(count[sl], [a[sl] for a in sums], None if factor is None else factor[sl])
    raise ValueError(f"cube {plan.cube(t, int(np.argmax(vals)))} gives a NaN term")


def _estimate(grid: Grid, arrays, term, cubes: CubeFamily, params=None,
              edge_factor=None) -> CubeEstimate:
    """The family supremum of term (see _family_sup) with its provenance."""
    val, cube = _family_sup(grid, arrays, term, cubes, edge_factor)
    return CubeEstimate(float(val), cube, cubes.describe(), params or {})


def _two_average(w: Weight, expo: float, power: float, cubes: CubeFamily, params):
    """sup_Q (avg_Q w)(avg_Q w^expo)^power over the family."""

    def term(count, sums, factor):
        # (sums[0] / count) * (sums[1] / count) ** power, one temporary fewer
        out = sums[1] / count
        out **= power
        out *= sums[0] / count
        return out

    def arrays():  # w^expo is freed once its sums are taken
        yield w.values
        yield w.values**expo

    return _estimate(w.grid, arrays(), term, cubes, {"family": w.family, **params})


def ap_constant(w: Weight, p: float, cubes: CubeFamily) -> CubeEstimate:
    """Estimate [w]_p = sup_Q (avg_Q w)(avg_Q w^(-1/(p-1)))^(p-1)."""
    _check_p(p)
    return _two_average(w, -1.0 / (p - 1.0), p - 1.0, cubes, {"p": p})


def apq_constant(w: Weight, p: float, q: float, cubes: CubeFamily) -> CubeEstimate:
    """Estimate [w]_{p,q} = sup_Q (avg_Q w)(avg_Q w^(-p'/q))^(q/p')."""
    _check_pq(p, q)
    pprime = p / (p - 1.0)
    return _two_average(w, -pprime / q, q / pprime, cubes, {"p": p, "q": q})


def sawyer_wheeden_constant(
    v: Weight, w: Weight, s: float, p: float, q: float, cubes: CubeFamily
) -> dict:
    """Two-weight Riesz-potential condition
    sup_Q |Q|^(s/n-1) (int_Q v)^(1/q) (int_Q w*)^(1/p'), w* = w^(-1/(p-1)).

    When v and w share values, also reports the equivalent single-weight
    quantity sup_Q |Q|^(s/n) w(Q)^(1/q-1/p).
    """
    grid = v.grid
    n = grid.spec.n
    if not (0.0 < s < n):
        raise ValueError(f"need 0 < s < n, got s={s}")
    _check_pq(p, q)
    if w.grid != grid:
        raise ValueError("weights live on different grids")
    pprime = p / (p - 1.0)
    hn = grid.h**n

    def arrays():  # w* is freed once its sums are taken
        yield v.values
        yield w.values ** (-1.0 / (p - 1.0))

    # |Q|^(s/n-1) and |Q|^(s/n) come as factors, one Python float per edge:
    # numpy's power of an array may round otherwise
    def term(count, sums, factor):
        return factor * (hn * sums[0]) ** (1.0 / q) * (hn * sums[1]) ** (1.0 / pprime)

    record = _estimate(grid, arrays(), term, cubes, {"s": s, "p": p, "q": q},
                       edge_factor=lambda edge: (edge**n) ** (s / n - 1.0)).to_record()
    if v.values.shape == w.values.shape and np.array_equal(v.values, w.values):

        def single(count, sums, factor):
            return factor * (hn * sums[0]) ** (1.0 / q - 1.0 / p)

        one = _estimate(grid, [w.values], single, cubes,
                        edge_factor=lambda edge: (edge**n) ** (s / n)).to_record()
        record["single_weight_constant"] = one["constant"]
        record["single_weight_argmax"] = one["argmax_cube"]
    return record


def weighted_measure(w: Weight, region) -> float:
    """w(U) = grid quadrature of w over U (a (corner, edge) cube or a mask)."""
    grid = w.grid
    hn = grid.h**grid.spec.n
    if isinstance(region, np.ndarray) and region.dtype == bool:
        if region.shape != grid.spec.shape:
            raise ValueError("mask shape does not match grid")
        return float(hn * np.sum(w.values[region]))
    corner, edge = region
    corner = np.atleast_1d(np.asarray(corner, dtype=np.float64))
    if corner.shape != (grid.spec.n,):
        raise ValueError(f"cube corner must have {grid.spec.n} entries, "
                         f"got {corner.size}")
    if not np.all(np.isfinite(corner)):
        raise ValueError(f"cube corner must be finite, got {corner.tolist()}")
    if not (0.0 < edge < math.inf):
        raise ValueError(f"cube edge must be finite and positive, got {edge}")
    sl = []
    for d in range(grid.spec.n):
        lo, hi = _axis_ranges(grid, d, corner[d], edge)
        if hi <= lo:
            return 0.0
        sl.append(slice(int(lo), int(hi)))
    return float(hn * np.sum(w.values[tuple(sl)]))
