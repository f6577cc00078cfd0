"""Muckenhoupt weights and their cube-family constants.

A weight is a strictly positive grid function together with a family
descriptor.  The A_p constant

    [w]_p = sup_Q (avg_Q w) (avg_Q w^(-1/(p-1)))^(p-1)

is estimated over dyadic cube families (plus half-shifted translates, the
standard three-lattice surrogate for the supremum over all cubes).  Cube
averages are grid quadrature restricted to the cube; any weight sample
coinciding with a singular point is evaluated at distance h/2 instead.

A family is compiled once per grid and kept on the family, keyed by the
grid's spec, and every family is summed from one dyadic pyramid per array.
Its base is the level-B blocks from the box's lower corner, B the finest
level a tiling reads (the last level, or the one after it with
half-shifted cubes) but never finer than the first level whose edge is
<= h, so the base holds at most 2^n times the grid's points.  Along
each axis the base sums its blocks by a reshape when they share one length
and by ``np.add.reduceat`` over the non-empty ones otherwise (an empty
block holds 0), and each coarser level adds pairs of the one below.  An
aligned tiling of level j reads a slice of pyramid level j, and a
half-shifted one pairs of level j + 1 starting at its second block.  A
tiling whose edge is <= h keeps only the cubes holding a grid point and
reads, per axis, the base block holding it.  The plan also holds each
tiling's kept corners, shape and offset in family order, and each cube's
point count.

An estimate is then one pass: each array's cube sums are read from its
pyramid into one flat array in family order, checked once, and the term
is evaluated once over every cube; one argmax gives the family's first
maximal cube.  A cube sum is a direct sum of positive samples, accurate
to rounding even for weights spanning many orders of magnitude.  A cube
whose sum is non-positive or non-finite, or whose term is NaN, raises
instead of dropping out of the supremum, naming the cube a
tiling-by-tiling sweep would meet first.

An estimate reads each grid value once and allocates no full-grid array
besides the weight, which a constructor that has just built it keeps
without a copy.  A level that an aligned tiling reads whole (unpaired,
every selection a full slice, the level's shape its own) is built by its
last axis pass straight into that tiling's slot of the flat array.
Level 0 is formed one slab of whole axis-0 planes at a time (at most
_SLAB grid points, and one block more for the pairs across its end): the
slab's w^expo, its base blocks, its level-0 reads (the pairs of the
shifted finest tiling) and its part of level 1.  So the working set is
the weight, the flat sums arrays, levels 1 and up (most of them in their
slots) and one slab.

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

from .grid import Grid, _frozen

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


def _positive(a: np.ndarray) -> bool:
    """Whether every entry of a is finite and strictly positive (a NaN is
    not), from two reductions and no temporary array."""
    return a.min() > 0.0 and a.max() < np.inf


def _check_weight(values: np.ndarray, p: float) -> None:
    if not _positive(values):
        raise ValueError("weight values must be finite and strictly positive")
    _check_p(p)


@dataclass(frozen=True, eq=False)
class Weight:
    """Strictly positive grid function with family metadata.  The values are
    read-only; the public constructor copies the caller's array."""

    grid: Grid
    values: np.ndarray
    family: dict
    p: float
    in_class: bool | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if np.iscomplexobj(v):
            raise ValueError(f"weight values must be real, got dtype {v.dtype}")
        if v.shape != self.grid.spec.shape:
            raise ValueError("weight shape does not match grid")
        v = v.astype(np.float64)
        _check_weight(v, self.p)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _own(cls, grid: Grid, values: np.ndarray, family: dict, p: float,
             in_class: bool | None) -> Weight:
        """Wrap a float64 array of the grid's shape that the library has just
        built and holds no other reference to.  It is checked as the public
        constructor checks it and marked read-only in place, not copied."""
        _check_weight(values, p)
        values.flags.writeable = False
        return _frozen(cls, grid=grid, values=values, family=family, p=p,
                       in_class=in_class)


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def _distance_power(sq: np.ndarray, zero, h: float, alpha: float) -> np.ndarray:
    """The squared distances sq become distance^alpha in place, the zero
    distances (sq[zero]) taken as h/2."""
    np.sqrt(sq, out=sq)
    sq[zero] = h / 2.0
    sq **= alpha
    return sq


def power_weight(grid: Grid, x0, alpha: float, p: float) -> Weight:
    """w(x) = |x - x0|^alpha; in A_p exactly when -n < alpha < n(p-1)."""
    x0 = tuple(float(c) for c in np.atleast_1d(x0))
    if len(x0) != grid.spec.n:
        raise ValueError(f"x0 must have {grid.spec.n} entries")
    if not all(math.isfinite(c) for c in x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    _check_alpha(alpha)
    # the squares summed in axis order into the one full-grid array
    squares = [(x - c) ** 2 for x, c in zip(grid.sparse_coords(), x0)]
    sq = np.empty(grid.spec.shape)
    sq[...] = squares[0]
    for t in squares[1:]:
        sq += t
    # a sum of squares is 0 exactly where every square is
    zero = np.ix_(*(np.flatnonzero(t == 0.0) for t in squares))
    vals = _distance_power(sq, zero, grid.h, alpha)
    n = grid.spec.n
    member = -n < alpha < n * (p - 1.0)
    return Weight._own(grid, vals, {"kind": "power", "x0": list(x0), "alpha": alpha},
                       p, member)


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

#: grid points of whole axis-0 planes a slab of w^expo owns, at most; it
#: forms one block more (see _slabs)
_SLAB = 2**15


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
    if isinstance(manifold_dim, bool) or not isinstance(manifold_dim, numbers.Integral):
        raise ValueError(f"manifold_dim must be an integer, got {manifold_dim!r}")
    k = int(manifold_dim)
    if not (0 <= k < grid.spec.n):
        raise ValueError(f"manifold dimension must be in [0, {grid.spec.n})")
    _check_alpha(alpha)
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
    vals = _distance_power(sq, sq == 0.0, grid.h, alpha)
    codim = grid.spec.n - k
    member = -codim < alpha < codim * (p - 1.0)
    return Weight._own(grid, vals, {"kind": "distance", "alpha": alpha, "manifold_dim": k},
                       p, member)


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
    return Weight._own(w.grid, vals, {"kind": "tabulated", "dual_of": w.family},
                       p / (p - 1.0), w.in_class)


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
    [corner, corner + edge) along one axis, clipped to the grid.  A point
    within 1e-9 of a cell below a cube's start or end counts as on it: the
    rounding of (corner - origin) / h grows with the index, past 1e-12
    cells at N = 4096."""
    h = grid.h
    o = grid.spec.origin[axis]
    lo = np.ceil((corners - o) / h - 1e-9).astype(np.intp)
    hi = np.ceil((corners + edge - o) / h - 1e-9).astype(np.intp)
    return np.maximum(lo, 0), np.minimum(hi, grid.spec.N)


def _cube_at(corners, flat: int, edge: float):
    """The (corner, edge) cube at a C-order index of a tiling."""
    at = np.unravel_index(flat, tuple(len(c) for c in corners))
    return tuple(float(c[i]) for c, i in zip(corners, at)), edge


def _along(axis: int, sel):
    return (slice(None),) * axis + (sel,)


def _base(a: np.ndarray, axes, expo=None) -> np.ndarray:
    """Level 0 of the dyadic pyramid of a**expo (of a when expo is None).
    axes holds one (start, stop, blocks, cuts, full) per axis: the points
    start:stop are summed in blocks of one length, or by reduceat at the
    cuts (from start) into the non-empty blocks full, an empty block
    holding 0.  A view of a when every block is one point and expo is None;
    the power is taken over whole axis-0 planes."""
    x = a[axes[0][0]:axes[0][1]]
    if expo is not None:
        x = x**expo
    x = x[(slice(None),) + tuple(slice(start, stop) for start, stop, *_ in axes[1:])]
    for d, (start, stop, k, cuts, full) in enumerate(axes):
        if cuts is not None:
            sums = np.add.reduceat(x, cuts, axis=d)
            x = np.zeros(x.shape[:d] + (k,) + x.shape[d + 1:])
            x[_along(d, full)] = sums
        elif stop - start > k:
            x = x.reshape(x.shape[:d] + (k, (stop - start) // k) + x.shape[d + 1:]).sum(d + 1)
    return x


def _halve(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The pyramid level after x: the sums of pairs of its blocks along each
    axis in turn (a last odd block is dropped), the last pass written into
    out when it is given."""
    last = x.ndim - 1
    for d in range(x.ndim):
        m = x.shape[d] // 2 * 2
        x = np.add(x[_along(d, slice(0, m, 2))], x[_along(d, slice(1, m, 2))],
                   out=out if d == last else None)
    return x


def _pyramid_sums(levels, read, out: np.ndarray) -> None:
    """Write one tiling's cube sums from a pyramid into out (shaped like the
    tiling): its blocks of one level along each axis, or the sums of pairs
    of them."""
    level, paired, sels = read
    x = levels[level]
    if not paired:
        for d, sel in enumerate(sels):
            x = x[_along(d, sel)]
        out[...] = x
        return
    last = out.ndim - 1
    for d, (first, second) in enumerate(sels):
        x = np.add(x[_along(d, first)], x[_along(d, second)],
                   out=out if d == last else None)


def _select(idx: np.ndarray, step: int):
    """idx as a slice when it runs from its first entry in steps of step."""
    i, k = int(idx[0]), len(idx)
    if np.array_equal(idx, i + step * np.arange(k)):
        return slice(i, i + step * k, step)
    return idx


@dataclass(frozen=True, eq=False)
class _FamilyPlan:
    """A cube family compiled for one grid (see _compile_family).

    Per tiling, in family order: the edge, the kept corners per axis, the
    shape (cubes per axis), the flat offset of its first cube, with the
    family's cube count as the last offset, and its read of the pyramid.
    counts holds each cube's grid points (read-only), base the blocks of
    level 0 per axis (see _base) and depth the last level read.
    slots[level] is the tiling that reads that whole level, which is built
    in its place, or None.  Each slab holds its axis-0 blocks (see _base;
    one block past its own, for the pairs across its end), its own blocks
    k0:k1, and its level-0 reads: per tiling, the rows along axis 0 whose
    blocks start in the slab and the read shifted into it."""

    edges: list
    corners: list
    shapes: list
    offsets: list
    counts: np.ndarray
    base: list
    depth: int
    reads: list
    slots: list
    slabs: list

    def sums(self, a: np.ndarray, expo: float | None = None) -> np.ndarray:
        """Every cube's sum of a**expo (of a when expo is None), in family
        order, written into one array.  Level 0 is formed a slab at a time,
        and each slab gives its level-0 reads and its part of level 1."""
        out = np.empty(self.offsets[-1])
        tiles = [out[lo:hi].reshape(shape)
                 for lo, hi, shape in zip(self.offsets, self.offsets[1:], self.shapes)]
        into = [None if t is None else tiles[t] for t in self.slots]
        levels = [None]
        if self.depth:
            levels.append(np.empty(tuple(k >> 1 for _, _, k, _, _ in self.base))
                          if into[1] is None else into[1])
        for axis0, (k0, k1), reads in self.slabs:
            x = _base(a, (axis0, *self.base[1:]), expo)
            for t, rows, read in reads:
                _pyramid_sums([x], read, tiles[t][rows])
            if self.depth:
                _halve(x[:k1 - k0], levels[1][k0 // 2:k1 // 2])
        for level in range(2, self.depth + 1):
            levels.append(_halve(levels[-1], into[level]))
        for t, read in enumerate(self.reads):
            if read[0] and self.slots[read[0]] != t:
                _pyramid_sums(levels, read, tiles[t])
        return out

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
    """Everything about a family's cubes that depends on the grid alone
    (see the module docstring).  Along each axis base block k holds the
    points bounds[k]:bounds[k + 1], and the base runs as far as the reads
    need; a cube that holds no grid point is left out along its axis, and
    a tiling with no cube left along some axis is left out."""
    kinds = [(j, s) for j in range(cubes.level_min, cubes.level_max + 1)
             for s in ((False, True) if cubes.shifted else (False,))]
    tilings = [(j, s, edge, corners) for (j, s), (edge, corners)
               in zip(kinds, cubes.tilings(grid)) if all(len(c) for c in corners)]
    fine = 0
    while cubes.size / 2**fine > grid.h:
        fine += 1
    top = min(fine, max(j + s for j, s, _, _ in tilings))
    block = cubes.size / 2**top
    # per tiling, its pyramid level and whether it reads pairs of blocks
    modes = [(0, False) if j >= fine else (top - j - s, s) for j, s, _, _ in tilings]
    per_axis = []
    for d in range(grid.spec.n):
        # the level-top blocks over twice the box: enough for every read
        starts, ends = _axis_ranges(grid, d, cubes.lo[d] + np.arange(2 ** (top + 1)) * block,
                                    block)
        bounds = np.minimum(np.append(starts, ends[-1]), grid.spec.N)
        axis = []
        for (j, s, edge, corners), (level, paired) in zip(tilings, modes):
            if j >= fine:
                starts, ends = _axis_ranges(grid, d, corners[d], edge)
                keep = ends > starts
                idx = np.searchsorted(bounds, starts[keep], "right") - 1
            else:
                first = np.arange(len(corners[d])) * (1 + s) + s
                keep = bounds[(first + 1 + s) << level] > bounds[first << level]
                idx = first[keep]
            span = bounds[(idx + 1 + paired) << level] - bounds[idx << level]
            axis.append((idx, span, corners[d][keep]))
        per_axis.append((bounds, axis))
    kept = [t for t in range(len(tilings)) if all(len(axis[t][0]) for _, axis in per_axis)]
    if not kept:
        raise ValueError("no cube in the family contains a grid point")
    base = []
    for bounds, axis in per_axis:
        k = max(int(axis[t][0][-1] + 1 + modes[t][1]) << modes[t][0] for t in kept)
        bounds = bounds[:k + 1]
        lengths = np.diff(bounds)
        start, stop = int(bounds[0]), int(bounds[-1])
        if lengths.min() == lengths.max():
            base.append((start, stop, k, None, None))
        else:
            full = np.flatnonzero(lengths)
            base.append((start, stop, k, bounds[full] - start, full))
    edges, corners, shapes, reads, points, runs = [], [], [], [], [], []
    for t in kept:
        idxs, spans, kept_corners = zip(*(axis[t] for _, axis in per_axis))
        level, paired = modes[t]
        edges.append(tilings[t][2])
        corners.append(list(kept_corners))
        shapes.append(tuple(map(len, idxs)))
        if paired:
            sels = [(_select(idx, 2), _select(idx + 1, 2)) for idx in idxs]
        else:
            sels = [_select(idx, 1) for idx in idxs]
        reads.append((level, paired, sels))
        if all(span.min() == span.max() for span in spans):
            points.append([math.prod(int(span[0]) for span in spans)])
            runs.append([math.prod(shapes[-1])])
        else:
            count = 1
            for span in spans:
                count = np.multiply.outer(count, span)
            points.append(count.ravel())
            runs.append(np.ones(count.size, dtype=np.intp))
    offsets = [0, *itertools.accumulate(math.prod(shape) for shape in shapes)]
    counts = np.repeat(np.concatenate(points), np.concatenate(runs))
    counts.flags.writeable = False
    depth = max(level for level, _, _ in reads)
    return _FamilyPlan(edges, corners, shapes, offsets, counts, base, depth, reads,
                       _slots(base, shapes, reads, depth), _slabs(grid, base, reads))


def _slots(base, shapes, reads, depth: int) -> list:
    """Per pyramid level, the first tiling that reads it whole: unpaired,
    every selection a full slice, and the level's shape its own; or None.
    Level 0 is never whole (see _slabs)."""
    slots = [None] * (depth + 1)
    for t, (level, paired, sels) in enumerate(reads):
        whole = tuple(k >> level for _, _, k, _, _ in base)
        if (level and not paired and slots[level] is None and shapes[t] == whole
                and all(isinstance(sel, slice) and sel == slice(0, m, 1)
                        for sel, m in zip(sels, whole))):
            slots[level] = t
    return slots


def _slabs(grid: Grid, base, reads) -> list:
    """Level 0 cut along axis 0 into slabs that own an even number of
    blocks (two at least; the last may own fewer) of at most _SLAB grid
    points of whole planes, and form one block more (see _FamilyPlan)."""
    start, stop, k, cuts, full = base[0]
    if cuts is None:
        bounds = start + np.arange(k + 1) * ((stop - start) // k)
    else:  # an empty block ends where it starts
        bounds = np.full(k + 1, stop)
        bounds[full] = start + cuts
        bounds = np.minimum.accumulate(bounds[::-1])[::-1]
    # the grid points of the planes of the longest block
    row = grid.spec.N ** (grid.spec.n - 1) * max(1, int(np.diff(bounds).max()))
    step = max(2, _SLAB // row // 2 * 2)
    # per level-0 read, the blocks along axis 0 its rows start at
    firsts = [(t, np.arange(k)[sels[0][0] if paired else sels[0]])
              for t, (level, paired, sels) in enumerate(reads) if level == 0]
    slabs = []
    for k0 in range(0, k, step):
        k1 = min(k0 + step, k)
        end = min(k1 + 1, k)
        lo, hi = int(bounds[k0]), int(bounds[end])
        if cuts is None:
            axis0 = (lo, hi, end - k0, None, None)
        else:
            filled = np.flatnonzero(np.diff(bounds[k0:end + 1]))
            axis0 = (lo, hi, end - k0, bounds[k0 + filled] - lo, filled)
        slab_reads = []
        for t, first in firsts:
            r0, r1 = (int(r) for r in np.searchsorted(first, (k0, k1)))
            if r1 > r0:
                _, paired, sels = reads[t]
                local = first[r0:r1] - k0
                sel = ((_select(local, 2), _select(local + 1, 2)) if paired
                       else _select(local, 1))
                slab_reads.append((t, slice(r0, r1), (0, paired, [sel, *sels[1:]])))
        slabs.append((axis0, (k0, k1), slab_reads))
    return slabs


def _first_bad(a: np.ndarray) -> int | None:
    """The index of a's first non-positive or non-finite entry, or None."""
    if _positive(a):
        return None
    return int(np.argmax(~((a > 0.0) & (a < np.inf))))


def _family_sup(grid: Grid, arrays, term, cubes: CubeFamily, edge_factor=None):
    """Maximize term(count, sums, factor) over the family in one pass.

    The family's plan for the grid is compiled once and kept (see
    CubeFamily._plan).  arrays holds (a, expo) pairs; each is summed as
    a**expo (as a when expo is None) into one flat array in family order,
    from one dyadic pyramid (see _FamilyPlan.sums), so no full-grid power
    is formed.  count holds each cube's grid points, and factor each cube's
    edge_factor(edge) (None without one).
    term is called once, and one argmax picks the first maximal cube of the
    family.  A non-positive or non-finite sum or a NaN term raises, naming
    the cube a tiling-by-tiling sweep meets first: the first failing tiling,
    its arrays in order, then its term."""
    plan = cubes._plan(grid)
    sums = [plan.sums(a, expo) for a, expo in arrays]
    count = plan.counts
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

    return _estimate(w.grid, [(w.values, None), (w.values, expo)], term, cubes,
                     {"family": w.family, **params})


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

    # |Q|^(s/n-1) and |Q|^(s/n) come as factors, one Python float per edge:
    # numpy's power of an array may round otherwise
    def term(count, sums, factor):
        return factor * (hn * sums[0]) ** (1.0 / q) * (hn * sums[1]) ** (1.0 / pprime)

    record = _estimate(grid, [(v.values, None), (w.values, -1.0 / (p - 1.0))], term, cubes,
                       {"s": s, "p": p, "q": q},
                       edge_factor=lambda edge: (edge**n) ** (s / n - 1.0)).to_record()
    if v.values.shape == w.values.shape and np.array_equal(v.values, w.values):

        def single(count, sums, factor):
            return factor * (hn * sums[0]) ** (1.0 / q - 1.0 / p)

        one = _estimate(grid, [(w.values, None)], single, cubes,
                        edge_factor=lambda edge: (edge**n) ** (s / n)).to_record()
        record["single_weight_constant"] = one["constant"]
        record["single_weight_argmax"] = one["argmax_cube"]
    return record


def weighted_measure(w: Weight, region) -> float:
    """w(U) = grid quadrature of w over U: a bool mask of the grid's shape,
    or a (corner, edge) cube."""
    grid = w.grid
    hn = grid.h**grid.spec.n
    if isinstance(region, np.ndarray) and region.dtype == bool:
        if region.shape != grid.spec.shape:
            raise ValueError("mask shape does not match grid")
        return float(hn * np.sum(w.values[region]))
    if not isinstance(region, (tuple, list)) or len(region) != 2:
        got = (f"an array of dtype {region.dtype}" if isinstance(region, np.ndarray)
               else repr(region))
        raise ValueError("region must be a bool mask of the grid's shape or a (corner, edge) "
                         f"cube, got {got}")
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
