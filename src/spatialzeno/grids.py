"""Rectangular grid schemes on the unit cube and on R^d.

A grid level at resolution index n partitions its domain into half-open
rectangular bins whose edge lengths all lie in [1/(C*n), 1/n] for a ratio
bound C > 1.  Every level is a list of pairwise disjoint product grids
(``parts``), each keeping one breakpoint array per axis instead of
materialising bin objects, and its bins are numbered part after part.
Uniform and jittered levels are one product grid; a hand-built bin list is
one one-cell product grid per bin.  Grids over R^d are finite unions of
translated unit cubes, each carrying a translated copy of the sub-scheme's
breakpoints, so no bin ever straddles a cube boundary; a cube list that
fills a box of the unit lattice is one product grid over the whole box.
A centred box is held as a :class:`CubeBox`, which names its cubes
without listing them.

All grid objects are immutable after construction and all operations are
pure, so they are safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "Bin",
    "GridLevel",
    "ProductGrid",
    "CustomGrid",
    "ConcatenatedGrid",
    "CubeBox",
    "GridScheme",
    "GRID_KINDS",
    "GridValidationReport",
    "InfeasibleGridError",
    "OutOfDomainError",
    "OverlappingCubesError",
    "uniform_grid",
    "jittered_grid",
    "rd_grid",
    "validate_grid",
    "locate_bin",
]

DEFAULT_RATIO_BOUND = 2.0

# absolute slack for edge-length / volume comparisons (per unit cube)
_TOL = 1e-12


class InfeasibleGridError(ValueError):
    """No partition with the requested cell count satisfies the edge bounds."""


class OutOfDomainError(ValueError):
    """Point lies outside the grid's declared domain."""


class OverlappingCubesError(ValueError):
    """Translated unit cubes of an R^d scheme must be pairwise disjoint."""


@dataclass(frozen=True)
class Interval:
    """Half-open interval [lo, hi) with finite endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x < self.hi


@dataclass(frozen=True)
class Bin:
    """Rectangular half-open cell, one interval per axis."""

    edges: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 1:
            raise ValueError("a bin needs at least one axis")

    @property
    def d(self) -> int:
        return len(self.edges)

    @property
    def volume(self) -> float:
        v = 1.0
        for e in self.edges:
            v *= e.length
        return v

    @property
    def lower(self) -> tuple[float, ...]:
        return tuple(e.lo for e in self.edges)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(e.hi for e in self.edges)

    def contains(self, point: Sequence[float] | float) -> bool:
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        if pt.size != self.d:
            raise ValueError(f"point has {pt.size} coordinates, bin has {self.d}")
        return all(e.contains(x) for e, x in zip(self.edges, pt))


def _as_point(x, d: int) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.size != d:
        raise ValueError(f"point has {pt.size} coordinates, grid has {d}")
    return pt


def _as_points(points, d: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != d:
        raise ValueError(f"points have {pts.shape[1]} coordinates, grid has {d}")
    return pts


class GridLevel:
    """Partition of the domain at one resolution index n, as a tuple of
    pairwise disjoint :class:`ProductGrid` ``parts``.

    Bins are numbered part after part: ``index_ranges[l] = (start, stop)``
    gives the flat bin indices of part l.  Concrete subclasses:
    :class:`ProductGrid` (its own single part), :class:`CustomGrid`,
    :class:`ConcatenatedGrid`.
    """

    n: int
    d: int
    ratio_bound: float

    def __init__(self, n: int, parts: Sequence["ProductGrid"],
                 ratio_bound: float = DEFAULT_RATIO_BOUND):
        if not parts:
            raise ValueError("need at least one part")
        self.n = int(n)
        self.d = parts[0].d
        self.ratio_bound = float(ratio_bound)
        self.parts = tuple(parts)
        # Python ints: a sum of part counts can exceed int64
        ranges, start = [], 0
        for p in parts:
            ranges.append((start, start + p.num_bins))
            start += p.num_bins
        self.index_ranges = tuple(ranges)

    @property
    def num_bins(self) -> int:
        return self.index_ranges[-1][1]

    def bin(self, j: int) -> Bin:
        for (start, stop), part in zip(self.index_ranges, self.parts):
            if start <= j < stop:
                return part.bin(j - start)
        raise IndexError(j)

    def bins(self) -> Iterator[Bin]:
        for part in self.parts:
            for j in range(part.num_bins):
                yield part.bin(j)

    def volumes(self) -> np.ndarray:
        return np.concatenate([p.volumes() for p in self.parts])

    def locate(self, x) -> int:
        pt = _as_point(x, self.d)
        return int(self.locate_many(pt[None, :])[0])

    def locate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorised bin lookup: each point goes to the first part whose
        bounds hold it, at that part's index offset."""
        pts = _as_points(points, self.d)
        idx = np.full(len(pts), -1, dtype=np.intp)
        for (start, _), part in zip(self.index_ranges, self.parts):
            inside = idx < 0
            for k, (lo, hi) in enumerate(part.domain_bounds):
                inside &= (lo <= pts[:, k]) & (pts[:, k] < hi)
            if inside.any():
                idx[inside] = start + part.locate_many(pts[inside])
        if np.any(idx < 0):
            raise OutOfDomainError(
                f"point {tuple(pts[idx < 0][0])} outside every part")
        return idx

    @property
    def domain_bounds(self) -> tuple[tuple[float, float], ...]:
        # hull, not an exact description when the parts do not fill a box
        los = [min(p.domain_bounds[k][0] for p in self.parts) for k in range(self.d)]
        his = [max(p.domain_bounds[k][1] for p in self.parts) for k in range(self.d)]
        return tuple((lo, hi) for lo, hi in zip(los, his))

    @property
    def domain_volume(self) -> float:
        v = 1.0
        for lo, hi in self.domain_bounds:
            v *= hi - lo
        return v

    @property
    def max_bin_volume(self) -> float:
        return max(p.max_bin_volume for p in self.parts)

    @property
    def min_bin_volume(self) -> float:
        return min(p.min_bin_volume for p in self.parts)


class ProductGrid(GridLevel):
    """Tensor-product grid defined by one breakpoint array per axis.

    Bins are enumerated in C order (axis 0 slowest), so the flat index of
    the cell with per-axis positions (i_0, ..., i_{d-1}) is
    ``ravel_multi_index``.  It is the single part of itself.
    """

    def __init__(self, n: int, breakpoints: Sequence[np.ndarray],
                 ratio_bound: float = DEFAULT_RATIO_BOUND):
        if n < 1:
            raise ValueError("resolution index n must be >= 1")
        if ratio_bound <= 1.0:
            raise ValueError("ratio bound C must exceed 1")
        self.n = int(n)
        self.d = len(breakpoints)
        if self.d < 1:
            raise ValueError("need at least one axis")
        self.ratio_bound = float(ratio_bound)
        bps = []
        for bp in breakpoints:
            bp = np.asarray(bp, dtype=float)
            if bp.ndim != 1 or bp.size < 2:
                raise ValueError("each axis needs at least two breakpoints")
            if not np.all(np.diff(bp) > 0):
                raise ValueError("breakpoints must be strictly increasing")
            bp.setflags(write=False)
            bps.append(bp)
        self.breakpoints: tuple[np.ndarray, ...] = tuple(bps)
        self.shape: tuple[int, ...] = tuple(bp.size - 1 for bp in bps)

    # properties, not attributes: (self,) stored on self would be a
    # reference cycle keeping the breakpoints alive until a GC pass
    @property
    def parts(self) -> tuple["ProductGrid", ...]:
        return (self,)

    @property
    def index_ranges(self) -> tuple[tuple[int, int], ...]:
        return ((0, self.num_bins),)

    @property
    def num_bins(self) -> int:
        return math.prod(self.shape)

    def axis_lengths(self, k: int) -> np.ndarray:
        return np.diff(self.breakpoints[k])

    def bin(self, j: int) -> Bin:
        idx = np.unravel_index(j, self.shape)
        return Bin(tuple(
            Interval(float(self.breakpoints[k][i]), float(self.breakpoints[k][i + 1]))
            for k, i in enumerate(idx)
        ))

    def volumes(self) -> np.ndarray:
        out = np.array([1.0])
        for k in range(self.d):
            out = np.multiply.outer(out, self.axis_lengths(k))
        return out.ravel()

    @property
    def max_bin_volume(self) -> float:
        v = 1.0
        for k in range(self.d):
            v *= float(self.axis_lengths(k).max())
        return v

    @property
    def min_bin_volume(self) -> float:
        v = 1.0
        for k in range(self.d):
            v *= float(self.axis_lengths(k).min())
        return v

    def locate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorised bin lookup for an (N, d) array of points."""
        pts = _as_points(points, self.d)
        idx = []
        for k in range(self.d):
            bp = self.breakpoints[k]
            i = np.searchsorted(bp, pts[:, k], side="right") - 1
            bad = (pts[:, k] < bp[0]) | (pts[:, k] >= bp[-1])
            if np.any(bad):
                raise OutOfDomainError(
                    f"coordinate {pts[bad][0]} outside [{bp[0]}, {bp[-1]}) on axis {k}")
            idx.append(i)
        return np.ravel_multi_index(tuple(idx), self.shape)

    @property
    def domain_bounds(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(bp[0]), float(bp[-1])) for bp in self.breakpoints)


class CustomGrid(GridLevel):
    """Hand-built bin list: one one-cell product grid per bin, in list order.

    ``domain_bounds`` (default [0,1)^d) is the box the bins should tile;
    :func:`validate_grid` checks that they do.
    """

    def __init__(self, n: int, bins: Sequence[Bin],
                 ratio_bound: float = DEFAULT_RATIO_BOUND,
                 domain_bounds: Sequence[tuple[float, float]] | None = None):
        if n < 1:
            raise ValueError("resolution index n must be >= 1")
        if not bins:
            raise ValueError("need at least one bin")
        d = bins[0].d
        if any(b.d != d for b in bins):
            raise ValueError("all bins must share the same dimension")
        super().__init__(n, [ProductGrid(n, [[e.lo, e.hi] for e in b.edges], ratio_bound)
                             for b in bins], ratio_bound)
        if domain_bounds is None:
            domain_bounds = tuple((0.0, 1.0) for _ in range(d))
        self._domain_bounds = tuple((float(lo), float(hi)) for lo, hi in domain_bounds)

    @property
    def domain_bounds(self) -> tuple[tuple[float, float], ...]:
        return self._domain_bounds


class ConcatenatedGrid(GridLevel):
    """Pairwise disjoint product-grid parts covering a finite list of unit cubes.

    ``parts`` tile the union of the cubes in ``cubes`` (corners, one tuple
    per cube); a part may span one cube or a whole box of them, and bins
    never straddle a cube boundary.  Only the number of cubes is kept.
    """

    def __init__(self, n: int, parts: Sequence[ProductGrid],
                 cubes: Sequence[tuple[float, ...]],
                 ratio_bound: float = DEFAULT_RATIO_BOUND):
        super().__init__(n, parts, ratio_bound)
        self.num_cubes = len(cubes)

    @property
    def domain_volume(self) -> float:
        return float(self.num_cubes)


def uniform_grid(n: int, d: int = 1,
                 ratio_bound: float = DEFAULT_RATIO_BOUND) -> ProductGrid:
    """Even subdivision of [0,1)^d into n^d bins with edges of length 1/n."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    bp = np.arange(n + 1) / n
    bp[-1] = 1.0
    return ProductGrid(n, (bp,) * d, ratio_bound=ratio_bound)


def _auto_cells(n: int, C: float) -> int:
    # mid-range cell count maximises the feasible length spread; the
    # smallest feasible count m = n forces every length to exactly 1/n
    m_max = int(np.floor(C * n * (1.0 + 1e-12) + 1e-9))
    m = int(round(n * (1.0 + C) / 2.0))
    return max(n, min(m, m_max))


def _jitter_axis(n: int, C: float, m: int, rng: np.random.Generator) -> np.ndarray:
    lo, hi = 1.0 / (C * n), 1.0 / n
    u = rng.random(m)
    u /= u.sum()
    lengths = lo + u * (1.0 - m * lo)
    over = lengths > hi
    if over.any():
        excess = float((lengths[over] - hi).sum())
        lengths[over] = hi
        room = hi - lengths
        total_room = float(room.sum())
        if total_room > 0.0:
            # feasibility (m >= n) guarantees excess <= total_room, so one
            # proportional pass keeps every length inside [lo, hi]
            lengths = lengths + excess * room / total_room
    bp = np.empty(m + 1)
    bp[0] = 0.0
    np.cumsum(lengths, out=bp[1:])
    bp[-1] = 1.0
    return bp


def _jitter_cells(n: int, C: float, cells_per_axis: int | None) -> int:
    """Cells per axis of a jittered level; raises when no partition fits."""
    if C <= 1.0:
        raise ValueError("ratio bound C must exceed 1")
    m = _auto_cells(n, C) if cells_per_axis is None else int(cells_per_axis)
    if not (n <= m and m <= C * n * (1.0 + 1e-12)):
        raise InfeasibleGridError(
            f"{m} cells of length in [1/({C}*{n}), 1/{n}] cannot tile [0,1): "
            f"need an integer cell count in [{n}, {C * n:g}]")
    return m


def jittered_grid(n: int, d: int = 1, C: float = DEFAULT_RATIO_BOUND,
                  seed: int = 0, cells_per_axis: int | None = None) -> ProductGrid:
    """Randomised partition of [0,1)^d with edge lengths in [1/(C*n), 1/n].

    Per axis, the unit interval is split into ``cells_per_axis`` cells
    (default: a mid-range count between n and C*n) whose lengths are drawn
    from normalised uniform weights and then clipped back into the bound.
    The result is a pure function of (n, d, C, seed, cells_per_axis).

    Raises
    ------
    InfeasibleGridError
        If no partition with the requested cell count can satisfy the
        bounds, i.e. unless n <= cells_per_axis <= C*n.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    m = _jitter_cells(n, C, cells_per_axis)
    bps = []
    for axis in range(d):
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(n), axis, m))
        bps.append(_jitter_axis(n, C, m, np.random.default_rng(ss)))
    return ProductGrid(n, bps, ratio_bound=C)


def _overlapping_boxes(lo: np.ndarray, hi: np.ndarray) -> tuple[int, int] | None:
    """First pair (i, j), i < j, of half-open boxes prod_k [lo[i, k], hi[i, k])
    that overlap by more than _TOL on every axis, or None (pairwise scan)."""
    for i in range(len(lo) - 1):
        hit = np.all((lo[i + 1:] < hi[i] - _TOL) & (lo[i] < hi[i + 1:] - _TOL), axis=1)
        if hit.any():
            return i, i + 1 + int(np.argmax(hit))
    return None


def _lattice_box(corners: np.ndarray) -> list[np.ndarray] | None:
    """Sorted corner coordinates per axis when the (K, d) corners are exactly
    the corners of a box of the unit lattice, each once; else None."""
    axes = [np.unique(corners[:, k]) for k in range(corners.shape[1])]
    if any(np.any(ax[1:] != ax[:-1] + 1.0) for ax in axes):
        return None
    if math.prod(ax.size for ax in axes) != len(corners):
        return None
    if len(np.unique(corners, axis=0)) != len(corners):
        return None
    return axes


@dataclass(frozen=True)
class CubeBox(Sequence):
    """The unit cubes of the centred box prod_k [-k_k, k_k), as a lazy sequence.

    ``half_widths`` holds one integer k_k >= 1 per axis, so the box has
    prod_k 2 k_k cubes.  Item i is the corner tuple (floats) of the i-th
    cube in C order, axis 0 slowest: the order of
    ``itertools.product(range(-k_0, k_0), ...)``.  No corner list is built;
    ``len``, indexing and the sorted per-axis corner coordinates ``axes``
    come from the half-widths.  Boxes are equal, and hash equal, when their
    half-widths are.
    """

    half_widths: tuple[int, ...]

    def __post_init__(self) -> None:
        hw = tuple(operator.index(k) for k in self.half_widths)
        if not hw or min(hw) < 1:
            raise ValueError("a cube box needs at least one axis and half-widths >= 1")
        object.__setattr__(self, "half_widths", hw)

    @property
    def d(self) -> int:
        return len(self.half_widths)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.arange(-k, k, dtype=float) for k in self.half_widths)

    def __len__(self) -> int:
        return math.prod(2 * k for k in self.half_widths)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = operator.index(i)
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("cube index out of range")
        corner = []
        for k in reversed(self.half_widths):
            i, r = divmod(i, 2 * k)
            corner.append(float(r - k))
        return tuple(reversed(corner))

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        for corner in itertools.product(*(range(-k, k) for k in self.half_widths)):
            yield tuple(map(float, corner))


def _coordinate_key(a: float) -> int:
    # the float's bit pattern, with -0.0 folded onto 0.0
    return int(np.float64(a + 0.0).view(np.uint64))


def _cube_segments(scheme: "GridScheme", n: int) -> Callable[[int, float], np.ndarray]:
    """``segment(axis, a)``: the sub-scheme's breakpoints on [a, a+1] for one axis.

    A jittered segment is seeded from (scheme seed, n, axis, cell count,
    coordinate a), so it does not depend on which other cubes are listed.
    """
    sub = scheme.sub_kind if scheme.kind == "rd_translated_cubes" else scheme.kind
    C = scheme.ratio_bound
    if sub == "uniform":
        base = uniform_grid(n, 1, ratio_bound=C).breakpoints[0]
        return lambda axis, a: base + a
    if sub == "jittered":
        m = _jitter_cells(n, C, scheme.cells_per_axis)

        def segment(axis: int, a: float) -> np.ndarray:
            ss = np.random.SeedSequence(
                entropy=int(scheme.seed),
                spawn_key=(int(n), axis, m, _coordinate_key(a)))
            return _jitter_axis(n, C, m, np.random.default_rng(ss)) + a
        return segment
    raise ValueError(f"unsupported per-cube scheme {sub!r}")


# the scheme kinds; the CLI config schema offers the same list
GRID_KINDS = ("uniform", "jittered", "rd_translated_cubes")


@dataclass(frozen=True)
class GridScheme:
    """Family of grid levels indexed by the resolution n.

    kind is one of :data:`GRID_KINDS`; rd schemes carry ``cubes`` plus the
    sub-scheme used inside every cube.  ``cubes`` is a tuple of corner
    tuples, or the :class:`CubeBox` that ``rd_study`` holds, whose levels
    are built from its per-axis coordinates without reading a corner.  A
    jittered sub-scheme draws each axis segment of a cube from (seed, n,
    axis, cell count, cube coordinate), so a cube box is one product grid
    and a cube's bins do not depend on the rest of the list.  A hand-built
    partition is a :class:`CustomGrid` level, not a scheme.
    """

    kind: str
    d: int = 1
    ratio_bound: float = DEFAULT_RATIO_BOUND
    seed: int = 0
    cells_per_axis: int | None = None
    cubes: tuple[tuple[float, ...], ...] | CubeBox | None = None
    sub_kind: str = "uniform"

    def __post_init__(self) -> None:
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")

    def level(self, n: int) -> GridLevel:
        if self.kind == "uniform":
            return uniform_grid(n, self.d, ratio_bound=self.ratio_bound)
        if self.kind == "jittered":
            return jittered_grid(n, self.d, C=self.ratio_bound,
                                 seed=self.seed, cells_per_axis=self.cells_per_axis)
        if self.cubes is None:
            raise ValueError("rd scheme needs a cube list")
        return rd_grid(self, n, self.cubes)

    def with_cubes(self, cubes: Sequence[Sequence[float]]) -> "GridScheme":
        """Copy of this scheme turned into an R^d scheme over ``cubes``.

        A :class:`CubeBox` is kept as it is; any other list is stored as
        corner tuples of floats.  Raises ValueError when a cube's dimension
        is not ``d``.
        """
        if isinstance(cubes, CubeBox):
            dims = {cubes.d}
        else:
            cubes = tuple(tuple(float(a) for a in c) for c in cubes)
            dims = {len(c) for c in cubes}
        if dims - {self.d}:
            raise ValueError(f"cubes of dimension {sorted(dims)} for a scheme "
                             f"with d={self.d}")
        sub = self.sub_kind if self.kind == "rd_translated_cubes" else self.kind
        return GridScheme(
            kind="rd_translated_cubes", d=self.d, ratio_bound=self.ratio_bound,
            seed=self.seed, cells_per_axis=self.cells_per_axis,
            cubes=cubes, sub_kind=sub)

    def describe(self) -> dict:
        out = {"kind": self.kind, "d": self.d, "ratio_bound": self.ratio_bound}
        if self.kind == "jittered" or self.sub_kind == "jittered":
            out["seed"] = self.seed
            out["cells_per_axis"] = self.cells_per_axis
        if self.kind == "rd_translated_cubes":
            out["sub_kind"] = self.sub_kind
            out["num_cubes"] = 0 if self.cubes is None else len(self.cubes)
        return out


def rd_grid(scheme: GridScheme, n: int,
            cube_list: Sequence[Sequence[float]]) -> ConcatenatedGrid:
    """Grid over a union of pairwise disjoint translated unit cubes.

    Every cube Q_l = prod_k [a_k, a_k+1) is cut on each axis k by the
    sub-scheme's breakpoints translated to a_k.  A :class:`CubeBox` gives a
    single product part over its box directly from its ``axes``: the axis
    breakpoints are those segments joined end to end, and no corner is
    read.  An explicit list whose distinct corners fill a box of the unit
    lattice gets the same part, found by sorting its corners, and its bins
    come in C order over the box whatever the order of the list; such
    corners are disjoint by construction.  Any other list gets one part
    per cube, in list order, after a pairwise check that no two cubes
    overlap.

    Raises
    ------
    ValueError
        If the cubes' dimension is not ``scheme.d``.
    OverlappingCubesError
        If two listed cubes overlap (a repeated corner included).
    """
    if isinstance(cube_list, CubeBox):
        corners, d = None, cube_list.d
    else:
        try:
            corners = np.array(cube_list, dtype=float)
        except ValueError as exc:
            raise ValueError("all cubes must share the same dimension") from exc
        if corners.size == 0:
            raise ValueError("need at least one cube")
        if corners.ndim != 2:
            raise ValueError("all cubes must share the same dimension")
        if not np.all(np.isfinite(corners)):
            raise ValueError("cube corners must be finite")
        d = corners.shape[1]
    if d != scheme.d:
        raise ValueError(f"cubes of dimension {d} for a scheme with d={scheme.d}")
    if n < 1:
        raise ValueError("resolution index n must be >= 1")
    segment = _cube_segments(scheme, n)
    C = scheme.ratio_bound
    box = cube_list.axes if corners is None else _lattice_box(corners)
    if box is not None:
        bps = []
        for k, coords in enumerate(box):
            segs = [segment(k, a) for a in coords]
            # each segment starts where the previous one ends
            bps.append(np.concatenate([segs[0]] + [sg[1:] for sg in segs[1:]]))
        parts = [ProductGrid(n, bps, ratio_bound=C)]
    else:
        cubes = [tuple(c) for c in corners.tolist()]
        overlap = _overlapping_boxes(corners, corners + 1.0)
        if overlap is not None:
            raise OverlappingCubesError(
                f"cubes at {cubes[overlap[0]]} and {cubes[overlap[1]]} overlap "
                f"(corner distance < 1 on every axis)")
        parts = [ProductGrid(n, [segment(k, a) for k, a in enumerate(c)], ratio_bound=C)
                 for c in cubes]
    return ConcatenatedGrid(n, parts, cube_list, ratio_bound=C)


@dataclass
class GridValidationReport:
    """Pass/fail per structural check; failures are reported, not raised."""

    checks: dict[str, bool]
    details: dict[str, str]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _validate_product(part: ProductGrid, n: int, C: float, checks, details) -> None:
    """Edge-length and volume checks of one part, and-ed into ``checks``."""
    for k in range(part.d):
        lengths = part.axis_lengths(k)
        if lengths.min() < 1.0 / (C * n) - _TOL or lengths.max() > 1.0 / n + _TOL:
            checks["edge_lengths"] = False
            details.setdefault("edge_lengths", (
                f"axis {k}: lengths span [{lengths.min():.3e}, {lengths.max():.3e}], "
                f"required [{1.0 / (C * n):.3e}, {1.0 / n:.3e}]"))
            break
    if part.max_bin_volume > n ** (-part.d) + _TOL:
        checks["volume_bound"] = False
        details.setdefault("volume_bound", (
            f"max bin volume {part.max_bin_volume:.3e} > 1/n^d = {n ** (-part.d):.3e}"))


def validate_grid(level: GridLevel) -> GridValidationReport:
    """Check disjointness, coverage, edge-length bounds and the volume bound.

    Edge lengths and bin volumes are checked part by part; the parts must
    be pairwise disjoint, lie inside ``level.domain_bounds`` and cover
    ``level.domain_volume``.  Returns a report; nothing is raised on failure.
    """
    checks = dict.fromkeys(("edge_lengths", "disjoint", "coverage", "volume_bound"), True)
    details: dict[str, str] = {}
    for part in level.parts:
        _validate_product(part, level.n, level.ratio_bound, checks, details)
    boxes = np.array([p.domain_bounds for p in level.parts])  # (parts, d, lo/hi)
    overlap = _overlapping_boxes(boxes[:, :, 0], boxes[:, :, 1])
    if overlap is not None:
        checks["disjoint"] = False
        a, b = (level.parts[i].domain_bounds for i in overlap)
        details["disjoint"] = f"parts {a} and {b} overlap"
    dom = np.array(level.domain_bounds)
    inside = bool(np.all((dom[:, 0] - _TOL <= boxes[:, :, 0])
                         & (boxes[:, :, 1] <= dom[:, 1] + _TOL)))
    covered = sum(p.domain_volume for p in level.parts)
    checks["coverage"] = inside and abs(covered - level.domain_volume) <= 1e-12 * max(
        1.0, level.domain_volume)
    if not checks["coverage"]:
        details["coverage"] = (f"parts cover volume {covered!r}, the domain "
                               f"{level.domain_volume!r}; all inside the domain "
                               f"bounds: {inside}")
    return GridValidationReport(checks, details)


def locate_bin(level: GridLevel, x) -> int:
    """Index of the unique bin containing x (half-open convention)."""
    return level.locate(x)
