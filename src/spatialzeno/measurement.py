"""Two-stage measurement: coarse position readout, then a rank-one projection.

The position stage records which bin B_j of a grid level contains the
particle (outcome X); the state collapses to P_j psi / ||P_j psi||.  The
second stage measures |phi><phi| (outcome Y in {0,1}).  The probability
of Y=1 is the sum over bins of |<phi|P_j psi>|^2 for pure states, and the
spectral-weighted sum of pure results for density states: ``_pair_pass``
and ``_mass_pass`` loop over the spectral terms (p_l, psi_l), a pure state
being the single term (1.0, psi), and add up the scaled results in order.

Every grid level is a list of product grids, and for separable-sum states
the bin amplitudes of a product grid factor axis by axis, so totals are
computed from per-axis cell-integral arrays without enumerating bins;
per-bin tables are materialised only below a size guard (or on explicit
request).  A pure state of one product term has a product law over the
bins, so ``sample_xy`` draws it axis by axis without any per-bin table.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import Bin, GridLevel, ProductGrid, _int, _seed
from .quadrature import (
    DEFAULT_CONFIG,
    PAIR_BLOCK,
    QuadratureConfig,
    _pair_data,
    _region_cells,
    _region_total,
    _root_gap,
    bin_inner_product,
    bin_mass,
)
from .states import DensityState, WaveFunction, _term_pairs, exact_cell_integrals

__all__ = [
    "MeasurementResult",
    "JointDistribution",
    "SampleBatch",
    "ZeroMassBinError",
    "TableTooLargeError",
    "collapse",
    "prob_y1_given_bin",
    "prob_y1_pure",
    "prob_y1_mixed",
    "joint_distribution",
    "sample_xy",
    "bar_norm_squared",
]

logger = logging.getLogger(__name__)

# per-bin tables above this size are dropped unless explicitly requested
PER_BIN_LIMIT = 10 ** 6
# draws per chunk of the sampler: its uniforms, index, bucket and gather
# arrays have this length whatever the draw count
DRAW_BLOCK = 2 ** 14
# vectorised guide-table steps per draw; a key with more entries of its
# bucket at or below it goes to the bisection of its bucket
_GUIDE_STEPS = 2


class ZeroMassBinError(ValueError):
    """The state carries no mass in the requested bin."""


class TableTooLargeError(MemoryError):
    """The per-bin tables asked for would not fit in physical memory."""


def _physical_memory() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return float("inf")


# per-bin tables larger than this many bytes are refused before any is built
TABLE_BYTE_LIMIT = _physical_memory()
# bytes per bin at the peak of building the kept tables (tracemalloc, the
# worst case): ``prob_y1_pure`` keeps the complex128 amplitudes, then builds
# complex psi-psi masses as a complex128 sum in a reused complex128 term
# buffer (``_per_bin_arrays`` with two or more term pairs).  The joint
# table and the sampler peak lower: they square real amplitudes in place
# and hold the float64 P(Y=1) and mass tables.
_TABLE_BYTES_PER_BIN = 16 + 16 + 16
# bytes per term pair and cell of a kept float64 pair table: the cells of
# every axis, and per cell of one block its phase tables and pair
# integrals (``_kept_cell_bytes`` counts a complex128 table at twice this)
_CELL_BYTES = 8
# a broadcast ufunc, such as an outer product of ``_per_bin_arrays`` on a
# part of two or more axes, iterates through buffers of np.getbufsize()
# elements, one per operand it buffers: at most three complex128 ones (two
# were measured, 259 KB beside the 4.3 MB tables of a 2 x 2-term
# exponential tensor on a 300 x 300 grid)
_BUFFERED_OPERANDS = 3
# a call's own objects beside its tables and buffers, so the count bounds
# the peak on a level of one bin too: a few KB per call, and the Python
# objects of the pair walks (the term pairs, and per axis their factor
# pairs and distinct-pair lists), _PAIR_OBJECT_BYTES per term pair of the
# largest table and per axis, plus one.  Sized from tracemalloc on
# uniform_grid(n, d), n = 1..16, d = 1..3: the peaks of prob_y1_pure,
# prob_y1_mixed, joint_distribution and a density's sample_xy exceed the
# rest of the count by at most 6.6 KB for one-term states, and by 250 to
# 420 B per psi-psi pair for superpositions of 2 to 64 terms.  The P x P
# Grams of a phi-psi pass are not counted: they are built whether or not
# a table is kept.
_CALL_BYTES = 8192
_PAIR_OBJECT_BYTES = 192


@dataclass
class MeasurementResult:
    """Outcome probabilities of the two-stage measurement at one resolution."""

    n: int
    level: GridLevel
    p_y1: float
    p_y1_raw: float
    p_y1_error_bound: float
    mass_total: float
    per_bin_amplitude: np.ndarray | None
    per_bin_mass: np.ndarray | None
    wall_time: float

    @property
    def num_bins(self) -> int:
        return self.level.num_bins


@dataclass
class JointDistribution:
    """Per-bin table P(X=j, Y=y) for y in {0, 1}."""

    level: GridLevel
    p_y1_bins: np.ndarray
    p_y0_bins: np.ndarray

    @property
    def p_y1(self) -> float:
        return float(self.p_y1_bins.sum())

    @property
    def marginal_x(self) -> np.ndarray:
        return self.p_y1_bins + self.p_y0_bins

    @property
    def total(self) -> float:
        return float(self.marginal_x.sum())


@dataclass
class SampleBatch:
    """i.i.d. draws of (X bin index, Y outcome): ``x`` is int32 on a level
    of fewer than 2^31 bins and int64 from there, ``y`` int8, so a draw
    takes 5 B (9 B from 2^31 bins)."""

    x: np.ndarray
    y: np.ndarray
    seed: int
    stream: int

    @property
    def count(self) -> int:
        return self.x.size

    def as_tuples(self) -> list[tuple[int, int]]:
        return list(zip(self.x.tolist(), self.y.tolist()))


# ---------------------------------------------------------------------------
# factorised amplitude machinery


def _gram_form(weights: np.ndarray, grams) -> float:
    """Re(w^T (G_0 * ... * G_{d-1}) conj(w)), the product taken entrywise:
    sum_j |sum_a w_a prod_k M_a,k[j_k]|^2 (per-cell lengths folded in by
    ``gram_bar``)."""
    H = grams[0]
    for G in grams[1:]:
        H = H * G
    return float(np.real(np.einsum("a,ab,b->", weights, H, np.conj(weights))))


def _error_bound(weights: np.ndarray, sq: np.ndarray, extra: np.ndarray) -> float:
    """sum_ab |w_a||w_b| (s_hi_a s_hi_b - s_a s_b) for (P, d) per-axis sums
    ``sq`` and ``extra`` (``_root_gap``)."""
    s, s_hi, delta = _root_gap(sq, extra)
    a = np.abs(weights)
    # (sum a s_hi)^2 - (sum a s)^2 = (sum a (s_hi - s)) (sum a s_hi + sum a s)
    return float(np.add.reduce(a * delta)
                 * (np.add.reduce(a * s_hi) + np.add.reduce(a * s)))


def _per_bin_arrays(weights, axes_cells) -> np.ndarray:
    """Materialise the flat per-bin amplitude array (C order over axes).

    The array is sum_a w_a outer_k(M_a,k), raveled.  The first term's outer
    product is built in the output and scaled there; each later term's is
    written into one reused buffer, scaled there and added into the output.
    A single term so holds one full-size array, several hold two; the
    values are bitwise those of summing the scaled outer products one by one.
    """
    shape = tuple(cells.shape[1] for cells in axes_cells)
    out = np.empty(shape, dtype=np.result_type(weights, *axes_cells))
    buf = np.empty_like(out) if len(weights) > 1 else None
    for a, w in enumerate(weights):
        term = axes_cells[0][a]
        if len(shape) > 1:
            for cells in axes_cells[1:-1]:
                term = np.multiply.outer(term, cells[a])
            term = np.multiply.outer(term, axes_cells[-1][a], out=out if a == 0 else buf)
        if a == 0:
            np.multiply(w, term, out=out)
        else:
            np.add(out, np.multiply(w, term, out=buf), out=out)
    return out.ravel()


def _table_bytes(level: GridLevel, bytes_per_bin: int, tables) -> int:
    """The bytes the table guard counts: ``bytes_per_bin`` for every bin,
    the largest kept cell table of the (bra, ket) pairs ``tables``
    (``_kept_cell_bytes``) on the widest part, the ufunc buffers of the
    largest part of two or more axes (``_BUFFERED_OPERANDS``), and the
    call's own objects (``_CALL_BYTES``, and ``_PAIR_OBJECT_BYTES`` per
    term pair of the largest table and per axis, plus one)."""
    cells = max(sum(part.shape) + min(max(part.shape), PAIR_BLOCK)
                for part in level.parts)
    cell_bytes = max((_kept_cell_bytes(bra, ket, level) for bra, ket in tables), default=0)
    buffered = max((min(np.getbufsize(), part.num_bins) for part in level.parts
                    if part.d > 1), default=0)
    pairs = max((len(bra.terms) * len(ket.terms) for bra, ket in tables), default=0)
    return (level.num_bins * bytes_per_bin + cell_bytes * cells
            + _BUFFERED_OPERANDS * 16 * buffered
            + _CALL_BYTES + _PAIR_OBJECT_BYTES * (level.d + 1) * pairs)


def _should_keep(level: GridLevel, keep,
                 bytes_per_bin: int = _TABLE_BYTES_PER_BIN, tables=()) -> bool:
    """Whether to build per-bin tables; raises TableTooLargeError when
    they would exceed TABLE_BYTE_LIMIT (``_table_bytes``)."""
    keep = level.num_bins <= PER_BIN_LIMIT if keep == "auto" else bool(keep)
    if not keep:
        return False
    nbytes = _table_bytes(level, bytes_per_bin, tables)
    if nbytes > TABLE_BYTE_LIMIT:
        raise TableTooLargeError(
            f"per-bin tables for {level.num_bins} bins need {nbytes:.3g} bytes, "
            f"more than the {TABLE_BYTE_LIMIT:.3g} bytes of physical memory")
    return True


def _require_tables(level: GridLevel, keep, bytes_per_bin: int = _TABLE_BYTES_PER_BIN,
                    tables=(), option: str = "keep_per_bin") -> None:
    """``_should_keep`` for a call that cannot run without the per-bin
    tables: raises ValueError, naming ``option``, where they are not kept."""
    if _should_keep(level, keep, bytes_per_bin, tables):
        return
    if keep == "auto":
        raise ValueError(f"per-bin tables for {level.num_bins} bins exceed the size "
                         f"guard of {PER_BIN_LIMIT} bins; pass {option}=True to override")
    raise ValueError(f"this call needs per-bin tables, and {option}={keep!r} "
                     "does not request them")


def _joined(parts) -> np.ndarray:
    """The parts' flat per-bin tables end to end; a single contiguous table
    is returned as it is, not copied."""
    return np.concatenate(parts) if len(parts) > 1 else np.ascontiguousarray(parts[0])


def _check_pair(state, phi: WaveFunction, level: GridLevel) -> None:
    if state.domain != phi.domain:
        raise ValueError("psi and phi live on different domains")
    if state.d != level.d:
        raise ValueError("state dimension does not match the grid")


def _spectrum(state):
    """The spectral terms (p_l, psi_l) of a density state; a pure state is
    the single term (1.0, psi)."""
    return state.terms if isinstance(state, DensityState) else ((1.0, state),)


def _kept_cell_bytes(bra, ket, level: GridLevel) -> int:
    """Bytes per cell of the kept cell table of the term pairs of bra and
    ket: _CELL_BYTES per pair when every pair's cells are float64, and
    2 * _CELL_BYTES, complex128, when one pair's are complex.

    Each distinct factor pair's closed form on the level's hull, one cell
    per axis, has the dtype of its cells; a pair without a closed form
    counts as complex.
    """
    pairs = list(_term_pairs(bra, ket))
    hull = [np.array(bounds) for bounds in level.domain_bounds]
    for f, g, k in {(bf[k], kf[k], k) for _, bf, kf in pairs for k in range(level.d)}:
        cells = exact_cell_integrals(f, g, hull[k])
        if cells is None or np.iscomplexobj(cells):
            return 2 * _CELL_BYTES * len(pairs)
    return _CELL_BYTES * len(pairs)


def _kept_tables(state, phi):
    """The (bra, ket) pairs of the kept pair tables: phi-psi_l and
    psi_l-psi_l for every spectral term."""
    return [pair for _, psi in _spectrum(state) for pair in ((phi, psi), (psi, psi))]


def _masses(w: np.ndarray, cells) -> np.ndarray:
    """The flat per-bin masses Re(sum_a w_a outer_k M_a,k) of psi-psi term
    pairs of weights ``w`` and per-axis cells ``cells``."""
    if any(np.iscomplexobj(c) for c in cells):
        return np.real(_per_bin_arrays(w, cells))
    # real cells: Re(w) M is Re(w M) bit for bit, built in float64
    return _per_bin_arrays(w.real, cells)


def _mass_pass(state, level: GridLevel, cfg: QuadratureConfig, keep: bool):
    """(mass_total, masses|None): sum_l p_l ||P_j psi_l||^2 over the
    spectral terms, the total from each part's hull and the per-bin masses
    only when ``keep`` (the only case that walks the level's psi-psi cells);
    each term's masses are scaled and added into the sum in place.

    A part of one bin is its own hull, so its masses are read from the
    hull's cells: one walk of it, not two."""
    mass_total, masses = 0.0, None
    for p_l, psi in _spectrum(state):
        hull_masses, parts = [], []
        for part in level.parts:
            # the part's hull, one cell [bp[0], bp[-1]] per axis
            w, cells, _ = _region_cells(psi, psi, [bp[[0, -1]] for bp in part.breakpoints],
                                        cfg)
            hull_masses.append(_region_total(w, cells).real)
            if keep:
                if part.num_bins > 1:  # else the hull's cells are the part's
                    w, axes = _pair_data(psi, psi, part.breakpoints, cfg, keep=True,
                                         gram=False)
                    cells = [ax.cells for ax in axes]
                parts.append(_masses(w, cells))
        mass_total += p_l * sum(hull_masses)
        if keep:
            term = _joined(parts)
            del parts
            term *= p_l
            masses = term if masses is None else np.add(masses, term, out=masses)
            del term  # it goes before the next term's masses are built
    return mass_total, masses


def _clamp_probability(raw: float) -> float:
    if raw < 0.0 or raw > 1.0:
        logger.debug("probability %r clamped to [0, 1]", raw)
    return min(max(raw, 0.0), 1.0)


# error floor: closed-form cell integrals are exact up to roundoff
_EPS_FLOOR = 1e-15


class _PairTotals(NamedTuple):
    """Everything derived from <phi|P_j psi> on one grid level."""

    p_y1: float
    p_y1_raw: float
    error_bound: float
    table: np.ndarray | None
    bar_norm_sq: float | None


def _part_pairs(psi: WaveFunction, phi: WaveFunction, part: ProductGrid,
                cfg: QuadratureConfig, keep: bool, with_bar: bool, squared: bool):
    """(P(Y=1), error bound, bar norm, amplitudes|None) of psi on one
    product part, from one blocked ``_pair_data`` walk.  With ``squared``,
    real weights and cells give float64 amplitudes: their squares are
    those of the complex128 ones bit for bit."""
    w, axes = _pair_data(phi, psi, part.breakpoints, cfg, keep=keep, with_bar=with_bar)
    error = 0.0
    # the per-axis sums are built only when a pair reports an error:
    # closed forms report none
    if any(ax.extra.any() for ax in axes):
        sq = np.array([ax.gram.diagonal().real for ax in axes]).T
        error = _error_bound(w, sq, np.array([ax.extra for ax in axes]).T)
    table = None
    if keep:
        cells = [ax.cells for ax in axes]
        real = squared and not w.imag.any() and not any(np.iscomplexobj(c) for c in cells)
        table = _per_bin_arrays(w.real if real else w, cells)
    return (_gram_form(w, [ax.gram for ax in axes]), error,
            _gram_form(w, [ax.gram_bar for ax in axes]) if with_bar else 0.0,
            table)


def _pair_pass(state, phi: WaveFunction, level: GridLevel, cfg: QuadratureConfig,
               keep: bool, with_bar: bool, squared: bool = False) -> _PairTotals:
    """P(Y=1), its error bound, the bar norm (``with_bar``) and a per-bin
    table (``keep``) of a pure or density state, from one phi-psi pass per
    spectral term and product part; no full-length per-axis array exists
    unless a table is kept.

    The table is the amplitudes <phi|P_j psi> of a pure state, or with
    ``squared`` sum_l p_l |<phi|P_j psi_l>|^2.  Amplitudes do not mix, so a
    density state keeps none and reports no bar norm; its dropped spectral
    tail adds ||phi||^2 (1 - sum p_l) to the error bound.
    """
    _check_pair(state, phi, level)
    pure = not isinstance(state, DensityState)
    keep, with_bar = keep and (squared or pure), with_bar and pure
    p_raw, err, bar, table = 0.0, 0.0, 0.0, None
    for p_l, psi in _spectrum(state):
        raws, errs, bars, amps = zip(*(_part_pairs(psi, phi, part, cfg, keep, with_bar,
                                                   squared) for part in level.parts))
        p_raw += p_l * sum(raws)
        err += p_l * max(sum(errs), _EPS_FLOOR * level.num_bins ** 0.5)
        bar += p_l * sum(bars)
        if keep:
            term = _joined(amps)
            del amps
            if squared:
                # |a|^2 p_l, built in place of real amplitudes (a a is
                # |a|^2 bit for bit) or of the float64 |a| of complex ones
                if np.iscomplexobj(term):
                    term = np.abs(term)
                np.square(term, out=term)
                term *= p_l
            table = term if table is None else np.add(table, term, out=table)
            del term  # it goes before the next term's table is built
    tail = 0.0 if pure else state.tail_mass
    if tail > 0.0:
        err += phi.norm_squared() * tail
    return _PairTotals(p_y1=_clamp_probability(p_raw), p_y1_raw=p_raw,
                       error_bound=float(err), table=table,
                       bar_norm_sq=bar if with_bar else None)


def _prob_y1(state, phi, level, cfg, keep_per_bin) -> MeasurementResult:
    t0 = time.perf_counter()
    _check_pair(state, phi, level)  # before the guard reads the pair tables
    keep = _should_keep(level, keep_per_bin, tables=_kept_tables(state, phi))
    r = _pair_pass(state, phi, level, cfg, keep, with_bar=False)
    mass_total, masses = _mass_pass(state, level, cfg, keep)
    return MeasurementResult(
        n=level.n, level=level, p_y1=r.p_y1, p_y1_raw=r.p_y1_raw,
        p_y1_error_bound=r.error_bound, mass_total=float(mass_total),
        per_bin_amplitude=r.table, per_bin_mass=masses,
        wall_time=time.perf_counter() - t0)


def prob_y1_pure(psi: WaveFunction, phi: WaveFunction, level: GridLevel,
                 cfg: QuadratureConfig = DEFAULT_CONFIG,
                 keep_per_bin="auto") -> MeasurementResult:
    """P(Y=1) = sum_j |<phi|P_j psi>|^2 for a pure initial state.

    ``keep_per_bin`` controls whether the per-bin amplitude and mass
    tables are stored ("auto": only up to PER_BIN_LIMIT bins).
    """
    return _prob_y1(psi, phi, level, cfg, keep_per_bin)


def prob_y1_mixed(rho: DensityState, phi: WaveFunction, level: GridLevel,
                  cfg: QuadratureConfig = DEFAULT_CONFIG,
                  keep_per_bin="auto") -> MeasurementResult:
    """P(Y=1) = sum_l p_l sum_j |<phi|P_j psi_l>|^2 for a density state.

    The dropped spectral tail contributes at most ||phi||^2 * (1 - sum p_l),
    which is added to the error bound.  Amplitudes do not mix linearly, so
    only the per-bin masses are kept; each term's are built without its
    amplitudes and scaled and added into the sum in place.
    """
    return _prob_y1(rho, phi, level, cfg, keep_per_bin)


def bar_norm_squared(psi: WaveFunction, phi: WaveFunction, level: GridLevel,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """sum_j |<phi|P_j psi>|^2 / |B_j|: the squared L2 norm of the bin
    average of conj(phi)*psi (disjoint supports make the identity exact)."""
    return _pair_pass(psi, phi, level, cfg, keep=False, with_bar=True).bar_norm_sq


def _bin_mass_or_raise(psi: WaveFunction, cell: Bin, cfg: QuadratureConfig) -> float:
    """``bin_mass``; raises ZeroMassBinError when the bin carries no mass."""
    mass = bin_mass(psi, cell, cfg)
    if mass <= 0.0:
        raise ZeroMassBinError(f"state {psi.label!r} has zero mass in bin "
                               f"{cell.lower}..{cell.upper}")
    return mass


def collapse(psi: WaveFunction, cell: Bin,
             cfg: QuadratureConfig = DEFAULT_CONFIG) -> WaveFunction:
    """Post-measurement state P_B psi / ||P_B psi|| after outcome X in B.

    Raises ZeroMassBinError when the bin carries no mass.
    """
    mass = _bin_mass_or_raise(psi, cell, cfg)
    out = psi.restrict(cell, 1.0 / np.sqrt(mass))
    nsq = out.norm_squared()
    if abs(nsq - 1.0) > 1e-9:
        raise RuntimeError(f"collapsed state norm^2 = {nsq!r}; "
                           "exact and numeric bin integrals disagree")
    return out


def prob_y1_given_bin(psi: WaveFunction, phi: WaveFunction, cell: Bin,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """|<phi|psi'>|^2 for the collapsed state psi' of the bin."""
    mass = _bin_mass_or_raise(psi, cell, cfg)
    amp = bin_inner_product(phi, psi, cell, cfg).value
    return _clamp_probability(abs(amp) ** 2 / mass)


def _per_bin_tables(state, phi, level, cfg, keep_per_bin):
    """Per-bin (masses, p1): sum_l p_l ||P_j psi_l||^2 and
    sum_l p_l |<phi|P_j psi_l>|^2 over the spectral terms.

    The P(Y=1) table is built first, so a pure state's amplitudes are gone
    before the masses are built.
    """
    _check_pair(state, phi, level)  # before the guard reads the pair tables
    _require_tables(level, keep_per_bin, tables=_kept_tables(state, phi))
    p1 = _pair_pass(state, phi, level, cfg, keep=True, with_bar=False, squared=True).table
    return _mass_pass(state, level, cfg, keep=True)[1], p1


def joint_distribution(state, phi: WaveFunction, level: GridLevel,
                       cfg: QuadratureConfig = DEFAULT_CONFIG,
                       keep_per_bin="auto") -> JointDistribution:
    """Exact joint table P(X=j, Y=y); rows sum to the bin masses."""
    masses, p1 = _per_bin_tables(state, phi, level, cfg, keep_per_bin)
    np.minimum(p1, masses, out=p1)  # Cauchy-Schwarz per bin, up to roundoff
    p0 = np.subtract(masses, p1, out=masses)
    np.maximum(p0, 0.0, out=p0)
    return JointDistribution(level=level, p_y1_bins=p1, p_y0_bins=p0)


def _buckets(v: np.ndarray, n: int) -> np.ndarray:
    """Guide bucket ``int(v * n)`` of values in [0, 1]: monotone in v, so
    a sorted CDF has its entries of one bucket side by side."""
    return (v * n).astype(np.intp)


def _guide(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a sorted CDF of n entries (Chen & Asau 1974): ``g[k]``
    is the number of entries whose bucket is below k, for k = 0..n+1.

    int32 (4 B per entry), built DRAW_BLOCK entries at a time: ``g[b + 1]``
    is set to one past the last entry of bucket b, and a running maximum in
    place carries it over the empty buckets above.
    """
    n = cdf.size
    g = np.zeros(n + 2, dtype=np.int32 if n < 2 ** 31 - 1 else np.intp)
    for s in range(0, n, DRAW_BLOCK):
        b = _buckets(cdf[s:s + DRAW_BLOCK], n)
        last = np.flatnonzero(b[:-1] != b[1:])  # where a bucket ends within the chunk
        g[b[last] + 1] = last + (s + 1)
        g[b[-1] + 1] = s + b.size
    return np.maximum.accumulate(g, out=g)


def _bisect(cdf: np.ndarray, u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per key, the first index i in [lo, hi] with i == hi or cdf[i] > u,
    in place of lo, where cdf[lo:hi] is sorted and its entries below the
    answer are <= u: a bisection vectorised over the keys.

    Steps of halving powers of two, from the largest within the widest
    range down to 1: a key steps on when the step stays within its range
    and the last entry it steps over is <= u.  No entry outside a key's
    range is compared, so the ranges may be the runs of separate CDFs.
    """
    step = 1 << int((hi - lo).max()).bit_length()
    while step > 1:
        step >>= 1
        end = lo + step
        ok = end <= hi
        ok &= cdf.take(end - 1, mode="clip") <= u
        np.add(lo, step, out=lo, where=ok)
    return lo


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray,
                 guide: np.ndarray | None = None) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")``, element for element, for
    a sorted CDF and keys in [0, 1]; ``guide`` is ``_guide(cdf)``.

    Indexed search: the entries of a lower bucket than u's are all below u
    and those of a higher one all above it, so the answer is ``guide[b]``
    plus the entries of u's bucket b that are <= u.  _GUIDE_STEPS
    vectorised steps count them; a key that would still step further is
    answered by bisecting its bucket, between where the steps stopped and
    ``guide[b + 1]``.  Keys past the last entry step onto the clipped index
    n - 1 and are bisected as well.
    """
    if guide is None:
        guide = _guide(cdf)
    out = guide.take(_buckets(u, cdf.size)).astype(np.intp)
    for _ in range(_GUIDE_STEPS):
        out += cdf.take(out, mode="clip") <= u
    more = np.flatnonzero(cdf.take(out, mode="clip") <= u)
    if more.size:
        keys = u[more]
        hi = guide.take(_buckets(keys, cdf.size) + 1).astype(np.intp)
        out[more] = _bisect(cdf, keys, np.minimum(out[more], hi), hi)
    return out


def _uniform_chunks(seq: np.random.SeedSequence, start: int, count: int):
    """Uniforms ``start`` to ``start + count`` of the PCG64 stream seeded
    by ``seq``, as (offset, chunk) pairs of DRAW_BLOCK uniforms in one
    reused buffer: the stream is opened at ``start`` by PCG64's jump-ahead,
    so the chunks are those of one ``random`` call over the whole range."""
    stream = np.random.PCG64(seq)
    stream.advance(start)
    draw = np.random.Generator(stream).random
    buf = np.empty(min(count, DRAW_BLOCK))
    for s in range(0, count, DRAW_BLOCK):
        chunk = buf[:min(DRAW_BLOCK, count - s)]
        draw(out=chunk)
        yield s, chunk


class _Axis(NamedTuple):
    """One search stage of a product state's draw: the parts of the level,
    or one axis over the parts laid end to end.

    A part's stretch of ``cdf`` is its own normalised CDF (left as summed
    where it has no mass); ``low`` is the entry before each (0 at a
    stretch's start) and ``width`` their difference.  ``start`` and
    ``size`` place each part's stretch on a level of several parts;
    ``guide`` is ``_guide(cdf)`` on a level of one.  ``mass`` holds the
    psi-psi cells and ``amps`` the (P, cells) phi-psi cells of the axis.
    """

    cdf: np.ndarray
    low: np.ndarray
    width: np.ndarray
    guide: np.ndarray | None
    start: np.ndarray | None
    size: np.ndarray | int
    mass: np.ndarray | None = None
    amps: np.ndarray | None = None


# the largest residual, so every key lies below a CDF's last entry 1.0
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _steps(masses: np.ndarray):
    """(cdf, low, width, total) of a run of masses: the CDF, normalised by
    its last entry ``total`` when that is positive, the entry before each
    and their difference."""
    cdf = np.cumsum(masses)
    total = float(cdf[-1])
    if total > 0.0:
        cdf /= cdf[-1]
    low = np.concatenate(([0.0], cdf[:-1]))
    return cdf, low, cdf - low, total


def _gathered(prod, cells: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``prod * cells[g]``, in place of ``prod`` where its dtype allows;
    the first axis (``prod`` None) starts the product."""
    vals = cells.take(g)
    if prod is None:
        return vals
    if np.iscomplexobj(vals) and not np.iscomplexobj(prod):
        prod = prod.astype(complex)
    return np.multiply(prod, vals, out=prod)


class _AxisSampler:
    """The (X, Y) law of a pure state of one product term, axis by axis.

    The state's bin masses are w prod_k N_k[j_k] on every part, N_k the
    psi-psi cells of axis k, so X is one part and one cell per axis: a
    draw's uniform u picks the part from the parts' masses, then its
    residual (u - F[j - 1]) / (F[j] - F[j - 1]) in the chosen entry picks
    axis 0 from F_0 (the cells times w), and so on down the axes.  No
    per-bin table is built: each axis holds its cells and its CDF.  Y's
    P(Y=1 | X) = |sum_a w_a prod_k A_a,k[j_k]|^2 / mass is assembled per
    draw from the phi-psi cells A, in the association, term order and
    real or complex arithmetic of ``_per_bin_arrays`` and ``_masses``, so
    it is the joint table's value bit for bit.
    """

    def __init__(self, psi: WaveFunction, phi: WaveFunction, level: GridLevel,
                 cfg: QuadratureConfig) -> None:
        d, parts = level.d, level.parts
        per_axis = [[] for _ in range(d)]  # per axis, per part: (steps, mass, amps)
        part_mass = []
        for part in parts:
            w, mass_axes = _pair_data(psi, psi, part.breakpoints, cfg, keep=True, gram=False)
            w_amp, amp_axes = _pair_data(phi, psi, part.breakpoints, cfg,
                                         keep=True, gram=False)
            totals = []
            for k, (ma, aa) in enumerate(zip(mass_axes, amp_axes)):
                # axis 0 carries the weight, as a 1-d level's masses do
                *steps, total = _steps(_masses(w, [ma.cells]) if k == 0
                                       else np.real(ma.cells[0]))
                totals.append(total)
                per_axis[k].append((steps, ma.cells[0], aa.cells))
            part_mass.append(float(np.prod(totals)) if min(totals) > 0.0 else 0.0)
        self.w_mass, self.w_amp = w, w_amp
        self.offsets = np.array([lo for lo, _ in level.index_ranges], dtype=np.int64)
        cdf, low, width, total = _steps(np.array(part_mass))
        if not total > 0.0:
            raise ZeroMassBinError("the state has no mass on the level")
        self.parts = _Axis(cdf, low, width, _guide(cdf), None, cdf.size)
        self.axes = [self._axis(runs, len(parts) == 1) for runs in per_axis]

    @staticmethod
    def _axis(runs, single: bool) -> _Axis:
        steps, mass, amps = zip(*runs)
        if single:
            (cdf, low, width), = steps
            return _Axis(cdf, low, width, _guide(cdf), None, cdf.size, mass[0], amps[0])
        size = np.array([m.size for m in mass])
        start = np.concatenate(([0], np.cumsum(size)[:-1]))
        cdf, low, width = (np.concatenate(a) for a in zip(*steps))
        return _Axis(cdf, low, width, None, start, size,
                     np.concatenate(mass), np.concatenate(amps, axis=1))

    @staticmethod
    def _search(ax: _Axis, keys: np.ndarray, part) -> np.ndarray:
        """Per key, the index of its entry in ``ax.cdf``: the guided search
        of a single run, or the bisection of the key's part's run."""
        if ax.start is None:
            return _inverse_cdf(ax.cdf, keys, ax.guide)
        lo = ax.start.take(part)
        return _bisect(ax.cdf, keys, lo, lo + ax.size.take(part))

    @staticmethod
    def _rescale(keys: np.ndarray, ax: _Axis, g: np.ndarray) -> None:
        """Each key replaced, in place, by its residual in entry g."""
        keys -= ax.low.take(g)
        keys /= ax.width.take(g)
        np.minimum(keys, _BELOW_ONE, out=keys)

    def draw(self, u: np.ndarray, v: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """Write into x, y the draws of X uniforms u, overwritten by their
        residuals, and Y uniforms v."""
        part = None
        if self.parts.cdf.size > 1:
            part = self._search(self.parts, u, None)
            self._rescale(u, self.parts, part)
        mass, amps = None, [None] * self.w_amp.size
        for k, ax in enumerate(self.axes):
            g = self._search(ax, u, part)
            if k + 1 < len(self.axes):
                self._rescale(u, ax, g)
            j = g if ax.start is None else g - ax.start.take(part)
            if k == 0:
                x[...] = j
            else:
                x *= ax.size if ax.start is None else ax.size.take(part)
                x += j
            mass = _gathered(mass, ax.mass, g)
            amps = [_gathered(t, cells, g) for t, cells in zip(amps, ax.amps)]
            del g, j  # before Y's arrays are built
        if part is not None:
            x += self.offsets.take(part)
        # Re(w prod) as _masses builds it, sum_a w_a prod_a as _per_bin_arrays
        mass = (np.real(self.w_mass[0] * mass) if np.iscomplexobj(mass)
                else self.w_mass.real[0] * mass)
        complex_amps = self.w_amp.imag.any() or np.iscomplexobj(amps[0])
        w = self.w_amp if complex_amps else self.w_amp.real
        p1 = None
        for w_a, t in zip(w, amps):
            term = np.multiply(w_a, t, out=t if t.dtype == np.result_type(w_a, t) else None)
            p1 = term if p1 is None else np.add(p1, term, out=p1)
        del amps, term
        if np.iscomplexobj(p1):
            p1 = np.abs(p1)
        np.square(p1, out=p1)
        p1[mass <= 0] = 0.0
        np.divide(p1, mass, out=p1, where=mass > 0)
        y[...] = v < p1


def _table_sampler(state, phi, level, cfg, keep_per_bin):
    """The draw of a state's joint tables (``_per_bin_tables``): the CDF
    in place of the masses and P(Y=1 | X) in place of the P(Y=1) table."""
    masses, cond = _per_bin_tables(state, phi, level, cfg, keep_per_bin)
    cond[masses <= 0] = 0.0
    np.divide(cond, masses, out=cond, where=masses > 0)
    cdf = np.cumsum(masses, out=masses)
    if not cdf[-1] > 0.0:
        raise ZeroMassBinError("the state has no mass on the level")
    cdf /= cdf[-1]
    guide = _guide(cdf)

    def draw(u, v, x, y):
        x[...] = xs = _inverse_cdf(cdf, u, guide)
        y[...] = v < cond[xs]

    return draw


def _draw(state, phi, level, cfg, keep_per_bin, seq, x, y):
    """Fill x, y with the (X, Y) draws of a pure or density state: X by
    inverse CDF at the first ``x.size`` uniforms of the stream of ``seq``,
    Y = 1 when the uniform ``x.size`` further on is below P(Y=1 | X).

    A pure state of one product term draws axis by axis (``_AxisSampler``):
    its bin masses are a product law, so it builds no per-bin table, and
    ``keep_per_bin`` and the table guard are not read.  Every other state,
    a superposition or a density state, draws from the tables of
    ``joint_distribution`` (``_table_sampler``; a density state's are the
    mixed sums over its spectral terms).  The draws are made DRAW_BLOCK at
    a time from two stream cursors, so the tables or per-axis CDFs and one
    chunk are all this adds to the draw arrays.
    """
    if isinstance(state, DensityState) or len(state.terms) > 1:
        draw = _table_sampler(state, phi, level, cfg, keep_per_bin)
    else:
        draw = _AxisSampler(state, phi, level, cfg).draw
    for (s, u_x), (_, u_y) in zip(_uniform_chunks(seq, 0, x.size),
                                  _uniform_chunks(seq, x.size, x.size)):
        at = slice(s, s + u_x.size)
        draw(u_x, u_y, x[at], y[at])


def sample_xy(state, phi: WaveFunction, level: GridLevel,
              cfg: QuadratureConfig = DEFAULT_CONFIG, count: int = 1,
              seed: int = 0, stream: int = 0,
              keep_per_bin="auto") -> SampleBatch:
    """i.i.d. draws of (X, Y): X by inverse CDF over the bin masses, then Y
    as a Bernoulli draw with the collapsed state's conditional probability.

    Deterministic for fixed (seed, stream); distinct streams are
    independent substreams for concurrent use.  Zero-mass bins are never
    drawn, and a level where the state has no mass raises ZeroMassBinError.
    X follows the normalised marginal of ``joint_distribution`` and Y given
    X its conditional, also where the level holds only part of the state's
    mass.  A non-integral ``count``, a ``count`` below 1, a negative or
    non-integral ``seed`` or ``stream``, and a level of more than 2^63 bins
    (a bin index beyond int64) raise ValueError before any table is built.

    Two paths, chosen by the state's term structure.  A pure state of one
    product term (any phi) draws X one axis at a time from per-axis CDFs
    and builds no per-bin table, so it has no table guard: 10^9 bins cost
    what their axes' cells cost.  A superposition of several terms and a
    density state draw from the flattened joint table, under the guard of
    ``keep_per_bin``, which only this path reads.  On a single-part 1-d
    level the two paths draw the same bits; on d >= 2 the per-axis CDFs
    and the flattened one round differently, so a rare draw at a bin
    boundary moves to the neighbouring bin.

    The uniforms come from one PCG64 stream: the X uniforms are its first
    ``count`` and the Y uniforms the next ``count``, for every state.  They
    are drawn DRAW_BLOCK at a time, so beyond the tables a sample holds its
    5 B per draw: x in int32 (int64 from 2^31 bins) and y in int8.
    """
    count = _int("count", count)
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_pair(state, phi, level)
    seed, stream = _seed("seed", seed), _seed("stream", stream)
    if level.num_bins > 2 ** 63:
        raise ValueError(f"{level.num_bins} bins: a bin index would not fit in int64")
    x = np.empty(count, dtype=np.int32 if level.num_bins < 2 ** 31 else np.int64)
    y = np.empty(count, dtype=np.int8)
    _draw(state, phi, level, cfg, keep_per_bin,
          np.random.SeedSequence(entropy=seed, spawn_key=(stream,)), x, y)
    return SampleBatch(x=x, y=y, seed=seed, stream=stream)
