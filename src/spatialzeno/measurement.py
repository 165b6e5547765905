"""Two-stage measurement: coarse position readout, then a rank-one projection.

The position stage records which bin B_j of a grid level contains the
particle (outcome X); the state collapses to P_j psi / ||P_j psi||.  The
second stage measures |phi><phi| (outcome Y in {0,1}).  The probability
of Y=1 is the sum over bins of |<phi|P_j psi>|^2 for pure states, and the
spectral-weighted sum of pure results for density states.

Every grid level is a list of product grids, and for separable-sum states
the bin amplitudes of a product grid factor axis by axis, so totals are
computed from per-axis cell-integral arrays without enumerating bins;
per-bin tables are materialised only below a size guard (or on explicit
request).
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import Bin, GridLevel, ProductGrid
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _term_pairs,
    bin_inner_product,
    bin_mass,
    cell_integrals,
)
from .states import (
    DensityState,
    PhaseTable,
    SeparableFunction,
    WaveFunction,
    exact_cell_integrals,
    inner_product,
)

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
# bytes per bin at the peak of building the kept tables: the complex128
# amplitudes, then the mass table built as a complex128 sum in a reused
# complex128 term buffer (``_per_bin_arrays``); masses of real psi-psi cells
# are built in float64, so these counts are the complex worst case
_TABLE_BYTES_PER_BIN = 16 + 16 + 16
# a density state adds the float64 sums of the terms built so far (masses,
# and for the joint table P(Y=1)), held while the next term's tables are
# built; the sampler builds one drawn term's tables at a time
_DENSITY_TABLE_BYTES_PER_BIN = 8 + 8 + _TABLE_BYTES_PER_BIN
# prob_y1_mixed keeps only the float64 mass sum, and builds one term's
# masses at a time as a complex128 sum in a reused complex128 buffer
_MIXED_MASS_BYTES_PER_BIN = 8 + 16 + 16


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
    """i.i.d. draws of (X bin index, Y outcome)."""

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


# cells per block of the pair pass: the (term pairs x block) buffer and the
# block's phases stay in cache.  Timed on the unit_exact benchmark pass, a
# block of 2^13 to 2^15 cells was equally fast, while 2^11 cells or one
# block per axis were 20-35 % slower.
PAIR_BLOCK = 2 ** 14


class _AxisSums(NamedTuple):
    """One axis of a term-pair pass; M_a is pair a's cell-integral array.

    Every array is float64 when all of the axis's pairs have real cells,
    and complex128 otherwise.
    """

    gram: np.ndarray | None        # (P, P): sum_i M_a[i] conj(M_b[i])
    gram_bar: np.ndarray | None    # the same with each cell divided by its length
    extra: np.ndarray | None       # (P,): sum_i 2|M_a[i]| e_a[i] + e_a[i]^2
    cells: np.ndarray | None       # (P, cells): every M_a, when kept


def _distinct_pairs(pairs, k: int):
    """The distinct (bra, ket) primitive pairs on axis k, and for each term
    pair the index of its distinct pair."""
    index: dict = {}
    rows = [index.setdefault((bf[k], kf[k]), len(index)) for _, bf, kf in pairs]
    return list(index), np.array(rows)


def _axis_pass(pairs, k: int, edges: np.ndarray, cfg: QuadratureConfig,
               keep: bool, gram: bool, with_bar: bool) -> _AxisSums:
    """Walk axis k in blocks of PAIR_BLOCK cells.

    Each block gets one phase table.  Every distinct primitive pair's cell
    integrals are computed once and copied into the rows of all term pairs
    that share it, in one reused (P, block) buffer V, which is reduced by
    one matrix product per Gram (or copied out, when kept) before the next
    block overwrites it.  V and the sums are real while every pair's cells
    are; a complex block promotes them, exactly.
    """
    distinct, rows = _distinct_pairs(pairs, k)
    P, m = len(pairs), edges.size - 1
    real = True
    G = np.zeros((P, P)) if gram else None
    G_bar = np.zeros((P, P)) if with_bar else None
    extra = np.zeros(P) if gram else None
    cells = np.empty((P, m)) if keep else None
    buf = np.empty((P, min(m, PAIR_BLOCK)))
    for start in range(0, m, PAIR_BLOCK):
        block = edges[start:start + PAIR_BLOCK + 1]
        phases = PhaseTable(block)
        ints = [cell_integrals(bf, kf, block, cfg, phases=phases) for bf, kf in distinct]
        if real and any(np.iscomplexobj(v) for v, _ in ints):
            real = False
            G, G_bar, cells, buf = (None if x is None else x.astype(complex)
                                    for x in (G, G_bar, cells, buf))
        V = buf[:, :block.size - 1]
        for a, q in enumerate(rows):
            V[a] = ints[q][0]
        if gram:
            for q, (vals, err) in enumerate(ints):
                # closed-form pairs carry all-zero errors
                if err.any():
                    extra[rows == q] += float(np.sum((2.0 * np.abs(vals) + err) * err))
            V_h = V.T if real else V.conj().T
            G += V @ V_h
            if with_bar:
                G_bar += (V / np.diff(block)) @ V_h
        if keep:
            cells[:, start:start + V.shape[1]] = V
    return _AxisSums(G, G_bar, extra, cells)


def _pair_data(phi: SeparableFunction, psi: SeparableFunction,
               part: ProductGrid, cfg: QuadratureConfig, *, keep: bool = False,
               gram: bool = True, with_bar: bool = False):
    """Term-pair weights and one :class:`_AxisSums` per axis of a product
    grid: the Grams (``gram``, ``with_bar``) and the full per-axis
    cell-integral arrays (``keep``) from the same blocked walk."""
    pairs = list(_term_pairs(phi, psi))
    axes = [_axis_pass(pairs, k, edges, cfg, keep, gram, with_bar)
            for k, edges in enumerate(part.breakpoints)]
    return np.array([w for w, _, _ in pairs]), axes


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
    ``sq`` = sum |M|^2 and ``extra`` = sum 2|M|e + e^2, where s_a^2 =
    prod_k sq and s_hi_a^2 = prod_k (sq + extra) = prod_k sum (|M| + e)^2.

    Every difference of nearly equal products is telescoped into a sum of
    nonnegative terms, so no digits cancel, and all-zero ``extra`` gives
    exactly 0.0.
    """
    if not extra.any():
        return 0.0
    hi = sq + extra
    d = sq.shape[1]
    # prod_k hi - prod_k sq = sum_k (prod_{j<k} hi_j) extra_k (prod_{j>k} sq_j)
    diff = np.zeros(sq.shape[0])
    for k in range(d):
        diff += (np.prod(hi[:, :k], axis=1) * extra[:, k]
                 * np.prod(sq[:, k + 1:], axis=1))
    s = np.sqrt(np.prod(sq, axis=1))
    s_hi = np.sqrt(np.prod(hi, axis=1))
    # s_hi - s = (s_hi^2 - s^2) / (s_hi + s); 0 when both are 0
    delta = np.divide(diff, s_hi + s, out=np.zeros_like(diff), where=diff > 0.0)
    a = np.abs(weights)
    # (sum a s_hi)^2 - (sum a s)^2 = (sum a (s_hi - s)) (sum a s_hi + sum a s)
    return float(np.dot(a, delta) * (np.dot(a, s_hi) + np.dot(a, s)))


def _linear_total(weights, axes_cells) -> float:
    """sum_j sum_a w_a prod_k M_a,k[j_k]; real part (used for mass sums)."""
    total = 0.0 + 0.0j
    for a, w in enumerate(weights):
        prod = w
        for cells in axes_cells:
            prod *= complex(np.sum(cells[a]))
        total += prod
    return float(np.real(total))


def _per_bin_arrays(weights, axes_cells) -> np.ndarray:
    """Materialise the flat per-bin amplitude array (C order over axes).

    The array is sum_a w_a outer_k(M_a,k), raveled.  Each term's outer
    product is written into one reused buffer, scaled there and added into
    the output, so the build holds two full-size arrays; the values are
    bitwise those of summing the scaled outer products one by one.
    """
    shape = tuple(cells.shape[1] for cells in axes_cells)
    out = np.empty(shape, dtype=np.result_type(weights, *axes_cells))
    buf = np.empty_like(out)
    for a, w in enumerate(weights):
        term = axes_cells[0][a]
        if len(shape) > 1:
            for cells in axes_cells[1:-1]:
                term = np.multiply.outer(term, cells[a])
            term = np.multiply.outer(term, axes_cells[-1][a], out=buf)
        if a == 0:
            np.multiply(w, term, out=out)
        else:
            np.add(out, np.multiply(w, term, out=buf), out=out)
    return out.ravel()


def _should_keep(level: GridLevel, keep,
                 bytes_per_bin: int = _TABLE_BYTES_PER_BIN) -> bool:
    """Whether to build per-bin tables; raises TableTooLargeError when
    they would exceed TABLE_BYTE_LIMIT at ``bytes_per_bin``."""
    keep = level.num_bins <= PER_BIN_LIMIT if keep == "auto" else bool(keep)
    nbytes = level.num_bins * bytes_per_bin
    if keep and nbytes > TABLE_BYTE_LIMIT:
        raise TableTooLargeError(
            f"per-bin tables for {level.num_bins} bins need {nbytes:.3g} bytes, "
            f"more than the {TABLE_BYTE_LIMIT:.3g} bytes of physical memory")
    return keep


def _hull_mass(psi: WaveFunction, part: ProductGrid, cfg: QuadratureConfig) -> float:
    """sum_j ||P_j psi||^2 over one product grid, from one cell [bp[0], bp[-1]]
    per axis; an axis pair without a closed form sums its per-cell integrals."""
    hulls = [np.array([bp[0], bp[-1]]) for bp in part.breakpoints]
    total = 0.0 + 0.0j
    for w, bf, kf in _term_pairs(psi, psi):
        prod = w
        for k, hull in enumerate(hulls):
            vals = exact_cell_integrals(bf[k], kf[k], hull)
            if vals is None:
                vals, _ = cell_integrals(bf[k], kf[k], part.breakpoints[k], cfg)
            prod *= complex(np.sum(vals))
        total += prod
    return float(np.real(total))


def _mass_pass(psi: WaveFunction, level: GridLevel, cfg: QuadratureConfig,
               keep: bool):
    """(mass_total, masses|None); psi-psi per-cell arrays only when kept."""
    if not keep:
        return sum(_hull_mass(psi, part, cfg) for part in level.parts), None
    mass_total, masses = 0.0, []
    for part in level.parts:
        w, axes = _pair_data(psi, psi, part, cfg, keep=True, gram=False)
        cells = [ax.cells for ax in axes]
        mass_total += _linear_total(w, cells)
        if any(np.iscomplexobj(c) for c in cells):
            masses.append(np.real(_per_bin_arrays(w, cells)))
        else:
            # real cells: Re(w) M is Re(w M) bit for bit, built in float64
            masses.append(_per_bin_arrays(w.real, cells))
    return mass_total, np.concatenate(masses)


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
    amplitudes: np.ndarray | None
    bar_norm_sq: float | None


def _pair_pass(psi: WaveFunction, phi: WaveFunction, level: GridLevel,
               cfg: QuadratureConfig, keep: bool, with_bar: bool) -> _PairTotals:
    """P(Y=1), its error bound, the per-bin amplitudes (``keep``) and the
    bar norm (``with_bar``) from one phi-psi cell-integral pass.

    Each product part takes one blocked ``_pair_data`` walk, so a study row
    that needs both P(Y=1) and the bar norm computes every cell integral
    once, and no full-length per-axis array exists unless ``keep``.
    """
    if psi.domain != phi.domain:
        raise ValueError("psi and phi live on different domains")
    if psi.d != level.d:
        raise ValueError("state dimension does not match the grid")
    p_raw, err, bar = 0.0, 0.0, 0.0
    amps = []
    for part in level.parts:
        w, axes = _pair_data(phi, psi, part, cfg, keep=keep, with_bar=with_bar)
        p_raw += _gram_form(w, [ax.gram for ax in axes])
        sq = np.array([ax.gram.diagonal().real for ax in axes]).T
        err += _error_bound(w, sq, np.array([ax.extra for ax in axes]).T)
        if with_bar:
            bar += _gram_form(w, [ax.gram_bar for ax in axes])
        if keep:
            amps.append(_per_bin_arrays(w, [ax.cells for ax in axes]))
    amps = np.concatenate(amps) if keep else None
    err = max(err, _EPS_FLOOR * level.num_bins ** 0.5)
    return _PairTotals(p_y1=_clamp_probability(p_raw), p_y1_raw=p_raw,
                      error_bound=float(err), amplitudes=amps,
                      bar_norm_sq=bar if with_bar else None)


def prob_y1_pure(psi: WaveFunction, phi: WaveFunction, level: GridLevel,
                 cfg: QuadratureConfig = DEFAULT_CONFIG,
                 keep_per_bin="auto") -> MeasurementResult:
    """P(Y=1) = sum_j |<phi|P_j psi>|^2 for a pure initial state.

    ``keep_per_bin`` controls whether the per-bin amplitude and mass
    tables are stored ("auto": only up to PER_BIN_LIMIT bins).
    """
    t0 = time.perf_counter()
    keep = _should_keep(level, keep_per_bin)
    r = _pair_pass(psi, phi, level, cfg, keep, with_bar=False)
    mass_total, masses = _mass_pass(psi, level, cfg, keep)
    return MeasurementResult(
        n=level.n, level=level, p_y1=r.p_y1, p_y1_raw=r.p_y1_raw,
        p_y1_error_bound=r.error_bound, mass_total=float(mass_total),
        per_bin_amplitude=r.amplitudes, per_bin_mass=masses,
        wall_time=time.perf_counter() - t0)


def prob_y1_mixed(rho: DensityState, phi: WaveFunction, level: GridLevel,
                  cfg: QuadratureConfig = DEFAULT_CONFIG,
                  keep_per_bin="auto") -> MeasurementResult:
    """P(Y=1) = sum_l p_l sum_j |<phi|P_j psi_l>|^2 for a density state.

    The dropped spectral tail contributes at most ||phi||^2 * (1 - sum p_l),
    which is added to the error bound.  Amplitudes do not mix linearly, so
    only the per-bin masses are kept; each term's are built without its
    amplitudes and scaled and added into the sum in place.
    """
    t0 = time.perf_counter()
    keep = _should_keep(level, keep_per_bin, _MIXED_MASS_BYTES_PER_BIN)
    p_raw, err, mass_total = 0.0, 0.0, 0.0
    masses = None
    for p_l, psi_l in rho.terms:
        r = _pair_pass(psi_l, phi, level, cfg, keep=False, with_bar=False)
        p_raw += p_l * r.p_y1_raw
        err += p_l * r.error_bound
        term_total, term_masses = _mass_pass(psi_l, level, cfg, keep)
        mass_total += p_l * term_total
        if keep:
            term_masses *= p_l
            if masses is None:
                masses = term_masses
            else:
                masses += term_masses
        del term_masses  # it goes before the next term's masses are built
    phi_norm_sq = float(np.real(inner_product(phi, phi)))
    err += phi_norm_sq * rho.tail_mass
    return MeasurementResult(
        n=level.n, level=level, p_y1=_clamp_probability(p_raw), p_y1_raw=p_raw,
        p_y1_error_bound=float(err), mass_total=float(mass_total),
        per_bin_amplitude=None, per_bin_mass=masses,
        wall_time=time.perf_counter() - t0)


def bar_norm_squared(psi: WaveFunction, phi: WaveFunction, level: GridLevel,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """sum_j |<phi|P_j psi>|^2 / |B_j|: the squared L2 norm of the bin
    average of conj(phi)*psi (disjoint supports make the identity exact)."""
    return _pair_pass(psi, phi, level, cfg, keep=False, with_bar=True).bar_norm_sq


def collapse(psi: WaveFunction, cell: Bin,
             cfg: QuadratureConfig = DEFAULT_CONFIG) -> WaveFunction:
    """Post-measurement state P_B psi / ||P_B psi|| after outcome X in B.

    Raises ZeroMassBinError when the bin carries no mass.
    """
    mass = bin_mass(psi, cell, cfg)
    if mass <= 0.0:
        raise ZeroMassBinError(f"state {psi.label!r} has zero mass in bin "
                               f"{cell.lower}..{cell.upper}")
    out = psi.restrict(cell, 1.0 / np.sqrt(mass))
    nsq = out.norm_squared()
    if abs(nsq - 1.0) > 1e-9:
        raise RuntimeError(f"collapsed state norm^2 = {nsq!r}; "
                           "exact and numeric bin integrals disagree")
    return out


def prob_y1_given_bin(psi: WaveFunction, phi: WaveFunction, cell: Bin,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """|<phi|psi'>|^2 for the collapsed state psi' of the bin."""
    mass = bin_mass(psi, cell, cfg)
    if mass <= 0.0:
        raise ZeroMassBinError(f"state {psi.label!r} has zero mass in bin "
                               f"{cell.lower}..{cell.upper}")
    amp = bin_inner_product(phi, psi, cell, cfg).value
    return _clamp_probability(abs(amp) ** 2 / mass)


def _per_bin_tables(state, phi, level, cfg, keep_per_bin):
    """Per-bin (masses, p1): sum_l p_l ||P_j psi_l||^2 and
    sum_l p_l |<phi|P_j psi_l>|^2 over the spectral terms of a density
    state, a pure state being the single term (1.0, psi).

    Each term's tables are scaled and added into the sums in place, so a
    pure state's tables keep their bits.
    """
    density = isinstance(state, DensityState)
    terms = state.terms if density else ((1.0, state),)
    if not _should_keep(level, keep_per_bin, _DENSITY_TABLE_BYTES_PER_BIN
                        if density else _TABLE_BYTES_PER_BIN):
        raise ValueError(f"per-bin tables for {level.num_bins} bins exceed the "
                         f"size guard; pass keep_per_bin=True to override")
    masses = p1 = None
    for p_l, psi_l in terms:
        r = prob_y1_pure(psi_l, phi, level, cfg, keep_per_bin=True)
        if masses is None:
            masses, p1 = r.per_bin_mass, np.abs(r.per_bin_amplitude)
            np.square(p1, out=p1)
            masses *= p_l
            p1 *= p_l
        else:
            masses += p_l * r.per_bin_mass
            p1 += p_l * np.abs(r.per_bin_amplitude) ** 2
        del r  # its amplitudes go before the next term's tables are built
    return masses, p1


def joint_distribution(state, phi: WaveFunction, level: GridLevel,
                       cfg: QuadratureConfig = DEFAULT_CONFIG,
                       keep_per_bin="auto") -> JointDistribution:
    """Exact joint table P(X=j, Y=y); rows sum to the bin masses."""
    masses, p1 = _per_bin_tables(state, phi, level, cfg, keep_per_bin)
    p1 = np.minimum(p1, masses)  # Cauchy-Schwarz per bin, up to roundoff
    p0 = np.maximum(masses - p1, 0.0)
    return JointDistribution(level=level, p_y1_bins=p1, p_y0_bins=p0)


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")``, element for element.

    The keys are searched in ascending order and the indices scattered
    back: successive binary searches then walk nearby parts of a large
    CDF instead of jumping across it for every key.
    """
    order = np.argsort(u)
    out = np.empty(u.size, dtype=np.intp)
    out[order] = np.searchsorted(cdf, u[order], side="right")
    return out


def _draw(psi, phi, level, cfg, keep_per_bin, u_x, u_y):
    """(X, Y) of a pure state at the uniforms u_x, u_y: X by inverse CDF
    over the bin masses, Y = 1 when u_y is below P(Y=1 | X)."""
    masses, p1 = _per_bin_tables(psi, phi, level, cfg, keep_per_bin)
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    x = _inverse_cdf(cdf, u_x)
    cond = np.divide(p1, masses, out=np.zeros_like(p1), where=masses > 0)
    return x, (u_y < cond[x]).astype(np.int8)


def sample_xy(state, phi: WaveFunction, level: GridLevel,
              cfg: QuadratureConfig = DEFAULT_CONFIG, count: int = 1,
              seed: int = 0, stream: int = 0,
              keep_per_bin="auto") -> SampleBatch:
    """i.i.d. draws of (X, Y): X by inverse CDF over the bin masses, then Y
    as a Bernoulli draw with the collapsed state's conditional probability.

    Deterministic for fixed (seed, stream); distinct streams are
    independent substreams for concurrent use.  Zero-mass bins are never
    drawn.  For density states the spectral term is drawn first.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(int(stream),)))
    density = isinstance(state, DensityState)
    if density:
        term_cdf = np.cumsum([p for p, _ in state.terms])
        term_cdf /= term_cdf[-1]
        which = np.searchsorted(term_cdf, rng.random(count), side="right")
    u_x = rng.random(count)
    u_y = rng.random(count)
    x = np.empty(count, dtype=np.int64)
    y = np.empty(count, dtype=np.int8)
    # one term's tables at a time, built only when the term was drawn
    for l, (_, psi_l) in enumerate(state.terms if density else ((1.0, state),)):
        pick = which == l if density else slice(None)
        u = u_x[pick]
        if u.size:
            x[pick], y[pick] = _draw(psi_l, phi, level, cfg, keep_per_bin, u, u_y[pick])
    return SampleBatch(x=x, y=y, seed=seed, stream=stream)
