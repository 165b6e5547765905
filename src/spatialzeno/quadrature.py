"""Numeric bin integrals: tensor Gauss-Legendre with singular-endpoint care.

Every integral first tries the closed-form route in :mod:`states`; only
unsupported pairs fall through to quadrature, which reads the pair helpers
the closed forms use: the pair's common support clips the cells, and one
refinement step splits them at the pair's jump points and folds the
pieces back onto the caller's cells.  Bins are already O(1/n) small, so a
fixed-order Gauss-Legendre rule per cell is spectrally accurate for the
smooth catalog.  A cell that starts at the pair's singular point a (the
lower end of its support) takes a Gauss-Jacobi rule whose weight
(x - a)^-gamma carries the singular exponent; the rule weights the pair's
own values times (x - a)^gamma at nodes inside the cell, never the value
at a; its nodes come from scipy's ``roots_jacobi``, imported with the
first rule.  The reported error estimate is the difference between the
order-p and order-p/2 results.

Sums over bins use numpy's own reductions (``np.add.reduce``, pairwise
summation, and ``np.einsum`` with ``optimize=False`` for the Grams) in
bin-index order, never a BLAS product, so runs are reproducible bit for
bit for one numpy build and SIMD level, on any BLAS kernel and thread
count.

The module also owns the per-axis pair table (``_pair_data``), which
every region integral of a separable sum reads: P(Y=1) and the bin tables
of a product grid, hull masses, inner products over the domain box, the
R^d captured mass, the bar-chart averages and the Riemann-check reference
(the integral of |phi psi|^2 over the unit cube).  A box of one cell per
axis, a bin among them, is ``_region_integral``; a pair without a closed
form integrates it numerically as one cell.

``l2_distance`` and ``l2_norm`` integrate over a grid level only: tensor
Gauss-Legendre on each part's cells, with every operand evaluated at the
tensor nodes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .grids import Bin, GridLevel, _int, _real
from .states import (
    PairFactor,
    PhaseTable,
    Primitive1D,
    SeparableFunction,
    _clipped,
    _fold_back,
    _refine,
    _term_pairs,
    exact_cell_integrals,
)

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "Integral",
    "ToleranceNotMetError",
    "bin_inner_product",
    "bin_mass",
    "l2_distance",
    "l2_norm",
    "cell_integrals",
    "numeric_cell_integrals",
]

logger = logging.getLogger(__name__)


class ToleranceNotMetError(RuntimeError):
    """Error estimate still above tolerance after the subdivision limit."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre order and refinement limits for numeric integrals."""

    points_per_axis_per_bin: int = 8
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    subdivision_limit: int = 12

    def __post_init__(self) -> None:
        for name in ("points_per_axis_per_bin", "subdivision_limit"):
            object.__setattr__(self, name, _int(name, getattr(self, name)))
        for name in ("abs_tol", "rel_tol"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.points_per_axis_per_bin < 2:
            raise ValueError("need at least 2 quadrature points per axis")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.subdivision_limit < 0:
            raise ValueError("subdivision_limit must be >= 0")


DEFAULT_CONFIG = QuadratureConfig()


class Integral(NamedTuple):
    value: complex
    error: float


@lru_cache(maxsize=64)
def _gl_rule(p: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(p)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=256)
def _gj_rule(p: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    # weight (1+t)^(-gamma) on [-1, 1]; scipy is imported on the first rule
    from scipy.special import roots_jacobi
    x, w = roots_jacobi(p, 0.0, -gamma)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _axis_rule(edges: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-p Gauss-Legendre nodes and weights on every cell of one axis,
    cell by cell (the p nodes of cell 0 first)."""
    xi, wi = _gl_rule(p)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * xi[None, :]).ravel(),
            (half[:, None] * wi[None, :]).ravel())


def _gl_cells(pair: PairFactor, edges: np.ndarray, p: int) -> np.ndarray:
    """Order-p Gauss-Legendre on every cell of ``edges`` at once."""
    nodes, _ = _axis_rule(edges, p)
    vals = pair(nodes).reshape(-1, p)
    return np.add.reduce(vals * _gl_rule(p)[1], axis=1) * (0.5 * np.diff(edges))


def _gj_single(pair: PairFactor, a: float, b: float, gamma: float, p: int) -> complex:
    """Gauss-Jacobi for a cell whose left endpoint a is the singular point:
    the rule's weight (x - a)^-gamma is divided out of the pair's values."""
    t, w = _gj_rule(p, gamma)
    x = a + (b - a) * (1.0 + t) / 2.0
    smooth = pair(x) * (x - a) ** gamma
    return complex(((b - a) / 2.0) ** (1.0 - gamma) * np.add.reduce(w * smooth))


def _adaptive(pair: PairFactor, a: float, b: float, cfg: QuadratureConfig, sing,
              depth: int) -> tuple[complex, float]:
    p = cfg.points_per_axis_per_bin
    if sing is not None and abs(a - sing[0]) < 1e-300:
        v_hi = _gj_single(pair, a, b, sing[1], p)
        v_lo = _gj_single(pair, a, b, sing[1], max(2, p // 2))
    else:
        edges = np.array([a, b])
        v_hi = complex(_gl_cells(pair, edges, p)[0])
        v_lo = complex(_gl_cells(pair, edges, max(2, p // 2))[0])
    err = abs(v_hi - v_lo)
    if err <= max(cfg.abs_tol, cfg.rel_tol * abs(v_hi)):
        return v_hi, err
    if depth >= cfg.subdivision_limit:
        raise ToleranceNotMetError(
            f"integral over [{a}, {b}] has error estimate {err:.3e} after "
            f"{depth} subdivisions (abs_tol={cfg.abs_tol}, rel_tol={cfg.rel_tol})")
    mid = 0.5 * (a + b)
    vl, el = _adaptive(pair, a, mid, cfg, sing, depth + 1)
    vr, er = _adaptive(pair, mid, b, cfg, sing, depth + 1)
    return vl + vr, el + er


def numeric_cell_integrals(f: Primitive1D, g: Primitive1D, edges: np.ndarray,
                           cfg: QuadratureConfig = DEFAULT_CONFIG
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature of conj(f)*g on consecutive cells; returns (values, errors)."""
    edges = np.asarray(edges, dtype=float)
    m = edges.size - 1
    pair = PairFactor(f, g)
    clipped = _clipped(edges, pair.support)
    if clipped is None:
        return np.zeros(m, dtype=complex), np.zeros(m)
    if not (np.isfinite(clipped[0]) and np.isfinite(clipped[-1])):
        raise ValueError("numeric quadrature needs finite integration bounds")
    sing = pair.singularity()
    if sing is not None and pair.support[0] < sing[0] < pair.support[1]:
        raise ValueError(f"singular point {sing[0]} lies inside the support "
                         f"{pair.support}: it must be the support's lower end")
    # split cells at declared jump points so fixed-order rules stay accurate
    refined, pos = _refine(clipped, pair.discontinuities())

    p = cfg.points_per_axis_per_bin
    values = _gl_cells(pair, refined, p)
    errors = np.abs(values - _gl_cells(pair, refined, max(2, p // 2)))

    # cells that fail tolerance or start at the singular point get per-cell work
    needs_care = errors > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(values))
    if sing is not None:
        needs_care |= np.abs(refined[:-1] - sing[0]) < 1e-300
    for i in np.nonzero(needs_care)[0]:
        a, b = float(refined[i]), float(refined[i + 1])
        if a == b:
            values[i], errors[i] = 0.0, 0.0
        else:
            values[i], errors[i] = _adaptive(pair, a, b, cfg, sing, 0)
    return _fold_back(values, pos, m), _fold_back(errors, pos, m)


def cell_integrals(f: Primitive1D, g: Primitive1D, edges: np.ndarray,
                   cfg: QuadratureConfig = DEFAULT_CONFIG, *,
                   phases: PhaseTable | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of conj(f)*g per cell: exact when supported, else numeric.

    ``phases`` is passed to :func:`exact_cell_integrals`.
    """
    edges = np.asarray(edges, dtype=float)
    vals = exact_cell_integrals(f, g, edges, phases=phases)
    if vals is not None:
        return vals, np.zeros(vals.size)
    return numeric_cell_integrals(f, g, edges, cfg)


# ---------------------------------------------------------------------------
# the per-axis pair table: every integral over a product of per-axis cells


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
    extra: np.ndarray              # (P,): sum_i 2|M_a[i]| e_a[i] + e_a[i]^2
    cells: np.ndarray | None       # (P, cells): every M_a, when kept


def _axis_pass(pairs, k: int, edges: np.ndarray, cfg: QuadratureConfig,
               keep: bool, gram: bool, with_bar: bool) -> _AxisSums:
    """Walk axis k in blocks of PAIR_BLOCK cells.

    Each block gets one phase table.  Every distinct primitive pair's cell
    integrals are computed once and copied into the rows of all term pairs
    that share it: straight into the kept cells, or else into one reused
    (P, block) buffer.  The block's rows V are reduced by one matrix product
    per Gram before the next block is walked.  V and the sums are real
    while every pair's cells are; a complex pair promotes them, exactly.
    Promotion copies out the cells written so far, drops the float64 rows
    and then makes the complex128 ones.  A pair's cells have one dtype on
    every block (``exact_cell_integrals`` decides it from the pair's
    coefficients, ``numeric_cell_integrals`` is always complex), so the
    first complex pair is met in the first block, where only that block's
    walked rows are copied: complex kept cells peak at 16 B per pair and
    cell, the 2x count of ``measurement._kept_cell_bytes``.

    An axis of one cell (a bin, a norm's domain box, a hull) takes none of
    this: no block loop, shared phase table, row buffer or promotion copy.
    Each distinct pair's kernel is called once on the axis's two edges and
    its value written into the (P, 1) cells, complex128 when any pair's
    is.  The values, sums and dtypes are those of the blocked walk bit for
    bit.
    """
    shared_by: dict = {}  # each distinct (bra, ket) primitive pair: its term pairs
    for a, (_, bf, kf) in enumerate(pairs):
        shared_by.setdefault((bf[k], kf[k]), []).append(a)
    P, m = len(pairs), edges.size - 1
    if m == 1:
        return _cell_pass(shared_by, P, edges, cfg, gram, with_bar)
    G = np.zeros((P, P)) if gram else None
    G_bar = np.zeros((P, P)) if with_bar else None
    extra = np.zeros(P)
    width = m if keep else min(m, PAIR_BLOCK)
    rows = np.empty((P, width))
    for start in range(0, m, PAIR_BLOCK):
        block = edges[start:start + PAIR_BLOCK + 1]
        phases = PhaseTable(block)
        lo = start if keep else 0
        span = slice(lo, lo + block.size - 1)
        done = []  # the term pairs whose cells this block has written
        for (bf, kf), shared in shared_by.items():
            vals, err = cell_integrals(bf, kf, block, cfg, phases=phases)
            if np.iscomplexobj(vals) and not np.iscomplexobj(rows):
                G, G_bar = (None if x is None else x.astype(complex) for x in (G, G_bar))
                kept, walked = rows[:, :lo].astype(complex), rows[done, span].astype(complex)
                rows = None
                rows = np.empty((P, width), dtype=complex)
                rows[:, :lo], rows[done, span] = kept, walked
                del kept, walked
            for a in shared:
                rows[a, span] = vals
            done += shared
            # closed-form pairs carry all-zero errors
            if err.any():
                extra[shared] += _error_sum(vals, err)
        if gram:
            _add_grams(G, G_bar, rows[:, span], block)
    return _AxisSums(G, G_bar, extra, rows if keep else None)


def _error_sum(vals: np.ndarray, err: np.ndarray) -> float:
    """sum_i 2|M[i]| e[i] + e[i]^2 of one pair's cells M and errors e."""
    return float(np.sum((2.0 * np.abs(vals) + err) * err))


def _add_grams(G: np.ndarray, G_bar: np.ndarray | None, V: np.ndarray,
               edges: np.ndarray) -> None:
    """Add the rows V of the cells of ``edges`` into the Gram G and, when
    given, the bar Gram G_bar, in place."""
    V_c = V.conj() if np.iscomplexobj(V) else V
    G += np.einsum("ai,bi->ab", V, V_c, optimize=False)
    if G_bar is not None:
        G_bar += np.einsum("ai,bi->ab", V / (edges[1:] - edges[:-1]), V_c, optimize=False)


def _cell_pass(shared_by: dict, P: int, edges: np.ndarray, cfg: QuadratureConfig,
               gram: bool, with_bar: bool) -> _AxisSums:
    """``_axis_pass`` on an axis of one cell: one kernel call per distinct
    pair, written into the (P, 1) cells, which are always kept."""
    column = [None] * P  # each pair's cell, a float64 or complex128 scalar
    extra = np.zeros(P)
    for (bf, kf), shared in shared_by.items():
        vals, err = cell_integrals(bf, kf, edges, cfg)
        for a in shared:
            column[a] = vals[0]
        if np.count_nonzero(err):  # err.any() without its Python wrapper
            extra[shared] += _error_sum(vals, err)
    # complex128 when any pair's cell is, each value converted exactly
    cells = np.array(column)[:, None]
    G = G_bar = None
    if gram:
        # zeros plus the product, as the blocked walk sums its one block
        G = np.zeros((P, P), dtype=cells.dtype)
        G_bar = np.zeros((P, P), dtype=cells.dtype) if with_bar else None
        _add_grams(G, G_bar, cells, edges)
    return _AxisSums(G, G_bar, extra, cells)


def _pair_data(phi: SeparableFunction, psi: SeparableFunction,
               axes_edges: Sequence[np.ndarray], cfg: QuadratureConfig, *,
               keep: bool = False, gram: bool = True, with_bar: bool = False):
    """Term-pair weights and one :class:`_AxisSums` per axis of the product
    of the per-axis cell partitions ``axes_edges``: the Grams (``gram``,
    ``with_bar``) and the full per-axis cell-integral arrays (``keep``)
    from the same blocked walk.

    An axis whose (bra, ket) factor pairs equal an earlier axis's, on the
    same or equal edges, is not walked again: it gets that axis's sums,
    the same object, which no caller writes to.
    """
    pairs = list(_term_pairs(phi, psi))
    walked, axes = [], []  # walked: (factor pairs, edges, sums) per walk
    for k, edges in enumerate(axes_edges):
        factors = [(bf[k], kf[k]) for _, bf, kf in pairs]
        sums = next((s for f, e, s in walked if f == factors and (
            e is edges or e.shape == edges.shape and bool((e == edges).all()))), None)
        if sums is None:
            sums = _axis_pass(pairs, k, edges, cfg, keep, gram, with_bar)
            walked.append((factors, edges, sums))
        axes.append(sums)
    return np.array([w for w, _, _ in pairs]), axes


def _root_gap(sq: np.ndarray, extra: np.ndarray):
    """(s, s_hi, s_hi - s) per row of (P, d) per-axis sums ``sq`` = sum |M|^2
    and ``extra`` = sum 2|M|e + e^2, where s^2 = prod_k sq and s_hi^2 =
    prod_k (sq + extra) = prod_k sum (|M| + e)^2.

    The difference of the nearly equal products is telescoped into a sum
    of nonnegative terms, so no digits cancel, and an all-zero row of
    ``extra`` gives exactly 0.0.
    """
    hi = sq + extra
    # prod_k hi - prod_k sq = sum_k (prod_{j<k} hi_j) extra_k (prod_{j>k} sq_j)
    diff = np.zeros(sq.shape[0])
    for k in range(sq.shape[1]):
        diff += (np.prod(hi[:, :k], axis=1) * extra[:, k]
                 * np.prod(sq[:, k + 1:], axis=1))
    s = np.sqrt(np.prod(sq, axis=1))
    s_hi = np.sqrt(np.prod(hi, axis=1))
    # s_hi - s = (s_hi^2 - s^2) / (s_hi + s); 0 when both are 0
    return s, s_hi, np.divide(diff, s_hi + s, out=np.zeros_like(diff), where=diff > 0.0)


def _region_cells(phi: SeparableFunction, psi: SeparableFunction,
                  axes_edges: Sequence[np.ndarray], cfg: QuadratureConfig = DEFAULT_CONFIG):
    """(w, cells, extras) of conj(phi)*psi over a box, one cell ``[lo, hi]``
    per axis in ``axes_edges``: the term-pair weights, and each axis's
    (P, 1) cell integrals and (P,) error sums ``_AxisSums.extra``."""
    w, axes = _pair_data(phi, psi, axes_edges, cfg, keep=True, gram=False)
    return w, [ax.cells for ax in axes], [ax.extra for ax in axes]


def _region_total(w: np.ndarray, cells) -> complex:
    """sum_a w_a prod_k M_ak of ``_region_cells``, the pairs summed in order."""
    total = 0j
    for a, term in enumerate(w.tolist()):
        for c in cells:
            term *= c[a, 0].item()
        total += term
    return total


def _region_integral(phi: SeparableFunction, psi: SeparableFunction,
                     axes_edges: Sequence[np.ndarray],
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> Integral:
    """Integral of conj(phi)*psi over a box, one cell ``[lo, hi]`` per axis
    in ``axes_edges``, with the error sum_a |w_a| (prod_k (|M_ak| + e_ak)
    - prod_k |M_ak|) of the cells' estimates e (0.0 on closed forms)."""
    w, cells, extras = _region_cells(phi, psi, axes_edges, cfg)
    error = 0.0
    if any(np.count_nonzero(e) for e in extras):
        sq = np.square(np.abs(np.concatenate(cells, axis=1)))
        error = float(np.add.reduce(np.abs(w) * _root_gap(sq, np.array(extras).T)[2]))
    return Integral(_region_total(w, cells), error)


def bin_inner_product(phi: SeparableFunction, psi: SeparableFunction, cell: Bin,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> Integral:
    """<phi|P_B psi> = integral of conj(phi)*psi over the bin, with error estimate."""
    if phi.domain != psi.domain:
        raise ValueError("states live on different domains")
    if cell.d != psi.d:
        raise ValueError("bin dimension does not match the states")
    return _region_integral(phi, psi, [np.array([e.lo, e.hi]) for e in cell.edges], cfg)


def bin_mass(psi: SeparableFunction, cell: Bin,
             cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """||P_B psi||^2, the collapse weight of the bin; clamped below at 0."""
    mass = float(np.real(bin_inner_product(psi, psi, cell, cfg).value))
    if mass < 0.0:
        logger.debug("bin mass %r clamped to 0", mass)
        mass = 0.0
    return mass


def _call_at(func, pts: np.ndarray) -> np.ndarray:
    """A plain callable of the coordinates at an (N, d) point array."""
    if not callable(func):
        raise TypeError(f"cannot evaluate object of type {type(func)!r}")
    cols = [pts[:, k] for k in range(pts.shape[1])]
    return np.asarray(func(*cols) if pts.shape[1] > 1 else func(cols[0]),
                      dtype=complex)


def _outer_ravel(arrays) -> np.ndarray:
    out = arrays[0]
    for a in arrays[1:]:
        out = np.multiply.outer(out, a)
    return out.ravel()


def _tensor_values(funcs, axes_edges: Sequence[np.ndarray], p: int):
    """([each func's values], weights) at the tensor Gauss-Legendre nodes of
    a product of per-axis cell partitions, all flat in C order."""
    nodes, w_1d = zip(*(_axis_rule(edges, p) for edges in axes_edges))
    w = _outer_ravel(w_1d)
    grids = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = []
    for f in funcs:
        if f is None or (np.isscalar(f) and f == 0):
            vals.append(np.zeros(w.size, dtype=complex))
        elif isinstance(f, SeparableFunction):
            vals.append(f.evaluate(pts))
        else:
            vals.append(_call_at(f, pts))
    return vals, w


def l2_distance(f, g, level: GridLevel,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """sqrt(integral of |f-g|^2) over a grid level, by tensor Gauss-Legendre
    on every part's cells.

    ``f`` and ``g`` may be separable functions, plain callables of the
    coordinates, discretized functions, or 0 for the zero function; each
    is evaluated at the level's tensor nodes.
    """
    if not isinstance(level, GridLevel):
        raise TypeError(f"cannot integrate over region of type {type(level)!r}")
    p = cfg.points_per_axis_per_bin
    total = 0.0
    for part in level.parts:
        (f_vals, g_vals), w = _tensor_values((f, g), part.breakpoints, p)
        total += float(np.real(np.add.reduce(w * np.abs(f_vals - g_vals) ** 2)))
    return float(np.sqrt(max(total, 0.0)))


def l2_norm(f, level: GridLevel, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """sqrt(integral of |f|^2) over a grid level."""
    return l2_distance(f, 0, level, cfg)
