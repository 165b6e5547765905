"""Numeric bin integrals: tensor Gauss-Legendre with singular-endpoint care.

Every integral first tries the closed-form route in :mod:`states`; only
unsupported pairs fall through to quadrature.  Bins are already O(1/n)
small, so a fixed-order Gauss-Legendre rule per bin is spectrally
accurate for the smooth catalog, and integrable power singularities at a
cell endpoint are handled with a Gauss-Jacobi rule whose weight carries
the singular exponent, never by pointwise evaluation at the singular
point.  The reported error estimate is the difference between the
order-p and order-p/2 results.

Sums over bins use numpy reductions (pairwise summation) in bin-index
order, so single-threaded runs are reproducible bit for bit.

The module also owns the per-axis pair table (``_pair_data``), which
every region integral of a separable sum reads: P(Y=1) and the bin tables
of a product grid, hull masses, inner products over the domain box, the
R^d captured mass and the bar-chart averages.  A region without a closed
form is integrated numerically as one cell, as a bin is.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .grids import Bin, GridLevel
from .states import (
    Domain,
    PairFactor,
    PhaseTable,
    Primitive1D,
    SeparableFunction,
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
    # weight (1+t)^(-gamma) on [-1, 1]
    x, w = roots_jacobi(p, 0.0, -gamma)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _pair_eval(f: Primitive1D, g: Primitive1D, x: np.ndarray) -> np.ndarray:
    return np.conj(f(x)) * g(x)


def _gl_cells(f, g, edges: np.ndarray, p: int) -> np.ndarray:
    """Order-p Gauss-Legendre on every cell of ``edges`` at once."""
    xi, wi = _gl_rule(p)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = mid[:, None] + half[:, None] * xi[None, :]
    vals = _pair_eval(f, g, nodes.ravel()).reshape(nodes.shape)
    return (vals @ wi) * half


def _gj_single(f, g, a: float, b: float, gamma: float, p: int) -> complex:
    """Gauss-Jacobi for a cell whose left endpoint is the singular point."""
    t, w = _gj_rule(p, gamma)
    x = a + (b - a) * (1.0 + t) / 2.0
    smooth = np.conj(f.smooth_eval(x)) * g.smooth_eval(x)
    return complex(((b - a) / 2.0) ** (1.0 - gamma) * np.dot(w, smooth))


def _adaptive(f, g, a: float, b: float, cfg: QuadratureConfig, sing,
              depth: int) -> tuple[complex, float]:
    p = cfg.points_per_axis_per_bin
    if sing is not None and abs(a - sing[0]) < 1e-300:
        v_hi = _gj_single(f, g, a, b, sing[1], p)
        v_lo = _gj_single(f, g, a, b, sing[1], max(2, p // 2))
    else:
        edges = np.array([a, b])
        v_hi = complex(_gl_cells(f, g, edges, p)[0])
        v_lo = complex(_gl_cells(f, g, edges, max(2, p // 2))[0])
    err = abs(v_hi - v_lo)
    if err <= max(cfg.abs_tol, cfg.rel_tol * abs(v_hi)):
        return v_hi, err
    if depth >= cfg.subdivision_limit:
        raise ToleranceNotMetError(
            f"integral over [{a}, {b}] has error estimate {err:.3e} after "
            f"{depth} subdivisions (abs_tol={cfg.abs_tol}, rel_tol={cfg.rel_tol})")
    mid = 0.5 * (a + b)
    vl, el = _adaptive(f, g, a, mid, cfg, sing, depth + 1)
    vr, er = _adaptive(f, g, mid, b, cfg, sing, depth + 1)
    return vl + vr, el + er


def numeric_cell_integrals(f: Primitive1D, g: Primitive1D, edges: np.ndarray,
                           cfg: QuadratureConfig = DEFAULT_CONFIG
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature of conj(f)*g on consecutive cells; returns (values, errors)."""
    orig_edges = np.asarray(edges, dtype=float)
    lo = max(f.support[0], g.support[0])
    hi = min(f.support[1], g.support[1])
    m = orig_edges.size - 1
    if lo >= hi:
        return np.zeros(m, dtype=complex), np.zeros(m)
    if not (np.isfinite(orig_edges[0]) and np.isfinite(orig_edges[-1])):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("numeric quadrature needs finite integration bounds")
    base_edges = np.clip(orig_edges, lo if np.isfinite(lo) else None,
                         hi if np.isfinite(hi) else None)
    sing = PairFactor(f, g).singularity()

    # split cells at declared jump points so fixed-order rules stay accurate
    jumps = np.array(sorted({b for b in f.discontinuities() + g.discontinuities()
                             if base_edges[0] < b < base_edges[-1]}))
    if jumps.size:
        edges = np.union1d(base_edges, jumps)
    else:
        edges = base_edges

    p = cfg.points_per_axis_per_bin
    values = _gl_cells(f, g, edges, p)
    coarse = _gl_cells(f, g, edges, max(2, p // 2))
    errors = np.abs(values - coarse)

    # replace cells that touch or fail tolerance with careful per-cell work
    needs_care = errors > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(values))
    if sing is not None:
        touches = np.abs(edges[:-1] - sing[0]) < 1e-300
        inside = (edges[:-1] < sing[0]) & (sing[0] < edges[1:])
        needs_care |= touches | inside
    for i in np.nonzero(needs_care)[0]:
        a, b = float(edges[i]), float(edges[i + 1])
        if a == b:
            values[i], errors[i] = 0.0, 0.0
            continue
        if sing is not None and a < sing[0] < b:
            v1, e1 = _adaptive(f, g, a, sing[0], cfg, sing, 0)
            v2, e2 = _adaptive(f, g, sing[0], b, cfg, sing, 0)
            values[i], errors[i] = v1 + v2, e1 + e2
        else:
            values[i], errors[i] = _adaptive(f, g, a, b, cfg, sing, 0)

    if edges is base_edges:
        return values, errors
    # re-aggregate refined cells back onto the caller's cells
    out_v = np.zeros(m, dtype=complex)
    out_e = np.zeros(m)
    mids = 0.5 * (edges[:-1] + edges[1:])
    pos = np.clip(np.searchsorted(base_edges, mids, side="right") - 1, 0, m - 1)
    np.add.at(out_v, pos, values)
    np.add.at(out_e, pos, errors)
    return out_v, out_e


def cell_integrals(f: Primitive1D, g: Primitive1D, edges: np.ndarray,
                   cfg: QuadratureConfig = DEFAULT_CONFIG,
                   method: str = "auto", *,
                   phases: PhaseTable | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of conj(f)*g per cell: exact when supported, else numeric.

    ``method`` is "auto", "exact" (raise if no closed form) or "numeric";
    ``phases`` is passed to :func:`exact_cell_integrals`.
    """
    edges = np.asarray(edges, dtype=float)
    if method != "numeric":
        vals = exact_cell_integrals(f, g, edges, phases=phases)
        if vals is not None:
            return vals, np.zeros(vals.size)
        if method == "exact":
            raise ValueError(f"no closed form for the pair ({f!r}, {g!r})")
    return numeric_cell_integrals(f, g, edges, cfg)


def _term_pairs(phi: SeparableFunction, psi: SeparableFunction):
    for cb, bf in phi.terms:
        for ck, kf in psi.terms:
            yield complex(np.conj(cb) * ck), bf, kf


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
               axes_edges: Sequence[np.ndarray], cfg: QuadratureConfig, *,
               keep: bool = False, gram: bool = True, with_bar: bool = False):
    """Term-pair weights and one :class:`_AxisSums` per axis of the product
    of the per-axis cell partitions ``axes_edges``: the Grams (``gram``,
    ``with_bar``) and the full per-axis cell-integral arrays (``keep``)
    from the same blocked walk."""
    pairs = list(_term_pairs(phi, psi))
    axes = [_axis_pass(pairs, k, edges, cfg, keep, gram, with_bar)
            for k, edges in enumerate(axes_edges)]
    return np.array([w for w, _, _ in pairs]), axes


def _linear_total(weights, axes_cells) -> complex:
    """sum_j sum_a w_a prod_k M_a,k[j_k], the pairs summed in order."""
    sums = [cells.sum(axis=1).tolist() for cells in axes_cells]
    total = 0j
    for a, w in enumerate(weights.tolist()):
        for s in sums:
            w *= s[a]
        total += w
    return total


def _region_integral(phi: SeparableFunction, psi: SeparableFunction,
                     axes_edges: Sequence[np.ndarray],
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """Integral of conj(phi)*psi over the box covered by ``axes_edges``
    (one cell ``[lo, hi]`` per axis reads the box as a single cell)."""
    w, axes = _pair_data(phi, psi, axes_edges, cfg, keep=True, gram=False)
    return _linear_total(w, [ax.cells for ax in axes])


def bin_inner_product(phi: SeparableFunction, psi: SeparableFunction, cell: Bin,
                      cfg: QuadratureConfig = DEFAULT_CONFIG,
                      method: str = "auto") -> Integral:
    """<phi|P_B psi> = integral of conj(phi)*psi over the bin, with error estimate."""
    if phi.domain != psi.domain:
        raise ValueError("states live on different domains")
    if cell.d != psi.d:
        raise ValueError("bin dimension does not match the states")
    total = 0.0 + 0.0j
    err_total = 0.0
    for w, bf, kf in _term_pairs(phi, psi):
        prod = w
        abs_prod, abs_hi = abs(w), abs(w)
        for k, e in enumerate(cell.edges):
            vals, errs = cell_integrals(bf[k], kf[k], np.array([e.lo, e.hi]),
                                        cfg, method)
            prod *= complex(vals[0])
            abs_prod *= abs(vals[0])
            abs_hi *= abs(vals[0]) + float(errs[0])
        total += prod
        err_total += abs_hi - abs_prod
    return Integral(complex(total), float(err_total))


def bin_mass(psi: SeparableFunction, cell: Bin,
             cfg: QuadratureConfig = DEFAULT_CONFIG,
             method: str = "auto") -> float:
    """||P_B psi||^2, the collapse weight of the bin; clamped below at 0."""
    val = bin_inner_product(psi, psi, cell, cfg, method).value
    mass = float(np.real(val))
    if mass < 0.0:
        logger.debug("bin mass %r clamped to 0", mass)
        mass = 0.0
    return mass


def _region_cells(region, panels_per_axis: int):
    """Yield (edges per axis) blocks that tile the integration region."""
    if isinstance(region, GridLevel):
        for part in region.parts:
            yield part.breakpoints
    elif isinstance(region, Domain):
        if region.kind != "unit_cube":
            raise ValueError("pass a grid level for R^d regions")
        bp = np.linspace(0.0, 1.0, panels_per_axis + 1)
        yield (bp,) * region.d
    else:
        raise TypeError(f"cannot integrate over region of type {type(region)!r}")


def _call_at(func, pts: np.ndarray) -> np.ndarray:
    """A plain callable of the coordinates at an (N, d) point array."""
    if not callable(func):
        raise TypeError(f"cannot evaluate object of type {type(func)!r}")
    cols = [pts[:, k] for k in range(pts.shape[1])]
    return np.asarray(func(*cols) if pts.shape[1] > 1 else func(cols[0]),
                      dtype=complex)


def _axis_rule(edges: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-p Gauss-Legendre nodes and weights on every cell of one axis,
    cell by cell (the p nodes of cell 0 first)."""
    xi, wi = _gl_rule(p)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * xi[None, :]).ravel(),
            (half[:, None] * wi[None, :]).ravel())


def _outer_ravel(arrays) -> np.ndarray:
    out = arrays[0]
    for a in arrays[1:]:
        out = np.multiply.outer(out, a)
    return out.ravel()


def _separable_on_axes(f: SeparableFunction, nodes, size: int) -> np.ndarray:
    """f at the product of the per-axis node sets, flat in C order.

    Each factor is evaluated once on its own axis's nodes and the axes are
    joined by outer products in the multiplication order of
    ``SeparableFunction.evaluate``, so the values equal ``f.evaluate`` at
    the (N, d) point array bit for bit.
    """
    out = np.zeros(size, dtype=complex)
    for coeff, factors in f.terms:
        term = np.full(nodes[0].size, coeff, dtype=complex)
        term *= factors[0](nodes[0])
        out += _outer_ravel([term] + [fk(x) for fk, x in zip(factors[1:], nodes[1:])])
    return out


def _tensor_values(funcs, axes_edges: Sequence[np.ndarray], p: int):
    """([each func's values], weights) at the tensor Gauss-Legendre nodes of
    a product of per-axis cell partitions, all flat in C order.

    Separable functions are evaluated one axis at a time; an (N, d) point
    array is built only when a plain callable needs it.
    """
    nodes, w_1d = zip(*(_axis_rule(edges, p) for edges in axes_edges))
    w = _outer_ravel(w_1d)
    pts = None
    vals = []
    for f in funcs:
        if f is None or (np.isscalar(f) and f == 0):
            vals.append(np.zeros(w.size, dtype=complex))
        elif isinstance(f, SeparableFunction):
            vals.append(_separable_on_axes(f, nodes, w.size))
        else:
            if pts is None:
                grids = np.meshgrid(*nodes, indexing="ij")
                pts = np.stack([g.ravel() for g in grids], axis=-1)
            vals.append(_call_at(f, pts))
    return vals, w


def l2_distance(f, g, region, cfg: QuadratureConfig = DEFAULT_CONFIG,
                panels_per_axis: int = 64) -> float:
    """sqrt(integral of |f-g|^2) over a grid level or the unit cube
    (a ``Domain``, split into ``panels_per_axis`` panels per axis).

    ``f`` and ``g`` may be separable functions, plain callables of the
    coordinates, discretized functions, or 0 for the zero function.
    """
    p = cfg.points_per_axis_per_bin
    total = 0.0
    for axes_edges in _region_cells(region, panels_per_axis):
        (f_vals, g_vals), w = _tensor_values((f, g), axes_edges, p)
        total += float(np.real(np.dot(w, np.abs(f_vals - g_vals) ** 2)))
    return float(np.sqrt(max(total, 0.0)))


def l2_norm(f, region, cfg: QuadratureConfig = DEFAULT_CONFIG,
            panels_per_axis: int = 64) -> float:
    """sqrt(integral of |f|^2) over the region."""
    return l2_distance(f, 0, region, cfg, panels_per_axis)
