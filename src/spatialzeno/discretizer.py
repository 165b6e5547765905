"""Bar-chart discretization: replace f on every bin by its bin average.

The discretization f_n of an integrable f takes on each bin B_j the
constant value (1/|B_j|) * integral of f over B_j.  It is the L2
projection onto functions constant per bin, is idempotent, contracts the
sup norm, and its squared norm equals sum_j |I_j|^2 / |B_j| where I_j is
the raw bin integral; that identity connects it to the measurement
amplitudes when f = conj(phi)*psi.

Both outputs of a separable-sum f = sum_a c_a prod_k f_ak come from its
per-axis cell integrals I_ak: a bin integral is sum_a c_a prod_k I_ak,
and the squared L2 error ||f - f_n||^2 is a Gram form of one small
node-weighted Gram per axis, so the error builds no per-bin or per-node
array and has no bin limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import GridLevel, ProductGrid
from .measurement import (
    _gram_form,
    _per_bin_arrays,
    _require_tables,
    bar_norm_squared,
)
from .quadrature import (
    DEFAULT_CONFIG,
    PAIR_BLOCK,
    QuadratureConfig,
    _axis_rule,
    _pair_data,
    _tensor_values,
)
from .states import ONE, SeparableFunction, WaveFunction, product_field

__all__ = [
    "DiscretizedFunction",
    "discretize",
    "discretization_error",
    "norm_identity_check",
]


@dataclass
class DiscretizedFunction:
    """Piecewise-constant bar chart of a source function on a grid level."""

    level: GridLevel
    averages: np.ndarray
    source: object = None

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 0
        if pts.ndim <= 1:
            pts = np.atleast_1d(pts)
            pts = pts[:, None] if self.level.d == 1 else pts[None, :]
        out = self.averages[self.level.locate_many(pts)]
        return out[0] if scalar else out

    def __call__(self, *coords) -> np.ndarray:
        if len(coords) == 1:
            return self.evaluate(coords[0])
        return self.evaluate(np.stack([np.asarray(c, dtype=float)
                                       for c in coords], axis=-1))

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.averages) ** 2 * self.level.volumes()))


def _one(f: SeparableFunction) -> SeparableFunction:
    """The constant 1 as the bra of f's <1|f> pair table."""
    return SeparableFunction(f.domain, ((1.0 + 0.0j, (ONE,) * f.d),))


def _one_pair_data(f: SeparableFunction, part: ProductGrid, cfg: QuadratureConfig):
    """The <1|f> pair table on a product grid: the weights c_a and, per
    axis, the cell integrals I_ak of every term's factor (``cells[a]``)."""
    return _pair_data(_one(f), f, part.breakpoints, cfg, keep=True, gram=False)


def _check_dim(f, level: GridLevel) -> None:
    """Raise ValueError when a separable f's dimension is not the level's."""
    if isinstance(f, SeparableFunction) and f.d != level.d:
        raise ValueError(f"f has dimension {f.d}, the grid {level.d}")


def _bin_integrals_separable(f: SeparableFunction, part: ProductGrid,
                             cfg: QuadratureConfig) -> np.ndarray:
    w, axes = _one_pair_data(f, part, cfg)
    return _per_bin_arrays(w, [ax.cells for ax in axes])


def _bin_integrals_callable(f: Callable, part: ProductGrid,
                            cfg: QuadratureConfig) -> np.ndarray:
    p = cfg.points_per_axis_per_bin
    (vals,), w = _tensor_values((f,), part.breakpoints, p)
    per_cell = (vals * w).reshape([m * p for m in part.shape])
    for k in range(part.d):
        per_cell = per_cell.reshape(
            per_cell.shape[:k] + (part.shape[k], p) + per_cell.shape[k + 1:]
        ).sum(axis=k + 1)
    return per_cell.ravel()


# bytes per bin at discretize's peak (tracemalloc): a separable f holds the
# complex128 bin integrals and, for two or more terms, _per_bin_arrays'
# complex128 term buffer, and
# the <1|f> pair table's cells (counted by _should_keep); a plain callable
# holds its tensor-node values, weights and points, at most _NODE_BYTES +
# 16 d per node (measured on d = 1..3)
_SEPARABLE_BYTES_PER_BIN = 16 + 16
_NODE_BYTES = 40


def discretize(f, level: GridLevel, cfg: QuadratureConfig = DEFAULT_CONFIG,
               allow_large: bool = False) -> DiscretizedFunction:
    """Per-bin averages of f on the grid level.

    ``f`` may be a separable-sum function (wavefunctions, products
    conj(phi)*psi) or a plain callable of the coordinates.  A separable
    f's bin integrals come from its <1|f> pair table, the measurement
    module's exact-first path.  Before anything is built, raises
    ValueError above ``measurement.PER_BIN_LIMIT`` bins unless
    ``allow_large``, and TableTooLargeError when the tables would not fit
    in physical memory, and ValueError when a separable f's dimension is
    not the level's.
    """
    _check_dim(f, level)
    separable = isinstance(f, SeparableFunction)
    per_bin, tables = ((_SEPARABLE_BYTES_PER_BIN, ((_one(f), f),)) if separable else
                       ((_NODE_BYTES + 16 * level.d) * cfg.points_per_axis_per_bin ** level.d, ()))
    _require_tables(level, True if allow_large else "auto", per_bin, tables, "allow_large")
    bin_integrals = _bin_integrals_separable if separable else _bin_integrals_callable
    averages = np.concatenate([bin_integrals(f, part, cfg) for part in level.parts])
    averages /= level.volumes()
    return DiscretizedFunction(level=level, averages=averages, source=f)


def _residual_gram(factors, averages: np.ndarray, edges: np.ndarray,
                   p: int) -> np.ndarray:
    """Node-weighted Gram sum_i w_i U_r[i] conj(U_s[i]) of the 3P rows
    U = [F; F - A; A] on one axis: F_a is factor a at the order-p
    Gauss-Legendre nodes of every cell, A_a its cell average repeated on
    the cell's nodes.  The nodes are walked in blocks of about PAIR_BLOCK,
    so no full-length node array is built.
    """
    step = max(1, PAIR_BLOCK // p)
    G = 0.0
    for start in range(0, edges.size - 1, step):
        x, w = _axis_rule(edges[start:start + step + 1], p)
        F = np.array([fk(x) for fk in factors])
        A = np.repeat(averages[:, start:start + step], p, axis=1)
        U = np.concatenate([F, F - A, A])
        G = G + np.einsum("ai,bi->ab", U * w, U.conj(), optimize=False)
    return G


def _separable_error_sq(f: SeparableFunction, part: ProductGrid,
                        cfg: QuadratureConfig) -> float:
    """Squared tensor Gauss-Legendre L2 error of the bar chart on one
    product grid, from per-axis Grams.

    Per node, prod_k F_ak - prod_k A_ak telescopes into
    sum_k (prod_{j<k} F_aj) R_ak (prod_{j>k} A_aj) with R = F - A, so
    f - f_n is a separable sum of d*P terms (term (a, k) has weight c_a and
    row F, R or A on axis j < k, j = k, j > k), and its squared norm over
    the tensor nodes is the Gram form of the per-axis Grams of those rows.
    Every term carries one residual factor, so the form adds up terms of
    the error's size rather than subtracting terms of ||f||'s size.
    """
    p = cfg.points_per_axis_per_bin
    P, d = len(f.terms), part.d
    w, axes = _one_pair_data(f, part, cfg)
    grams = []
    for j, (edges, ax) in enumerate(zip(part.breakpoints, axes)):
        averages = ax.cells / np.diff(edges)
        G = _residual_gram([factors[j] for _, factors in f.terms], averages, edges, p)
        rows = np.array([(0 if j < k else 1 if j == k else 2) * P + a
                         for k in range(d) for a in range(P)])
        grams.append(G[np.ix_(rows, rows)])
    return _gram_form(np.tile(w, d), grams)


def discretization_error(f, level: GridLevel,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L2 distance ||f_n - f|| between f and its bar chart on the level,
    by order-p tensor Gauss-Legendre on every bin.

    A separable f takes per-axis Grams of its factors and their cell
    averages (``_separable_error_sq``): no per-bin or per-node array is
    built, so the size guard of :func:`discretize` does not apply.  A
    plain callable is evaluated on every bin's tensor nodes.  Raises
    ValueError when a separable f's dimension is not the level's.
    """
    _check_dim(f, level)
    if isinstance(f, SeparableFunction):
        total = sum(_separable_error_sq(f, part, cfg) for part in level.parts)
        return float(np.sqrt(max(total, 0.0)))
    disc = discretize(f, level, cfg)
    p = cfg.points_per_axis_per_bin
    total = 0.0
    for (start, stop), part in zip(level.index_ranges, level.parts):
        (vals,), w = _tensor_values((f,), part.breakpoints, p)
        per_cell = vals.reshape([m * p for m in part.shape])
        expanded = disc.averages[start:stop].reshape(part.shape)
        for k in range(part.d):
            expanded = np.repeat(expanded, p, axis=k)
        diff2 = np.abs(per_cell - expanded).ravel() ** 2
        total += float(np.real(np.add.reduce(w * diff2)))
    return float(np.sqrt(max(total, 0.0)))


def norm_identity_check(phi: WaveFunction, psi: WaveFunction, level: GridLevel,
                        cfg: QuadratureConfig = DEFAULT_CONFIG
                        ) -> tuple[float, float]:
    """(lhs, rhs) of ||f_n||^2 = sum_j |<phi|P_j psi>|^2 / |B_j|, f = conj(phi)psi.

    The lhs comes from the discretizer's bin averages, the rhs from the
    measurement module's amplitudes; the identity is exact, so any gap
    isolates an integration bug.
    """
    f = product_field(phi, psi)
    lhs = discretize(f, level, cfg).norm_squared()
    rhs = bar_norm_squared(psi, phi, level, cfg)
    return lhs, rhs
