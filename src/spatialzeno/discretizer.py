"""Bar-chart discretization: replace f on every bin by its bin average.

The discretization f_n of an integrable f takes on each bin B_j the
constant value (1/|B_j|) * integral of f over B_j.  It is the L2
projection onto functions constant per bin, is idempotent, contracts the
sup norm, and its squared norm equals sum_j |I_j|^2 / |B_j| where I_j is
the raw bin integral; that identity connects it to the measurement
amplitudes when f = conj(phi)*psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import GridLevel, ProductGrid
from .measurement import PER_BIN_LIMIT, bar_norm_squared
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    cell_integrals,
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


def _bin_integrals_separable(f: SeparableFunction, part: ProductGrid,
                             cfg: QuadratureConfig) -> np.ndarray:
    total = None
    for coeff, factors in f.terms:
        term = None
        for k in range(part.d):
            vals, _ = cell_integrals(ONE, factors[k], part.breakpoints[k], cfg)
            term = vals if term is None else np.multiply.outer(term, vals)
        term = coeff * term.ravel()
        total = term if total is None else total + term
    return total


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


def discretize(f, level: GridLevel, cfg: QuadratureConfig = DEFAULT_CONFIG,
               allow_large: bool = False) -> DiscretizedFunction:
    """Per-bin averages of f on the grid level.

    ``f`` may be a separable-sum function (wavefunctions, products
    conj(phi)*psi) or a plain callable of the coordinates.  Bin integrals
    use the same exact-first path as the measurement module.
    """
    if level.num_bins > PER_BIN_LIMIT and not allow_large:
        raise ValueError(f"{level.num_bins} bins exceed the size guard; "
                         "pass allow_large=True to override")
    bin_integrals = (_bin_integrals_separable if isinstance(f, SeparableFunction)
                     else _bin_integrals_callable)
    integrals = np.concatenate([bin_integrals(f, part, cfg) for part in level.parts])
    return DiscretizedFunction(level=level,
                               averages=np.asarray(integrals, dtype=complex)
                               / level.volumes(),
                               source=f)


def discretization_error(f, level: GridLevel,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L2 distance ||f_n - f|| between f and its bar chart on the level.

    A separable f is evaluated one axis at a time on the quadrature nodes.
    """
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
        total += float(np.real(np.dot(w, diff2)))
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
