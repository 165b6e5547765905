"""Convergence studies over the resolution index, rate fits, and R^d truncation.

A convergence study evaluates P(Y=1) on a grid scheme for an increasing
list of resolutions and fits log p = log c - r log n by ordinary least
squares, skipping rows whose probability sits below ten times the
accumulated error bound (those are numerical noise, not signal).  The
Riemann-sum check compares n^d * P(Y=1) against the integral of
|phi|^2 |psi|^2, which is the limiting value for bounded states on
uniform grids.  Studies over R^d truncate to a centered box of unit
cubes capturing a requested probability mass; the dropped tail bounds
the truncation error additively.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import CubeBox, GridScheme, ProductGrid
from .measurement import _mass_pass, _pair_pass
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _region_integral
from .states import WaveFunction, inner_product, product_field

__all__ = [
    "ConvergenceRow",
    "ConvergenceRecord",
    "RiemannCheck",
    "TailBudget",
    "UnboundedStateError",
    "CubeBudgetExceededError",
    "DegenerateWindowError",
    "InsufficientSignalError",
    "fit_rate",
    "convergence_study",
    "riemann_limit_check",
    "rd_study",
]

# a probability is treated as signal only this far above its error bound
NOISE_FACTOR = 10.0


class UnboundedStateError(ValueError):
    """Operation requires states flagged as (essentially) bounded."""


class CubeBudgetExceededError(RuntimeError):
    """Reaching the mass target needs more cubes than the cap allows."""


class DegenerateWindowError(ValueError):
    """Fewer than three usable rows in the fit window."""


class InsufficientSignalError(RuntimeError):
    """Every row of the study sits below the numerical noise threshold."""


@dataclass
class ConvergenceRow:
    n: int
    num_bins: int
    p_y1: float
    error_bound: float
    bar_norm_sq: float | None
    wall_time: float


@dataclass
class ConvergenceRecord:
    """P(Y=1) against n, with the fitted power-law decay."""

    scheme: dict
    state_label: str
    phi_label: str
    rows: list[ConvergenceRow]
    fitted_rate: float
    fitted_constant: float
    fit_residual: float
    fit_window: tuple[int, int]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass
class RiemannCheck:
    """n^d * P(Y=1) at the finest level against the integral of |phi psi|^2."""

    limit_estimate: float
    reference: float
    rel_error: float
    rows: list[tuple[int, float, float]]  # (n, n^d * p, bar_norm_sq)


@dataclass
class TailBudget:
    """Captured probability mass of a centered cube truncation of R^d.

    ``cubes`` is the :class:`CubeBox` [-k, k)^d of the truncation: a lazy
    sequence of its (2k)^d corner tuples in C order, with ``len``,
    indexing and per-axis ``axes``, so no corner list is built.
    """

    cubes: CubeBox
    captured_mass: float
    tail_bound: float


def fit_rate(rows, window: tuple[int, int] | None = None
             ) -> tuple[float, float, float]:
    """Least-squares fit of log p = log c - rate * log n.

    ``rows`` holds (n, p) pairs or ConvergenceRow objects.  Rows with
    p <= 0 are excluded with a warning (their logarithm is undefined).
    Returns (rate, constant, rms residual).
    """
    pairs = []
    for r in rows:
        n, p = (r.n, r.p_y1) if isinstance(r, ConvergenceRow) else (r[0], r[1])
        if window is not None and not (window[0] <= n <= window[1]):
            continue
        if p <= 0.0:
            warnings.warn(f"row n={n} has p_y1={p!r}; excluded from the rate fit")
            continue
        pairs.append((n, p))
    if len(pairs) < 3:
        raise DegenerateWindowError(
            f"rate fit needs at least 3 usable rows, got {len(pairs)}")
    x = np.log([n for n, _ in pairs])
    y = np.log([p for _, p in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(-slope), float(np.exp(intercept)), float(np.sqrt(np.mean(resid ** 2)))


def _study_row(state, phi, level, cfg, extra_error: float) -> ConvergenceRow:
    t0 = time.perf_counter()
    r = _pair_pass(state, phi, level, cfg, keep=False, with_bar=True)
    return ConvergenceRow(
        n=level.n, num_bins=level.num_bins, p_y1=r.p_y1,
        error_bound=r.error_bound + extra_error,
        bar_norm_sq=r.bar_norm_sq, wall_time=time.perf_counter() - t0)


def _study_rows(state, phi, scheme: GridScheme, n_list, cfg,
                extra_error: float = 0.0) -> list[ConvergenceRow]:
    """One row per n, in n order, each from one ``_pair_pass`` of the pure
    or density state (a density state reports no bar norm); each level is
    freed before the next one is built."""
    return [_study_row(state, phi, scheme.level(n), cfg, extra_error) for n in n_list]


def _resolutions(n_list: Sequence[int], minimum: int = 3) -> list[int]:
    """``n_list`` as ints, checked before any level is built: at least
    ``minimum`` resolutions, strictly increasing."""
    n_list = [int(n) for n in n_list]
    if len(n_list) < minimum:
        raise ValueError(f"n_list needs at least {minimum} entries, got {len(n_list)}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    return n_list


def _fit_record(state, phi, scheme, rows, fit_window) -> ConvergenceRecord:
    usable = [r for r in rows if r.p_y1 > NOISE_FACTOR * r.error_bound]
    if len(usable) < 3:
        raise InsufficientSignalError(
            f"only {len(usable)} of {len(rows)} rows rise above "
            f"{NOISE_FACTOR}x their error bound; no rate can be fitted")
    window = fit_window or (usable[0].n, usable[-1].n)
    rate, const, resid = fit_rate(usable, window)
    label = state.label if isinstance(state, WaveFunction) else \
        f"density[{len(state.terms)} terms]"
    return ConvergenceRecord(
        scheme=scheme.describe(), state_label=label, phi_label=phi.label,
        rows=rows, fitted_rate=rate, fitted_constant=const,
        fit_residual=resid, fit_window=window)


def convergence_study(state, phi: WaveFunction, scheme: GridScheme,
                      n_list: Sequence[int],
                      cfg: QuadratureConfig = DEFAULT_CONFIG,
                      fit_window: tuple[int, int] | None = None) -> ConvergenceRecord:
    """P(Y=1) for every n in ``n_list`` plus the fitted decay rate.

    ``state`` is a WaveFunction or DensityState.
    """
    rows = _study_rows(state, phi, scheme, _resolutions(n_list), cfg)
    return _fit_record(state, phi, scheme, rows, fit_window)


def riemann_limit_check(phi: WaveFunction, psi: WaveFunction,
                        scheme: GridScheme, n_list: Sequence[int],
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> RiemannCheck:
    """Compare n^d * P(Y=1) with the integral of |phi|^2 |psi|^2.

    ``n_list`` holds one or more strictly increasing resolutions, checked
    before anything is computed; the limit estimate is the last, finest row.

    The reference is read from the per-axis pair table of
    f = conj(phi)*psi against itself on the unit cube, one cell per axis:
    closed form for trig, indicator and superposition pairs at any d, and
    one numeric cell per axis (split at the jumps) for the rest, such as
    Haar pieces.  Requires both states bounded (the limit statement needs
    essential boundedness); raises UnboundedStateError otherwise.  For uneven
    grids the scaled probability is only sandwiched between
    bar_norm_sq / C^d and bar_norm_sq, which the returned rows expose.
    """
    n_list = _resolutions(n_list, minimum=1)
    if not (phi.bounded and psi.bounded):
        raise UnboundedStateError(
            "riemann_limit_check needs bounded states; "
            f"bounded flags: phi={phi.bounded}, psi={psi.bounded}")
    if phi.domain.kind != "unit_cube":
        raise ValueError("the Riemann-sum check runs on the unit cube")
    d = phi.d
    rows = [(r.n, float(r.n ** d * r.p_y1), float(r.bar_norm_sq))
            for r in _study_rows(psi, phi, scheme, n_list, cfg)]
    f = product_field(phi, psi)
    reference = _region_integral(f, f, [np.array([0.0, 1.0])] * d, cfg).real
    limit_estimate = rows[-1][1]
    rel = abs(limit_estimate - reference) / reference if reference > 0 else np.inf
    return RiemannCheck(limit_estimate=limit_estimate, reference=reference,
                        rel_error=rel, rows=rows)


def _captured_masses(states, k: int, d: int, cfg: QuadratureConfig) -> list[float]:
    """Probability mass of each |state|^2 inside the box [-k, k)^d: the
    mass pass on the box, built once, as one cell per axis."""
    box = ProductGrid(1, [np.array([-k, k], dtype=float)] * d)
    return [_mass_pass(state, box, cfg, keep=False)[0] for state in states]


def rd_study(state, phi: WaveFunction, scheme: GridScheme,
             n_list: Sequence[int], mass_target: float,
             cfg: QuadratureConfig = DEFAULT_CONFIG,
             max_cubes: int = 4096,
             fit_window: tuple[int, int] | None = None
             ) -> tuple[ConvergenceRecord, TailBudget]:
    """Convergence study on R^d truncated to a centered box of unit cubes.

    Grows the box [-k, k)^d until it captures at least ``mass_target`` of
    both |psi|^2 and |phi|^2, then runs the study on that box.  The box is
    decided once: one :class:`CubeBox` goes into ``TailBudget.cubes`` and
    into the study's scheme, and each level is one product grid built
    from its per-axis coordinates.  ``max_cubes`` caps (2k)^d; no corner
    list is built.  Every row's error bound includes the tail bound
    ||phi||^2 * (1 - captured mass).  Raises ValueError when the state's
    dimension is not ``scheme.d``, before any mass is computed.
    """
    if not 0.0 < mass_target < 1.0:
        raise ValueError("mass_target must be in (0, 1)")
    if state.domain.kind != "euclidean":
        raise ValueError("rd_study expects states on R^d")
    n_list = _resolutions(n_list)
    d = state.domain.d
    if d != scheme.d:
        raise ValueError("state dimension does not match the grid")
    k = 1
    while True:
        if (2 * k) ** d > max_cubes:
            raise CubeBudgetExceededError(
                f"capturing {mass_target!r} needs more than {max_cubes} cubes")
        masses = _captured_masses((state,) if phi == state else (state, phi), k, d, cfg)
        cap_psi, cap_phi = masses[0], masses[-1]
        if cap_psi >= mass_target and cap_phi >= mass_target:
            break
        k += 1
    box = CubeBox((k,) * d)
    phi_norm_sq = float(np.real(inner_product(phi, phi)))
    tail = TailBudget(cubes=box,
                      captured_mass=cap_psi,
                      tail_bound=phi_norm_sq * max(0.0, 1.0 - cap_psi))
    rd_scheme = scheme.with_cubes(box)
    rows = _study_rows(state, phi, rd_scheme, n_list, cfg,
                       extra_error=tail.tail_bound)
    record = _fit_record(state, phi, rd_scheme, rows, fit_window)
    return record, tail
