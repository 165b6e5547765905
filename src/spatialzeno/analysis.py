"""Convergence studies over the resolution index, rate fits, and R^d truncation.

A convergence study evaluates P(Y=1) on a grid scheme for an increasing
list of resolutions and fits log p = log c - r log n by ordinary least
squares, skipping rows whose probability sits below ten times the
accumulated error bound (those are numerical noise, not signal).  The
Riemann-sum check compares n^d * P(Y=1) against the integral of
|phi|^2 |psi|^2, which is the limiting value for bounded states on
uniform grids.  Studies over R^d truncate to a centered list of unit
cubes capturing a requested probability mass; the dropped tail bounds
the truncation error additively.
"""

from __future__ import annotations

import itertools
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import GridScheme
from .measurement import _pair_pass, prob_y1_mixed
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _region_integral, l2_norm
from .states import DensityState, Domain, WaveFunction, inner_product, product_field

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
    """Captured probability mass of a centered cube truncation of R^d."""

    cubes: tuple[tuple[float, ...], ...]
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


def _study_rows(state, phi, scheme: GridScheme, n_list, cfg,
                threads: int = 1, extra_error: float = 0.0
                ) -> list[ConvergenceRow]:
    def one(n: int) -> ConvergenceRow:
        level = scheme.level(n)
        t0 = time.perf_counter()
        if isinstance(state, DensityState):
            r = prob_y1_mixed(state, phi, level, cfg, keep_per_bin=False)
            p_y1, err, bar = r.p_y1, r.p_y1_error_bound, None
        else:
            r = _pair_pass(state, phi, level, cfg, keep=False, with_bar=True)
            p_y1, err, bar = r.p_y1, r.error_bound, r.bar_norm_sq
        return ConvergenceRow(
            n=n, num_bins=level.num_bins, p_y1=p_y1,
            error_bound=err + extra_error,
            bar_norm_sq=bar, wall_time=time.perf_counter() - t0)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, n_list))
    return [one(n) for n in n_list]


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
                      fit_window: tuple[int, int] | None = None,
                      threads: int = 1) -> ConvergenceRecord:
    """P(Y=1) for every n in ``n_list`` plus the fitted decay rate.

    ``state`` is a WaveFunction or DensityState; rows are always
    assembled in n order regardless of the thread count.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3:
        raise ValueError("need at least 3 resolutions")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    rows = _study_rows(state, phi, scheme, n_list, cfg, threads)
    return _fit_record(state, phi, scheme, rows, fit_window)


def riemann_limit_check(phi: WaveFunction, psi: WaveFunction,
                        scheme: GridScheme, n_list: Sequence[int],
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> RiemannCheck:
    """Compare n^d * P(Y=1) with the integral of |phi|^2 |psi|^2.

    Requires both states bounded (the limit statement needs essential
    boundedness); raises UnboundedStateError otherwise.  For uneven
    grids the scaled probability is only sandwiched between
    bar_norm_sq / C^d and bar_norm_sq, which the returned rows expose.
    """
    if not (phi.bounded and psi.bounded):
        raise UnboundedStateError(
            "riemann_limit_check needs bounded states; "
            f"bounded flags: phi={phi.bounded}, psi={psi.bounded}")
    if phi.domain.kind != "unit_cube":
        raise ValueError("the Riemann-sum check runs on the unit cube")
    d = phi.d
    rows = []
    for n in n_list:
        level = scheme.level(n)
        r = _pair_pass(psi, phi, level, cfg, keep=False, with_bar=True)
        rows.append((int(n), float(n ** d * r.p_y1), float(r.bar_norm_sq)))
    f = product_field(phi, psi)
    reference = l2_norm(f, Domain.unit_cube(d), cfg, panels_per_axis=64) ** 2
    limit_estimate = rows[-1][1]
    rel = abs(limit_estimate - reference) / reference if reference > 0 else np.inf
    return RiemannCheck(limit_estimate=limit_estimate, reference=reference,
                        rel_error=rel, rows=rows)


def _captured_mass(state, k: int, d: int) -> float:
    """Probability mass of |state|^2 inside the box [-k, k)^d, read from
    the pair table with the box as one cell per axis."""
    box = [np.array([-k, k], dtype=float)] * d
    states = state.terms if isinstance(state, DensityState) else ((1.0, state),)
    return sum(w * _region_integral(wf, wf, box).real for w, wf in states)


def _centered_cubes(k: int, d: int) -> list[tuple[float, ...]]:
    return [tuple(float(c) for c in corner)
            for corner in itertools.product(range(-k, k), repeat=d)]


def rd_study(state, phi: WaveFunction, scheme: GridScheme,
             n_list: Sequence[int], mass_target: float,
             cfg: QuadratureConfig = DEFAULT_CONFIG,
             max_cubes: int = 4096,
             fit_window: tuple[int, int] | None = None,
             threads: int = 1) -> tuple[ConvergenceRecord, TailBudget]:
    """Convergence study on R^d truncated to a centered cube list.

    Grows a symmetric list of translated unit cubes until it captures at
    least ``mass_target`` of both |psi|^2 and |phi|^2, then runs the
    study on that region.  Every row's error bound includes the tail
    bound ||phi||^2 * (1 - captured mass).
    """
    if not 0.0 < mass_target < 1.0:
        raise ValueError("mass_target must be in (0, 1)")
    if state.domain.kind != "euclidean":
        raise ValueError("rd_study expects states on R^d")
    d = state.domain.d
    k = 1
    while True:
        if (2 * k) ** d > max_cubes:
            raise CubeBudgetExceededError(
                f"capturing {mass_target!r} needs more than {max_cubes} cubes")
        cap_psi = _captured_mass(state, k, d)
        cap_phi = _captured_mass(phi, k, d)
        if cap_psi >= mass_target and cap_phi >= mass_target:
            break
        k += 1
    corners = _centered_cubes(k, d)
    phi_norm_sq = float(np.real(inner_product(phi, phi)))
    tail = TailBudget(cubes=tuple(corners),
                      captured_mass=cap_psi,
                      tail_bound=phi_norm_sq * max(0.0, 1.0 - cap_psi))
    rd_scheme = scheme.with_cubes(corners)
    rows = _study_rows(state, phi, rd_scheme, [int(n) for n in n_list], cfg,
                       threads, extra_error=tail.tail_bound)
    record = _fit_record(state, phi, rd_scheme, rows, fit_window)
    return record, tail
