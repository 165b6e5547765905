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

import math
import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import CubeBox, GridScheme, _int, _real
from .measurement import _pair_pass, _spectrum
from .quadrature import DEFAULT_CONFIG, PAIR_BLOCK, QuadratureConfig, _pair_data, \
    _region_integral
from .states import WaveFunction, product_field

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

# half-width of the first captured-mass walk; it doubles while the target
# is missed
_FIRST_HALF_WIDTH = 16


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
    # centred least squares, each sum exactly rounded (math.fsum)
    x_mean, y_mean = math.fsum(x) / x.size, math.fsum(y) / y.size
    slope = math.fsum((x - x_mean) * (y - y_mean)) / math.fsum((x - x_mean) ** 2)
    intercept = y_mean - slope * x_mean
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
    """``n_list`` as ints (an integral float passes), checked before any
    level is built: at least ``minimum`` resolutions, strictly increasing."""
    n_list = [_int(f"n_list[{i}]", n) for i, n in enumerate(n_list)]
    if len(n_list) < minimum:
        raise ValueError(f"n_list needs at least {minimum} entries, got {len(n_list)}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    return n_list


def _check_window(fit_window, n_list: list[int]) -> tuple[int, int] | None:
    """The window as ints, checked before any level is built; raises
    DegenerateWindowError when it holds fewer than 3 resolutions of ``n_list``."""
    if fit_window is None:
        return None
    lo, hi = (_int(f"fit_window[{i}]", v) for i, v in enumerate(fit_window))
    inside = sum(lo <= n <= hi for n in n_list)
    if inside < 3:  # lo >= hi holds at most one resolution
        raise DegenerateWindowError(
            f"fit window {(lo, hi)} holds {inside} of the resolutions "
            f"{n_list}; a rate fit needs lo < hi and at least 3 rows")
    return lo, hi


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

    ``state`` is a WaveFunction or DensityState.  ``n_list`` and
    ``fit_window`` are checked before any level is built.
    """
    n_list = _resolutions(n_list)
    fit_window = _check_window(fit_window, n_list)
    rows = _study_rows(state, phi, scheme, n_list, cfg)
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
    reference = _region_integral(f, f, [np.array([0.0, 1.0])] * d, cfg).value.real
    limit_estimate = rows[-1][1]
    rel = abs(limit_estimate - reference) / reference if reference > 0 else np.inf
    return RiemannCheck(limit_estimate=limit_estimate, reference=reference,
                        rel_error=rel, rows=rows)


def _box_masses(state, K: int, d: int, cfg: QuadratureConfig) -> np.ndarray:
    """Probability mass of |state|^2 inside each centred box [-k, k)^d,
    k = 1..K.

    One pair-table walk per spectral term over the unit cells of [-K, K)
    on every axis: an axis's cells folded about 0 and summed cumulatively
    give each term pair's window [-k, k), so the box mass of term l is
    Re(w @ prod_axes S_axis(k)).
    """
    edges = [np.arange(-K, K + 1, dtype=float)] * d
    masses = np.zeros(K)
    for p_l, psi in _spectrum(state):
        w, axes = _pair_data(psi, psi, edges, cfg, keep=True, gram=False)
        windows = math.prod(np.cumsum(ax.cells[:, K - 1::-1] + ax.cells[:, K:], axis=1)
                            for ax in axes)
        masses += p_l * np.real(np.add.reduce(w[:, None] * windows))
    return masses


def _max_half_width(d: int, max_cubes: int) -> int:
    """The largest k with (2k)^d <= ``max_cubes`` and k <= PAIR_BLOCK // 2
    (0 when none), by bisection on integers."""
    lo, hi = 0, PAIR_BLOCK // 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (2 * mid) ** d <= max_cubes:
            lo = mid
        else:
            hi = mid - 1
    return lo


def rd_study(state, phi: WaveFunction, scheme: GridScheme,
             n_list: Sequence[int], mass_target: float,
             cfg: QuadratureConfig = DEFAULT_CONFIG,
             max_cubes: int = 4096,
             fit_window: tuple[int, int] | None = None
             ) -> tuple[ConvergenceRecord, TailBudget]:
    """Convergence study on R^d truncated to a centered box of unit cubes.

    Picks the smallest box [-k, k)^d that captures at least
    ``mass_target`` of both |psi|^2 and |phi|^2, then runs the study on
    that box.  The masses of every box up to [-K, K)^d come from one
    pair-table walk over the unit cells of [-K, K) per axis and spectral
    term (an equal phi is not walked again); K starts at 16 and doubles
    while the target is missed, up to the largest k with
    (2k)^d <= ``max_cubes`` and k <= PAIR_BLOCK // 2.
    The box is decided once: one :class:`CubeBox` goes into
    ``TailBudget.cubes`` and into the study's scheme, and each level is
    one product grid built from its per-axis coordinates; no corner list
    is built.  Every row's error bound includes the tail bound
    ||phi||^2 * (1 - captured mass).  Raises ValueError when the state's
    dimension is not ``scheme.d``, and DegenerateWindowError for a
    ``fit_window`` that holds fewer than 3 resolutions, before any mass is
    computed.
    """
    mass_target = _real("mass_target", mass_target)
    if not 0.0 < mass_target < 1.0:
        raise ValueError("mass_target must be in (0, 1)")
    if state.domain.kind != "euclidean":
        raise ValueError("rd_study expects states on R^d")
    n_list = _resolutions(n_list)
    d = state.domain.d
    if d != scheme.d:
        raise ValueError("state dimension does not match the grid")
    fit_window = _check_window(fit_window, n_list)
    k_max = _max_half_width(d, max_cubes)
    K, reached = min(_FIRST_HALF_WIDTH, k_max), np.zeros(0, dtype=bool)
    while K >= 1:
        cap_psi = _box_masses(state, K, d, cfg)
        cap_phi = cap_psi if phi == state else _box_masses(phi, K, d, cfg)
        reached = (cap_psi >= mass_target) & (cap_phi >= mass_target)
        if reached.any() or K == k_max:
            break
        K = min(2 * K, k_max)
    if not reached.any():
        raise CubeBudgetExceededError(
            f"capturing {mass_target!r} needs more than {max_cubes} cubes "
            f"or more than {PAIR_BLOCK} per axis")
    k = int(np.argmax(reached)) + 1
    cap_psi = float(cap_psi[k - 1])
    box = CubeBox((k,) * d)
    phi_norm_sq = phi.norm_squared()
    tail = TailBudget(cubes=box,
                      captured_mass=cap_psi,
                      tail_bound=phi_norm_sq * max(0.0, 1.0 - cap_psi))
    rd_scheme = scheme.with_cubes(box)
    rows = _study_rows(state, phi, rd_scheme, n_list, cfg,
                       extra_error=tail.tail_bound)
    record = _fit_record(state, phi, rd_scheme, rows, fit_window)
    return record, tail
