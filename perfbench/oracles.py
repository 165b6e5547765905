"""Independent reference values for the benchmark's correctness checks.

Everything here is written out from the closed forms with numpy, scipy
and mpmath.  Nothing calls into spatialzeno: the oracles receive the
grid breakpoints the library produced and the parameters the workload
drew from its seed, and recompute the quantities the library reports.

One-dimensional factors are plain tuples:

    ("uniform",)                     1 on [0, 1)
    ("sines", ((k, c), ...))         sum_k c sqrt(2) sin(k pi x) on [0, 1)
    ("haar", breaks, values)         piecewise constant on [0, 1)
    ("power", alpha)                 sqrt(1 - 2 alpha) x^(-alpha) on [0, 1)

``cells(bra, ket, edges)`` returns the integrals of conj(bra) * ket over
the cells [edges[i], edges[i+1]).  Gaussian states enter only through
|gaussian|^2, the Normal(mu, sigma^2) density (``normal_mass``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

SQRT2 = math.sqrt(2.0)


def _sine_uniform(k: int, edges: np.ndarray) -> np.ndarray:
    """Integral of sqrt(2) sin(k pi x) over each cell."""
    w = k * math.pi
    # cos(w a) - cos(w b) = 2 sin(w (a+b)/2) sin(w (b-a)/2), stable for small cells
    a, b = edges[:-1], edges[1:]
    return SQRT2 / w * 2.0 * np.sin(w * 0.5 * (a + b)) * np.sin(w * 0.5 * (b - a))


def _sine_sine(j: int, k: int, edges: np.ndarray) -> np.ndarray:
    """Integral of 2 sin(j pi x) sin(k pi x) = cos((j-k) pi x) - cos((j+k) pi x)."""
    a, b = edges[:-1], edges[1:]

    def cos_cells(m: int) -> np.ndarray:
        if m == 0:
            return b - a
        w = m * math.pi
        return 2.0 / w * np.cos(w * 0.5 * (a + b)) * np.sin(w * 0.5 * (b - a))

    return cos_cells(abs(j - k)) - cos_cells(j + k)


def _power_sine(alpha: float, k: int, edges: np.ndarray) -> np.ndarray:
    """Integral of c x^(-alpha) sqrt(2) sin(k pi x) by its power series.

    sin(w x) = sum_m (-1)^m w^(2m+1) x^(2m+1) / (2m+1)!, so the
    antiderivative is a sum of powers x^q, q = 2m + 2 - alpha; each
    difference b^q - a^q is formed as a^q expm1(q log1p((b-a)/a)).
    """
    c = math.sqrt(1.0 - 2.0 * alpha) * SQRT2
    w = k * math.pi
    a, b = edges[:-1], edges[1:]
    out = np.zeros(a.size)
    pos = a > 0.0
    ratio = np.log1p((b[pos] - a[pos]) / a[pos])
    coef = w
    for m in range(60):
        q = 2 * m + 2 - alpha
        diff = np.empty(a.size)
        diff[pos] = np.power(a[pos], q) * np.expm1(q * ratio)
        diff[~pos] = np.power(b[~pos], q)
        term = coef / q * diff
        out += term
        if m > 2 and np.max(np.abs(term)) < 1e-18 * max(1.0, float(np.max(np.abs(out)))):
            break
        coef *= -w * w / ((2 * m + 2) * (2 * m + 3))
    return c * out


def _haar_sine(breaks: np.ndarray, values: np.ndarray, k: int,
               edges: np.ndarray) -> np.ndarray:
    """Integral of conj(sqrt(2) sin(k pi x)) * piecewise constant per cell."""
    inner = breaks[(breaks > edges[0]) & (breaks < edges[-1])]
    fine = np.union1d(edges, inner)
    mids = 0.5 * (fine[:-1] + fine[1:])
    piece = np.clip(np.searchsorted(breaks, mids, side="right") - 1, 0, values.size - 1)
    contrib = values[piece] * _sine_uniform(k, fine)
    owner = np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, edges.size - 2)
    return np.bincount(owner, contrib.real, edges.size - 1) + \
        1j * np.bincount(owner, contrib.imag, edges.size - 1)


def normal_mass(mu: float, sigma: float, edges: np.ndarray) -> np.ndarray:
    """Normal(mu, sigma^2) probability of each cell, accurate in both tails."""
    z = (np.asarray(edges, dtype=float) - mu) / sigma
    a, b = z[:-1], z[1:]
    upper = a > 0.0
    out = np.empty(a.size)
    out[upper] = ndtr(-a[upper]) - ndtr(-b[upper])
    out[~upper] = ndtr(b[~upper]) - ndtr(a[~upper])
    return out


def cells(bra: tuple, ket: tuple, edges: np.ndarray) -> np.ndarray:
    """Cell integrals of conj(bra) * ket for the supported pairs."""
    edges = np.asarray(edges, dtype=float)
    kinds = (bra[0], ket[0])
    if kinds == ("uniform", "sines"):
        return sum(c * _sine_uniform(k, edges) for k, c in ket[1])
    if kinds == ("sines", "sines"):
        return sum(np.conj(cj) * ck * _sine_sine(j, k, edges)
                   for j, cj in bra[1] for k, ck in ket[1])
    if kinds == ("sines", "haar"):
        return sum(np.conj(c) * _haar_sine(ket[1], ket[2], k, edges) for k, c in bra[1])
    if kinds == ("sines", "power"):
        return sum(np.conj(c) * _power_sine(ket[1], k, edges) for k, c in bra[1])
    raise ValueError(f"no oracle for the pair {kinds}")


def prob_y1(phi_axes, psi_axes, breakpoints) -> float:
    """sum_j |<phi|P_j psi>|^2 for product states on one product grid.

    ``phi_axes`` and ``psi_axes`` list one factor per axis; the bin
    amplitude factorises, so the sum is a product of per-axis sums.
    """
    p = 1.0
    for bra, ket, bp in zip(phi_axes, psi_axes, breakpoints):
        p *= float(np.sum(np.abs(cells(bra, ket, bp)) ** 2))
    return p


def bar_norm(phi_axes, psi_axes, breakpoints) -> float:
    """sum_j |<phi|P_j psi>|^2 / |B_j| for product states on a product grid."""
    p = 1.0
    for bra, ket, bp in zip(phi_axes, psi_axes, breakpoints):
        p *= float(np.sum(np.abs(cells(bra, ket, bp)) ** 2 / np.diff(bp)))
    return p


def gaussian_self_prob(mu, sigma, breakpoints) -> float:
    """sum_j (Normal mass of B_j)^2: P(Y=1) for psi = phi = a gaussian state."""
    p = 1.0
    for m, s, bp in zip(mu, sigma, breakpoints):
        p *= float(np.sum(normal_mass(m, s, bp) ** 2))
    return p


def gaussian_cube_mass(mu, sigma, corners) -> float:
    """Normal mass of a union of translated unit cubes."""
    total = 0.0
    for corner in corners:
        m = 1.0
        for a, mk, sk in zip(corner, mu, sigma):
            m *= float(normal_mass(mk, sk, np.array([a, a + 1.0]))[0])
        total += m
    return total


def fit_rate(n, p) -> float:
    """Least-squares slope of -log p against log n."""
    slope, _ = np.polyfit(np.log(np.asarray(n, dtype=float)),
                          np.log(np.asarray(p, dtype=float)), 1)
    return float(-slope)


def mp_power_sine(alpha: float, k: int, a: float, b: float, dps: int = 30) -> complex:
    """mpmath value of the integral of c x^(-alpha) sqrt(2) sin(k pi x) on [a, b]."""
    # imported here: the library never loads mpmath, so importing it at the
    # top would add to the workload process's memory before the first pass
    import mpmath

    with mpmath.workdps(dps):
        c = mpmath.sqrt(1 - 2 * mpmath.mpf(alpha)) * mpmath.sqrt(2)
        f = lambda x: c * x ** (-mpmath.mpf(alpha)) * mpmath.sin(k * mpmath.pi * x)
        return complex(mpmath.quad(f, [mpmath.mpf(a), mpmath.mpf(b)]))
