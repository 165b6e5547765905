"""Wavefunction catalog, density states, and exact bin integrals.

States live on [0,1)^d or on R^d and are stored as finite sums of
separable terms, each term being a coefficient times a product of
one-dimensional factors.  That representation is closed under linear
combination and tensor products, keeps evaluation cheap, and lets bin
integrals factor axis by axis: the integral of conj(phi)*psi over a
rectangular cell is a sum over term pairs of products of 1-d cell
integrals, which have elementary antiderivatives for the whole trig
family (constants, sine modes, complex exponentials, indicators,
piecewise constants) and for Gaussian pairs; power singularities paired
with a power or with the trig family integrate as x^p times a power
series.  Pairs without a closed form, or with a trig frequency too high
for the series, report ``None`` so the quadrature module can take over.

Catalog factors and their natural (unit-norm) scaling:

==================  =====================================================
uniform             1 on [0,1)
sine_mode(k)        sqrt(2) sin(k pi x) on [0,1)
complex_exponential exp(2 pi i k x) on [0,1)
indicator(a,b)      (b-a)^(-1/2) on [a,b)
power_singular(a)   sqrt(1-2a) x^(-a) on [0,1), 0 < a < 1/2 (``alpha``)
gaussian(mu,sigma)  (2 pi sigma^2)^(-1/4) exp(-(x-mu)^2/(4 sigma^2)) on R
haar_like(seed)     seeded random constant on ``pieces`` equal cells
==================  =====================================================
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf

from .grids import Bin

__all__ = [
    "Domain",
    "Primitive1D",
    "SeparableFunction",
    "WaveFunction",
    "DensityState",
    "NonOrthogonalTermsError",
    "make_state",
    "make_density",
    "superpose",
    "tensor_product",
    "product_field",
    "exact_cell_integrals",
    "CATALOG",
]

NORM_TOL = 1e-9
ORTHO_TOL = 1e-6


class NonOrthogonalTermsError(ValueError):
    """Spectral terms of a density state must be pairwise orthogonal."""


@dataclass(frozen=True)
class Domain:
    """Either the unit cube [0,1)^d or all of R^d."""

    kind: str  # "unit_cube" | "euclidean"
    d: int

    def __post_init__(self) -> None:
        if self.kind not in ("unit_cube", "euclidean"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @classmethod
    def unit_cube(cls, d: int = 1) -> "Domain":
        return cls("unit_cube", d)

    @classmethod
    def euclidean(cls, d: int = 1) -> "Domain":
        return cls("euclidean", d)

    def axis_bounds(self, k: int = 0) -> tuple[float, float]:
        if self.kind == "unit_cube":
            return (0.0, 1.0)
        return (-np.inf, np.inf)


# ---------------------------------------------------------------------------
# one-dimensional factors


class Primitive1D:
    """One-dimensional factor of a separable term."""

    support: tuple[float, float] = (-np.inf, np.inf)
    bounded: bool = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fourier_terms(self):
        """Expansion sum_m c_m exp(i w_m x) on the support, or None."""
        return None

    def singularity(self):
        """(point, exponent) of an integrable power singularity, or None."""
        return None

    def discontinuities(self) -> tuple[float, ...]:
        """Interior jump points; quadrature cells are split on these."""
        return ()

    def smooth_eval(self, x: np.ndarray) -> np.ndarray:
        """Value with the singular power factor stripped (used by quadrature)."""
        return self(x)

    def _mask(self, x: np.ndarray, values: np.ndarray) -> np.ndarray:
        lo, hi = self.support
        if lo == -np.inf and hi == np.inf:
            return values
        return np.where((x >= lo) & (x < hi), values, 0.0)


class _One(Primitive1D):
    """Internal constant 1 on the whole line; pairs with f to give plain int f."""

    def __call__(self, x):
        return np.ones_like(np.asarray(x, dtype=float), dtype=complex)

    def fourier_terms(self):
        return [(1.0 + 0.0j, 0.0)]


ONE = _One()


@dataclass(frozen=True)
class Uniform1D(Primitive1D):
    support: tuple[float, float] = (0.0, 1.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self._mask(x, np.ones_like(x, dtype=complex))

    def fourier_terms(self):
        return [(1.0 + 0.0j, 0.0)]


@dataclass(frozen=True)
class Sine1D(Primitive1D):
    k: int
    support: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("sine mode index k must be >= 1")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self._mask(x, np.sqrt(2.0) * np.sin(self.k * np.pi * x) + 0.0j)

    def fourier_terms(self):
        c = np.sqrt(2.0) / 2.0j
        w = self.k * np.pi
        return [(c, w), (-c, -w)]


@dataclass(frozen=True)
class Cexp1D(Primitive1D):
    k: int
    support: tuple[float, float] = (0.0, 1.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self._mask(x, np.exp(2j * np.pi * self.k * x))

    def fourier_terms(self):
        return [(1.0 + 0.0j, 2.0 * np.pi * self.k)]


@dataclass(frozen=True)
class Indicator1D(Primitive1D):
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError("indicator needs 0 <= a < b <= 1")
        object.__setattr__(self, "support", (self.a, self.b))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        h = 1.0 / np.sqrt(self.b - self.a)
        return self._mask(x, np.full_like(x, h, dtype=complex))

    def fourier_terms(self):
        return [(1.0 / np.sqrt(self.b - self.a) + 0.0j, 0.0)]

    def discontinuities(self) -> tuple[float, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class PowerSingular1D(Primitive1D):
    """c * x^(-alpha) on [0,1): square integrable but unbounded at 0."""

    alpha: float
    support: tuple[float, float] = (0.0, 1.0)
    bounded: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(
                f"alpha={self.alpha} invalid: need 0 < alpha < 1/2 for square "
                "integrability of x^(-alpha)")

    @property
    def coeff(self) -> float:
        return float(np.sqrt(1.0 - 2.0 * self.alpha))

    def __call__(self, x):
        # capped at the measure-zero singular point; integration never
        # evaluates here (antiderivative / Gauss-Jacobi paths are used)
        x = np.asarray(x, dtype=float)
        safe = np.where(x > 0.0, x, 1e-12)
        return self._mask(x, self.coeff * safe ** (-self.alpha) + 0.0j)

    def singularity(self):
        return (0.0, self.alpha)

    def smooth_eval(self, x):
        x = np.asarray(x, dtype=float)
        return self._mask(x, np.full_like(x, self.coeff, dtype=complex))


@dataclass(frozen=True)
class Gaussian1D(Primitive1D):
    """Unit-norm Gaussian wave packet; |psi|^2 is the Normal(mu, sigma^2) pdf."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def amp(self) -> float:
        return float((2.0 * np.pi * self.sigma ** 2) ** (-0.25))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amp * np.exp(-((x - self.mu) ** 2) / (4.0 * self.sigma ** 2)) + 0.0j


@dataclass(frozen=True)
class PiecewiseConstant1D(Primitive1D):
    breaks: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.breaks) != len(self.values) + 1:
            raise ValueError("need len(breaks) == len(values) + 1")
        if not all(a < b for a, b in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "support", (self.breaks[0], self.breaks[-1]))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self._mask(x, self.pieces_at(x))

    def pieces_at(self, x: np.ndarray) -> np.ndarray:
        """Value of the piece holding each point (the end pieces extend outward)."""
        idx = np.clip(np.searchsorted(np.asarray(self.breaks), x, side="right") - 1,
                      0, len(self.values) - 1)
        return np.asarray(self.values, dtype=complex)[idx]

    def discontinuities(self) -> tuple[float, ...]:
        return self.breaks


@dataclass(frozen=True)
class Restricted1D(Primitive1D):
    """Factor multiplied by the indicator of [lo, hi); used by collapse."""

    base: Primitive1D
    lo: float
    hi: float

    def __post_init__(self):
        blo, bhi = self.base.support
        object.__setattr__(self, "support", (max(self.lo, blo), min(self.hi, bhi)))
        object.__setattr__(self, "bounded", self.base.bounded)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self._mask(x, self.base(x))

    def fourier_terms(self):
        return self.base.fourier_terms()

    def singularity(self):
        s = self.base.singularity()
        if s is None:
            return None
        lo, hi = self.support
        return s if lo <= s[0] < hi or s[0] == lo else None

    def discontinuities(self) -> tuple[float, ...]:
        return self.base.discontinuities() + (self.lo, self.hi)

    def smooth_eval(self, x):
        x = np.asarray(x, dtype=float)
        return self._mask(x, self.base.smooth_eval(x))


@dataclass(frozen=True)
class PairFactor(Primitive1D):
    """Pointwise product conj(bra) * ket, itself usable as an axis factor."""

    bra: Primitive1D
    ket: Primitive1D

    def __post_init__(self):
        lo = max(self.bra.support[0], self.ket.support[0])
        hi = min(self.bra.support[1], self.ket.support[1])
        object.__setattr__(self, "support", (lo, hi))
        object.__setattr__(self, "bounded", self.bra.bounded and self.ket.bounded)

    def __call__(self, x):
        return np.conj(self.bra(x)) * self.ket(x)

    def fourier_terms(self):
        tb, tk = self.bra.fourier_terms(), self.ket.fourier_terms()
        if tb is None or tk is None:
            return None
        return [(np.conj(cb) * ck, -wb + wk) for cb, wb in tb for ck, wk in tk]

    def singularity(self):
        sb, sk = self.bra.singularity(), self.ket.singularity()
        if sb is None and sk is None:
            return None
        if sb is not None and sk is not None:
            if sb[0] != sk[0]:
                raise NotImplementedError("distinct singular points in one factor")
            return (sb[0], sb[1] + sk[1])
        return sb if sb is not None else sk

    def discontinuities(self) -> tuple[float, ...]:
        return self.bra.discontinuities() + self.ket.discontinuities()

    def smooth_eval(self, x):
        return np.conj(self.bra.smooth_eval(x)) * self.ket.smooth_eval(x)


# ---------------------------------------------------------------------------
# exact cell integrals


def _unwrap(p: Primitive1D) -> Primitive1D:
    while isinstance(p, Restricted1D):
        p = p.base
    return p


class PhaseTable:
    """cos(|w| x) and sin(|w| x) on one edges array, each computed once per
    distinct |w| and only when a kernel asks for it.

    The arrays are real and bitwise equal to ``np.cos(abs(w) * edges)`` and
    ``np.sin(abs(w) * edges)``; the sign of w is folded into the kernel's
    coefficients, so a sine mode against a constant needs only the cosine.
    A table belongs to the array it was made for: callers create one per
    block of edges and pass it down explicitly, and it is used only for
    that exact array object.
    """

    def __init__(self, edges: np.ndarray) -> None:
        self.edges = edges
        self._cos: dict[float, np.ndarray] = {}
        self._sin: dict[float, np.ndarray] = {}

    def _cached(self, cache: dict, fn, w: float) -> np.ndarray:
        key = abs(w)
        if key not in cache:
            cache[key] = fn(key * self.edges)
        return cache[key]

    def cos(self, w: float) -> np.ndarray:
        return self._cached(self._cos, np.cos, w)

    def sin(self, w: float) -> np.ndarray:
        return self._cached(self._sin, np.sin, w)


def _real_or_complex(c: complex) -> float | complex:
    """A coefficient as a float when its imaginary part is exactly 0."""
    c = complex(c)
    return c.real if c.imag == 0.0 else c


def _real_cells(terms, cells: int) -> np.ndarray:
    """np.diff of sum c * basis() over real (c, basis) terms; a basis array
    whose coefficient is exactly 0 is never built."""
    anti = None
    for c, basis in terms:
        if c != 0.0:
            term = c * basis()
            anti = term if anti is None else np.add(anti, term, out=anti)
    return np.zeros(cells) if anti is None else np.diff(anti)


def _trig_cells(terms, edges: np.ndarray,
                phases: PhaseTable | None = None) -> np.ndarray:
    """Cells of sum_m c_m exp(i w_m x), float64 when the result is real.

    Each +-w pair is folded into one antiderivative A cos(|w| x) +
    B sin(|w| x), with A = (c+ - c-) / (i|w|) and B = (c+ + c-) / |w|,
    next to the linear w = 0 term.  Real and imaginary parts are formed
    separately from real basis arrays; the imaginary part is skipped when
    every folded coefficient is real.
    """
    if phases is None or phases.edges is not edges:
        phases = PhaseTable(edges)
    lin = 0j
    folded: dict[float, list[complex]] = {}  # |w| -> [c+, c-]
    for c, w in terms:
        if w == 0.0:
            lin += c
        else:
            folded.setdefault(abs(w), [0j, 0j])[w < 0.0] += c
    anti_terms = [(lin, lambda: edges)]
    for a, (cp, cm) in folded.items():
        d, s = cp - cm, cp + cm
        anti_terms += [(complex(d.imag / a, -d.real / a), lambda a=a: phases.cos(a)),
                 (complex(s.real / a, s.imag / a), lambda a=a: phases.sin(a))]
    re = _real_cells([(c.real, basis) for c, basis in anti_terms], edges.size - 1)
    if not any(c.imag for c, _ in anti_terms):
        return re
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = _real_cells([(c.imag, basis) for c, basis in anti_terms], edges.size - 1)
    return out


def _power_diff(edges: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(a^p, b^p - a^p) on each cell [a, b) of nonnegative edges.

    The difference is formed as a^p expm1(p log1p(h / a)), which does not
    cancel on narrow cells far from 0; it is b^p where a = 0.
    """
    a, b = edges[:-1], edges[1:]
    ap = np.power(a, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = ap * np.expm1(p * np.log1p((b - a) / a))
    zero = a == 0.0
    if zero.any():
        diff[zero] = np.power(b[zero], p)
    return ap, diff


# Largest max|w| * b for which power x trig cells are summed as a series.
# The alternating terms (|w| b)^m / m! grow to about exp(|w| b) before they
# cancel, and the sum loses that factor of its 16 digits.  Measured against
# 40-digit mpmath (alpha = 0.05, 0.3, 0.49; a sine or exponential partner;
# 1024 jittered cells), the worst cell error relative to h max|integrand|
# is 4e-14 at |w| b = 2 pi, 1.6e-13 at 8, 8e-13 at 10 and 1e-11 at 12.
# Pairs above the limit fall back to Gauss-Jacobi quadrature.
_POWER_SERIES_WMAX = 8.0


@lru_cache(maxsize=256)
def _power_series(coeff: float, p: float, terms: tuple, b: float) -> tuple:
    """Coefficients s_m of S(x) = sum_m s_m x^m with x^p S(x) an
    antiderivative of coeff x^(p-1) sum_t c_t exp(i w_t x) on [0, b].

    s_m = coeff sum_t c_t (i w_t)^m / (m! (m + p)).  As in ``_trig_cells``
    each +-w pair is folded into (c+ + c-) cos + i (c+ - c-) sin, so a real
    partner gives real coefficients and a sine partner odd-only ones.  The
    series stops at the first M whose remainder sum_t |c_t| (|w_t| b)^(M+1)
    / (M+1)! is below 2^-53 sum_t |c_t|.
    """
    lin = 0j
    folded: dict[float, list[complex]] = {}  # |w| -> [c+, c-]
    for c, w in terms:
        if w == 0.0:
            lin += c
        else:
            folded.setdefault(abs(w), [0j, 0j])[w < 0.0] += c
    # (|w|, cosine weight c+ + c-, sine weight i (c+ - c-))
    parts = [(a, cp + cm, complex(-(cp - cm).imag, (cp - cm).real))
             for a, (cp, cm) in folded.items()]
    size = sum(abs(c) for c, _ in terms)
    tail = [(abs(c), abs(w) * b) for c, w in terms]  # |c_t| (|w_t| b)^m / m!
    powers = [1.0] * len(parts)  # |w|^m / m!
    coefs = []
    m = 0
    while True:
        sign = -1.0 if (m // 2) % 2 else 1.0
        s = lin if m == 0 else 0j
        for j, (a, kc, ks) in enumerate(parts):
            s += sign * powers[j] * (ks if m % 2 else kc)
            powers[j] *= a / (m + 1)
        coefs.append(coeff * s / (m + p))
        tail = [(r * x / (m + 1), x) for r, x in tail]
        if sum(r for r, _ in tail) <= 2.0 ** -53 * size:
            break
        m += 1
    if not any(c.imag for c in coefs):
        return tuple(c.real for c in coefs)
    return tuple(coefs)


def _horner_pair(coefs, ua: np.ndarray, ub: np.ndarray, hu: np.ndarray):
    """(T(ua), T(ub) - T(ua)) for T(u) = sum_j coefs[j] u^j and hu = ub - ua.

    The difference comes from the divided-difference recurrence
    D <- D ub + T hu, run beside Horner's T <- T ua + c, so T(ub) is never
    subtracted from T(ua).  All-zero ``coefs`` give (0.0, 0.0).
    """
    coefs = list(coefs)
    while coefs and coefs[-1] == 0.0:
        coefs.pop()
    if len(coefs) < 2:
        return (coefs[0] if coefs else 0.0), 0.0
    dtype = np.result_type(ua, *coefs)
    t = np.full(ua.shape, coefs[-1], dtype=dtype)
    d = np.zeros(ua.shape, dtype=dtype)
    tmp = np.empty(ua.shape, dtype=dtype)
    for c in reversed(coefs[:-1]):
        d *= ub
        d += np.multiply(t, hu, out=tmp)
        t *= ua
        t += c
    return t, d


def _power_cells(coeff: float, gamma: float, terms, b: float,
                 edges: np.ndarray) -> np.ndarray | None:
    """Cells of coeff x^(-gamma) sum_t c_t exp(i w_t x) on [0, b], or None
    when max|w| b exceeds _POWER_SERIES_WMAX.

    With p = 1 - gamma and F(x) = x^p S(x) (see ``_power_series``) each
    cell is formed as F(b) - F(a) = (b^p - a^p) S(b) + a^p (S(b) - S(a));
    S is split into even and odd parts E(x^2) + x O(x^2), each evaluated
    with its difference by ``_horner_pair``.  A constant partner leaves
    S = s_0 and the cell (b^p - a^p) s_0.  The truncation depends only on
    b, the pair's support end, so every block of a pass gets the same
    series.
    """
    if max(abs(w) for _, w in terms) * b > _POWER_SERIES_WMAX:
        return None
    p = 1.0 - gamma
    coefs = _power_series(coeff, p, tuple(terms), b)
    ap, dp = _power_diff(edges, p)
    if len(coefs) == 1:
        return dp * coefs[0]
    lo, hi = edges[:-1], edges[1:]
    h = hi - lo
    ua, ub, hu = lo * lo, hi * hi, h * (lo + hi)
    e_a, e_d = _horner_pair(coefs[0::2], ua, ub, hu)
    o_a, o_d = _horner_pair(coefs[1::2], ua, ub, hu)
    o_b = o_a + o_d
    s_b = e_a + e_d + hi * o_b
    ds = e_d + h * o_b + lo * o_d
    return dp * s_b + ap * ds


def _gauss_const_cells(g: Gaussian1D, const: complex, edges: np.ndarray) -> np.ndarray:
    a = 1.0 / (4.0 * g.sigma ** 2)
    pref = _real_or_complex(const) * g.amp * 0.5 * np.sqrt(np.pi / a)
    return pref * np.diff(erf(np.sqrt(a) * (edges - g.mu)))


def _gauss_pair_cells(f: Gaussian1D, g: Gaussian1D, edges: np.ndarray) -> np.ndarray:
    a1 = 1.0 / (4.0 * f.sigma ** 2)
    a2 = 1.0 / (4.0 * g.sigma ** 2)
    a = a1 + a2
    m = (a1 * f.mu + a2 * g.mu) / a
    r = a1 * a2 * (f.mu - g.mu) ** 2 / a
    pref = f.amp * g.amp * np.exp(-r) * 0.5 * np.sqrt(np.pi / a)
    return pref * np.diff(erf(np.sqrt(a) * (edges - m)))


def _const_of(p: Primitive1D) -> complex | None:
    terms = p.fourier_terms()
    if terms is not None and len(terms) == 1 and terms[0][1] == 0.0:
        return complex(terms[0][0])
    return None


def _split_on_pieces(pcw: PiecewiseConstant1D, pcw_is_bra: bool,
                     other: Primitive1D, edges: np.ndarray,
                     phases: PhaseTable | None):
    """Refine edges on the piecewise breaks, integrate per piece, re-aggregate."""
    breaks = np.asarray(pcw.breaks)
    inner = breaks[(edges[0] < breaks) & (breaks < edges[-1])]
    refined = np.union1d(edges, inner) if inner.size else edges
    plain = exact_cell_integrals(ONE, other, refined, phases=phases)
    if plain is None:
        return None
    mids = 0.5 * (refined[:-1] + refined[1:])
    consts = pcw.pieces_at(mids)
    if not any(np.imag(pcw.values)):
        consts = consts.real
    if pcw_is_bra:
        contrib = np.conj(consts) * plain
    else:
        # integral of conj(other) = conj(integral of other)
        contrib = consts * np.conj(plain)
    out = np.zeros(edges.size - 1, dtype=contrib.dtype)
    pos = np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, out.size - 1)
    np.add.at(out, pos, contrib)
    return out


def exact_cell_integrals(f: Primitive1D, g: Primitive1D, edges: np.ndarray, *,
                         phases: PhaseTable | None = None) -> np.ndarray | None:
    """Closed-form integrals of conj(f)*g over consecutive cells, or None.

    ``edges`` is a sorted 1-d array; the result has one entry per cell
    [edges[i], edges[i+1]).  Cells outside the common support contribute 0.
    The result is float64 when the pair's coefficients are real (sine
    modes, constants, indicators, Gaussians, real pieces) and complex128
    otherwise.
    ``phases`` is an optional PhaseTable made for ``edges``, shared by
    calls on the same edges so each cos(|w|x) and sin(|w|x) is evaluated
    once.
    """
    edges = np.asarray(edges, dtype=float)
    lo = max(f.support[0], g.support[0])
    hi = min(f.support[1], g.support[1])
    if lo >= hi:
        return np.zeros(edges.size - 1)
    if edges[0] < lo or edges[-1] > hi:
        edges = np.clip(edges, lo if np.isfinite(lo) else None,
                        hi if np.isfinite(hi) else None)
    f, g = _unwrap(f), _unwrap(g)

    # resolve nested pair factors against the trivial partner
    if isinstance(f, _One) and isinstance(g, PairFactor):
        return exact_cell_integrals(g.bra, g.ket, edges, phases=phases)
    if isinstance(g, _One) and isinstance(f, PairFactor):
        inner = exact_cell_integrals(f.bra, f.ket, edges, phases=phases)
        return None if inner is None else np.conj(inner)

    if isinstance(f, PiecewiseConstant1D):
        return _split_on_pieces(f, True, g, edges, phases)
    if isinstance(g, PiecewiseConstant1D):
        return _split_on_pieces(g, False, f, edges, phases)

    tf, tg = f.fourier_terms(), g.fourier_terms()
    if tf is not None and tg is not None:
        prod = [(np.conj(cf) * cg, -wf + wg) for cf, wf in tf for cg, wg in tg]
        return _trig_cells(prod, edges, phases)

    fp = isinstance(f, PowerSingular1D)
    gp = isinstance(g, PowerSingular1D)
    if fp and gp:
        return _power_cells(f.coeff * g.coeff, f.alpha + g.alpha, [(1.0, 0.0)],
                            hi, edges)
    if fp or gp:
        power, terms = (f, tg) if fp else (g, tf)
        if terms is None:
            return None
        if gp:  # conjugate the bra side
            terms = [(np.conj(c), -w) for c, w in terms]
        return _power_cells(power.coeff, power.alpha, terms, hi, edges)

    f_gauss, g_gauss = isinstance(f, Gaussian1D), isinstance(g, Gaussian1D)
    if f_gauss and g_gauss:
        return _gauss_pair_cells(f, g, edges)
    if f_gauss or g_gauss:
        gauss = f if f_gauss else g
        other = g if f_gauss else f
        c = _const_of(other)
        if c is not None:
            # the gaussian factor is real, so only the constant's side matters
            return _gauss_const_cells(gauss, c if f_gauss else np.conj(c), edges)
        return None
    return None


# ---------------------------------------------------------------------------
# separable-sum functions and wavefunctions


Term = tuple[complex, tuple[Primitive1D, ...]]


@dataclass(frozen=True)
class SeparableFunction:
    """Finite sum of coefficient * product-of-1d-factors terms."""

    domain: Domain
    terms: tuple[Term, ...]
    label: str = ""

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one term")
        for _, factors in self.terms:
            if len(factors) != self.domain.d:
                raise ValueError("every term needs one factor per axis")

    @property
    def d(self) -> int:
        return self.domain.d

    @property
    def bounded(self) -> bool:
        return all(f.bounded for _, factors in self.terms for f in factors)

    def evaluate(self, points) -> np.ndarray:
        """Values at an (N, d) array of points (or (N,) when d == 1)."""
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 0
        if pts.ndim <= 1:
            pts = np.atleast_1d(pts)[:, None]
        if pts.shape[1] != self.d:
            raise ValueError(f"points have {pts.shape[1]} coordinates, need {self.d}")
        out = np.zeros(pts.shape[0], dtype=complex)
        for coeff, factors in self.terms:
            term = np.full(pts.shape[0], coeff, dtype=complex)
            for k, f in enumerate(factors):
                term *= f(pts[:, k])
            out += term
        return out[0] if scalar else out

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)


def inner_product(f: SeparableFunction, g: SeparableFunction) -> complex:
    """<f|g> = integral of conj(f)*g over the common domain, read from the
    pair table on the domain box, one cell per axis."""
    if f.domain != g.domain:
        raise ValueError(f"domain mismatch: {f.domain} vs {g.domain}")
    from .quadrature import _region_integral
    box = [np.array(f.domain.axis_bounds(k)) for k in range(f.d)]
    return _region_integral(f, g, box)


@dataclass(frozen=True)
class WaveFunction(SeparableFunction):
    """Normalised state; ||psi|| = 1 within NORM_TOL, checked on construction."""

    check_norm: bool = True
    collapsed_from: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.check_norm:
            nsq = self.norm_squared()
            if abs(nsq - 1.0) > NORM_TOL:
                raise ValueError(f"state {self.label!r} has ||psi||^2 = {nsq!r}, not 1")

    def norm_squared(self) -> float:
        return float(np.real(inner_product(self, self)))

    def inner(self, other: "SeparableFunction") -> complex:
        return inner_product(self, other)

    def restrict(self, cell: Bin, norm_const: float) -> "WaveFunction":
        """State multiplied by the cell indicator and rescaled by norm_const."""
        new_terms = tuple(
            (coeff * norm_const,
             tuple(Restricted1D(f, e.lo, e.hi) for f, e in zip(factors, cell.edges)))
            for coeff, factors in self.terms)
        return WaveFunction(domain=self.domain, terms=new_terms,
                            label=f"{self.label}|restricted", check_norm=False,
                            collapsed_from=(self, cell, norm_const))

    def as_euclidean(self) -> "WaveFunction":
        """Same state read as an element of L^2(R^d) (supports are compact)."""
        if self.domain.kind == "euclidean":
            return self
        return replace(self, domain=Domain.euclidean(self.d), check_norm=False)


def product_field(phi: SeparableFunction, psi: SeparableFunction) -> SeparableFunction:
    """The function conj(phi)*psi as a separable sum (not normalised)."""
    if phi.domain != psi.domain:
        raise ValueError("states live on different domains")
    terms = []
    for cb, bf in phi.terms:
        for ck, kf in psi.terms:
            factors = tuple(PairFactor(b, k) for b, k in zip(bf, kf))
            terms.append((complex(np.conj(cb) * ck), factors))
    return SeparableFunction(domain=phi.domain, terms=tuple(terms),
                             label=f"conj({phi.label})*{psi.label}")


def superpose(terms: Iterable[tuple[complex, WaveFunction]]) -> WaveFunction:
    """Renormalised linear combination of states on a common domain."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    domain = terms[0][1].domain
    flat: list[Term] = []
    for coeff, wf in terms:
        if wf.domain != domain:
            raise ValueError("all states must share one domain")
        for c, factors in wf.terms:
            flat.append((complex(coeff) * c, factors))
    raw = SeparableFunction(domain, tuple(flat))
    nsq = float(np.real(inner_product(raw, raw)))
    if nsq <= 0.0:
        raise ValueError("combination has zero norm")
    scale = 1.0 / np.sqrt(nsq)
    label = " + ".join(f"({c})*{wf.label}" for c, wf in terms)
    return WaveFunction(domain, tuple((c * scale, f) for c, f in flat),
                        label=f"superpose[{label}]")


def tensor_product(states: Sequence[WaveFunction]) -> WaveFunction:
    """Tensor product of 1-d (or lower-d) states into one higher-d state."""
    if not states:
        raise ValueError("need at least one factor state")
    kind = states[0].domain.kind
    if any(s.domain.kind != kind for s in states):
        raise ValueError("all factor states must share the domain kind")
    d = sum(s.d for s in states)
    terms: list[Term] = [(1.0 + 0.0j, ())]
    for s in states:
        terms = [(c0 * c1, f0 + f1) for c0, f0 in terms for c1, f1 in s.terms]
    domain = Domain(kind, d)
    label = " x ".join(s.label for s in states)
    return WaveFunction(domain, tuple(terms), label=f"tensor[{label}]")


# ---------------------------------------------------------------------------
# density states


@dataclass(frozen=True)
class DensityState:
    """Finite spectral list (p_l, psi_l); the dropped tail is 1 - sum p_l."""

    terms: tuple[tuple[float, WaveFunction], ...]
    declared_trace: float

    @property
    def d(self) -> int:
        return self.terms[0][1].d

    @property
    def domain(self) -> Domain:
        return self.terms[0][1].domain

    @property
    def tail_mass(self) -> float:
        return max(0.0, 1.0 - self.declared_trace)


def make_density(terms: Iterable[tuple[float, WaveFunction]],
                 renormalize: bool = False) -> DensityState:
    """Validated density state from (weight, state) pairs.

    Weights must be nonnegative and sum to at most 1 (unless
    ``renormalize``); the states must be pairwise orthogonal within
    ORTHO_TOL.
    """
    terms = [(float(p), wf) for p, wf in terms]
    if not terms:
        raise ValueError("need at least one spectral term")
    if any(p < 0.0 for p, _ in terms):
        raise ValueError("negative weight in density state")
    total = sum(p for p, _ in terms)
    if renormalize:
        if total <= 0.0:
            raise ValueError("cannot renormalise zero total weight")
        terms = [(p / total, wf) for p, wf in terms]
        total = 1.0
    elif total > 1.0 + 1e-12:
        raise ValueError(f"weights sum to {total!r} > 1; pass renormalize=True to rescale")
    domain = terms[0][1].domain
    for _, wf in terms:
        if wf.domain != domain:
            raise ValueError("all spectral terms must share one domain")
    for i, (_, a) in enumerate(terms):
        for _, b in terms[i + 1:]:
            ov = abs(inner_product(a, b))
            if ov > ORTHO_TOL:
                raise NonOrthogonalTermsError(
                    f"|<{a.label}|{b.label}>| = {ov:.3e} exceeds {ORTHO_TOL}")
    return DensityState(tuple(terms), declared_trace=total)


# ---------------------------------------------------------------------------
# catalog


class CatalogEntry(NamedTuple):
    build: Callable[..., WaveFunction]
    params: dict  # parameter -> JSON schema of its config value, in order
    required: tuple[str, ...]  # the parameters the builder gives no default


# entry name -> CatalogEntry: make_state, the CLI's state schema and its
# capabilities report all read this one mapping
CATALOG: dict[str, CatalogEntry] = {}
_NUM, _INT = {"type": "number"}, {"type": "integer"}
_POS_INT = {"type": "integer", "minimum": 1}
_NUMS = {"anyOf": [_NUM, {"type": "array", "items": _NUM}]}


def _catalog(name: str, **params):
    """Register the decorated builder as entry ``name``."""
    def register(build):
        sig = inspect.signature(build).parameters
        assert list(sig) == list(params), f"{name}: schema and builder disagree"
        CATALOG[name] = CatalogEntry(build, params, tuple(
            p for p, s in sig.items() if s.default is s.empty))
        return build
    return register


def _int(name: str, value) -> int:
    """An integer parameter; integral floats pass, as in JSON schema."""
    try:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _state_1d(prim: Primitive1D, label: str) -> WaveFunction:
    return WaveFunction(Domain.unit_cube(1), ((1.0 + 0.0j, (prim,)),), label=label)


@_catalog("uniform", d=_POS_INT)
def _uniform(d=1):
    d = _int("d", d)
    return WaveFunction(Domain.unit_cube(d), ((1.0 + 0.0j, (Uniform1D(),) * d),),
                        label=f"uniform(d={d})")


@_catalog("sine_mode", k=_POS_INT)
def _sine_mode(k):
    k = _int("k", k)
    return _state_1d(Sine1D(k), f"sine_mode({k})")


@_catalog("sine_product", ks={"type": "array", "minItems": 1, "items": _POS_INT})
def _sine_product(ks):
    ks = [_int("ks", k) for k in ks]
    return WaveFunction(Domain.unit_cube(len(ks)),
                        ((1.0 + 0.0j, tuple(Sine1D(k) for k in ks)),),
                        label=f"sine_product({ks})")


@_catalog("complex_exponential", k=_INT)
def _complex_exponential(k):
    k = _int("k", k)
    return _state_1d(Cexp1D(k), f"complex_exponential({k})")


@_catalog("indicator", a=_NUM, b=_NUM)
def _indicator(a, b):
    a, b = float(a), float(b)
    return _state_1d(Indicator1D(a, b), f"indicator({a},{b})")


@_catalog("power_singular", alpha=_NUM)
def _power_singular(alpha):
    alpha = float(alpha)
    return _state_1d(PowerSingular1D(alpha), f"power_singular({alpha})")


@_catalog("gaussian", mu=_NUMS, sigma=_NUMS)
def _gaussian(mu, sigma):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if mu.size != sigma.size:
        raise ValueError("mu and sigma need the same length")
    factors = tuple(Gaussian1D(float(m), float(s)) for m, s in zip(mu, sigma))
    return WaveFunction(Domain.euclidean(mu.size), ((1.0 + 0.0j, factors),),
                        label=f"gaussian(mu={mu.tolist()},sigma={sigma.tolist()})")


@_catalog("haar_like", seed=_INT, pieces=_POS_INT)
def _haar_like(seed, pieces=8):
    seed, pieces = _int("seed", seed), _int("pieces", pieces)
    if pieces < 1:
        raise ValueError("pieces must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(pieces,)))
    vals = rng.standard_normal(pieces) + 1j * rng.standard_normal(pieces)
    width = 1.0 / pieces
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * width)
    breaks = tuple(np.arange(pieces + 1) / pieces)
    prim = PiecewiseConstant1D(breaks, tuple(complex(v) for v in vals))
    return _state_1d(prim, f"haar_like(seed={seed},pieces={pieces})")


# (coeff, state) pairs; the CLI schema gives a pair its JSON form
_catalog("superpose", terms={"type": "array", "minItems": 1})(superpose)


def make_state(catalog: str, **params) -> WaveFunction:
    """Build the ``CATALOG`` entry ``catalog``, e.g. ``make_state("sine_mode",
    k=2)``; ``CATALOG[catalog].params`` names its parameters.

    An unknown entry, an unknown or missing parameter, or a non-integral
    value of an integer parameter raises ValueError.
    """
    entry = CATALOG.get(catalog)
    if entry is None:
        raise ValueError(f"unknown catalog entry {catalog!r}")
    extra = sorted(set(params) - set(entry.params))
    if extra:
        raise ValueError(f"unexpected parameters for {catalog!r}: {extra}")
    missing = [p for p in entry.required if p not in params]
    if missing:
        raise ValueError(f"{catalog!r} needs the parameters {missing}")
    return entry.build(**params)
