"""Wavefunction catalog, density states, and exact bin integrals.

States live on [0,1)^d or on R^d and are stored as finite sums of
separable terms, each term being a coefficient times a product of
one-dimensional factors.  That representation is closed under linear
combination and tensor products, keeps evaluation cheap, and lets bin
integrals factor axis by axis: the integral of conj(phi)*psi over a
rectangular cell is a sum over term pairs of products of 1-d cell
integrals.  The trig family, Gaussian envelopes included (constants, sine
modes, complex exponentials, indicators, Gaussians, piecewise constants),
has closed-form cells for every pair; power singularities paired with a
power or with an unenveloped trig factor integrate as x^p times a power
series.  Pairs without a closed form, or with a trig frequency too high
for the series, report ``None`` so the quadrature module can take over.
Only the Gaussian cells need scipy: ``erfc`` and ``wofz`` are imported on
the first of them, so importing the package loads numpy alone.

Catalog factors and their natural (unit-norm) scaling.  All but the power
law and the Haar pieces are each a ``Trig1D`` whose ``terms`` (c_m, w_m) of
sum_m c_m exp(i w_m x) are listed, with c = sqrt(2) / 2i:

==================  =====================================================
uniform             1 on [0,1); terms (1, 0)
sine_mode(k)        sqrt(2) sin(k pi x) on [0,1); terms (c, k pi), (-c, -k pi)
complex_exponential exp(2 pi i k x) on [0,1); terms (1, 2 pi k)
indicator(a,b)      (b-a)^(-1/2) on [a,b); terms ((b-a)^(-1/2), 0)
gaussian(mu,sigma)  (2 pi sigma^2)^(-1/4) exp(-(x-mu)^2/(4 sigma^2)) on R;
                    terms ((2 pi sigma^2)^(-1/4), 0), envelope (4 sigma^2, mu)
power_singular(a)   sqrt(1-2a) x^(-a) on [0,1), 0 < a < 1/2 (``alpha``)
haar_like(seed)     seeded random constant on ``pieces`` equal cells
==================  =====================================================
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .grids import Bin, _int, _real, _reals, _seed

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
        object.__setattr__(self, "d", _int("d", self.d))
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
    # (v, m): the factor's Fourier terms are multiplied by exp(-(x - m)^2 / v);
    # v = inf is no envelope
    envelope: tuple[float, float] = (np.inf, 0.0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fourier_terms(self):
        """Expansion sum_m c_m exp(i w_m x) of the factor over its envelope,
        on the support, or None."""
        return None

    def singularity(self):
        """(point, exponent) of an integrable singularity |x - point|^-exponent,
        or None.  The point must be the lower end of the support: quadrature
        integrates the factor with that weight on the cells that start at
        the point, and rejects a point inside the support."""
        return None

    def restricted(self, lo: float, hi: float) -> "Primitive1D":
        """The factor times the indicator of [lo, hi): its support narrowed."""
        return replace(self, support=(max(lo, self.support[0]), min(hi, self.support[1])))

    def discontinuities(self) -> tuple[float, ...]:
        """Jump points, finite support ends included; quadrature splits a
        cell on those strictly inside it."""
        return ()

    def _mask(self, x: np.ndarray, values: np.ndarray) -> np.ndarray:
        lo, hi = self.support
        if lo == -np.inf and hi == np.inf:
            return values
        return np.where((x >= lo) & (x < hi), values, 0.0)


@dataclass(frozen=True)
class Trig1D(Primitive1D):
    """exp(-(x - m)^2 / v) sum_m c_m exp(i w_m x) on [support), the whole
    trig family: the catalog's constants, sine modes, complex exponentials,
    indicators and Gaussians are each one tuple of (c_m, w_m) ``terms`` on
    an interval, with the ``envelope`` (v, m) of a Gaussian."""

    terms: tuple[tuple[complex, float], ...]
    support: tuple[float, float] = (-np.inf, np.inf)
    envelope: tuple[float, float] = (np.inf, 0.0)

    def __call__(self, x):
        # each +-w pair folded as in _trig_cells, into (c+ + c-) cos(|w| x)
        # + i (c+ - c-) sin(|w| x); a zero coefficient builds no array
        x = np.asarray(x, dtype=float)
        lin, folded = _fold(self.terms)
        parts = [(lin, lambda: 1.0)]
        for a, (cp, cm) in folded.items():
            d = cp - cm
            parts += [(cp + cm, lambda a=a: np.cos(a * x)),
                      (complex(-d.imag, d.real), lambda a=a: np.sin(a * x))]
        out = np.zeros(x.shape, dtype=complex)
        for c, basis in parts:
            if c != 0.0:
                b = basis()
                if c.real:
                    out.real += c.real * b
                if c.imag:
                    out.imag += c.imag * b
        v, m = self.envelope
        if v < np.inf:
            out *= np.exp(-((x - m) ** 2) / v)
        return self._mask(x, out)

    def fourier_terms(self):
        return self.terms

    def discontinuities(self) -> tuple[float, ...]:
        return tuple(e for e in self.support if np.isfinite(e))


# the constant 1 on the whole line; pairs with f to give plain int f
ONE = Trig1D(((1.0 + 0.0j, 0.0),))


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
        return (0.0, self.alpha) if self.support[0] == 0.0 else None


@dataclass(frozen=True)
class PiecewiseConstant1D(Primitive1D):
    """values[i] on [breaks[i], breaks[i+1]), within [support)."""

    breaks: tuple[float, ...]
    values: tuple[complex, ...]
    support: tuple[float, float] = (-np.inf, np.inf)

    def __post_init__(self):
        if len(self.breaks) != len(self.values) + 1:
            raise ValueError("need len(breaks) == len(values) + 1")
        if not all(a < b for a, b in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        lo, hi = self.support
        object.__setattr__(self, "support", (max(lo, self.breaks[0]),
                                             min(hi, self.breaks[-1])))

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
class PairFactor(Primitive1D):
    """Pointwise product conj(bra) * ket, itself usable as an axis factor."""

    bra: Primitive1D
    ket: Primitive1D

    def __post_init__(self):
        object.__setattr__(self, "support", _common_support(self.bra, self.ket))
        object.__setattr__(self, "bounded", self.bra.bounded and self.ket.bounded)

    def __call__(self, x):
        return np.conj(self.bra(x)) * self.ket(x)

    @property
    def envelope(self) -> tuple[float, float]:
        _, a, m = _pair_family(self.bra, self.ket)
        return (1.0 / a if a else np.inf, m)

    def fourier_terms(self):
        return _pair_family(self.bra, self.ket)[0]

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


# ---------------------------------------------------------------------------
# factor pairs: what the closed forms and the numeric fallback share


def _common_support(bra: Primitive1D, ket: Primitive1D) -> tuple[float, float]:
    """[lo, hi) where both factors of a pair may be nonzero (empty when lo >= hi)."""
    return max(bra.support[0], ket.support[0]), min(bra.support[1], ket.support[1])


def _clipped(edges: np.ndarray, support: tuple[float, float]) -> np.ndarray | None:
    """``edges`` clipped into ``support``, or None when the support is empty.

    Edges already inside come back as the same array object, so a
    PhaseTable made for them still applies.
    """
    lo, hi = support
    if lo >= hi:
        return None
    if edges[0] < lo or edges[-1] > hi:
        edges = np.clip(edges, lo if np.isfinite(lo) else None,
                        hi if np.isfinite(hi) else None)
    return edges


def _pair_terms(tb, tk) -> list | None:
    """Fourier terms (c, w) of conj(bra) * ket, or None unless both sides
    have terms."""
    if tb is None or tk is None:
        return None
    return [(np.conj(cb) * ck, -wb + wk) for cb, wb in tb for ck, wk in tk]


def _pair_family(bra: Primitive1D, ket: Primitive1D):
    """(terms, a, m): conj(bra) * ket as exp(-a (x - m)^2) sum_t c_t exp(i w_t x).

    The two envelopes multiply into one, with a = a_b + a_k, m = (a_b m_b
    + a_k m_k) / a and a constant exp(-a_b a_k (m_b - m_k)^2 / a) that joins
    the terms; a = 0 when neither side has an envelope.  ``terms`` is None
    unless both sides have Fourier terms.
    """
    terms = _pair_terms(bra.fourier_terms(), ket.fourier_terms())
    (vb, mb), (vk, mk) = bra.envelope, ket.envelope
    ab, ak = 1.0 / vb, 1.0 / vk
    if not (ab and ak):
        return terms, ab + ak, (mk if ak else mb)
    a = ab + ak
    r = ab * ak * (mb - mk) ** 2 / a
    if r and terms is not None:
        decay = np.exp(-r)
        terms = [(c * decay, w) for c, w in terms]
    return terms, a, (ab * mb + ak * mk) / a


def _refine(edges: np.ndarray, points) -> tuple[np.ndarray, np.ndarray]:
    """(refined, pos): ``edges`` split at the ``points`` strictly inside
    them, and for each refined cell the caller's cell that holds it."""
    points = np.asarray(points, dtype=float)
    inner = points[(edges[0] < points) & (points < edges[-1])]
    refined = np.union1d(edges, inner) if inner.size else edges
    mids = 0.5 * (refined[:-1] + refined[1:])
    pos = np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, edges.size - 2)
    return refined, pos


def _fold_back(values: np.ndarray, pos: np.ndarray, cells: int) -> np.ndarray:
    """Refined-cell ``values`` summed onto the caller's ``cells`` cells."""
    out = np.zeros(cells, dtype=values.dtype)
    np.add.at(out, pos, values)
    return out


def _term_pairs(phi: SeparableFunction, psi: SeparableFunction):
    """(conj(c_b) c_k, bra factors, ket factors) of every term pair of two
    separable sums, bra terms outermost."""
    for cb, bf in phi.terms:
        for ck, kf in psi.terms:
            yield complex(np.conj(cb) * ck), bf, kf


# ---------------------------------------------------------------------------
# exact cell integrals


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


def _real_cells(terms, cells: int) -> np.ndarray:
    """np.diff of sum c * basis() over real (c, basis) terms; a basis array
    whose coefficient is exactly 0 is never built."""
    anti = None
    for c, basis in terms:
        if c != 0.0:
            term = c * basis()
            anti = term if anti is None else np.add(anti, term, out=anti)
    # anti[1:] - anti[:-1] is np.diff's own subtraction, without its wrapper
    return np.zeros(cells) if anti is None else anti[1:] - anti[:-1]


def _fold(terms) -> tuple[complex, dict[float, list[complex]]]:
    """(c_0, {|w|: [c+, c-]}) of sum_m c_m exp(i w_m x): the w = 0 and the
    +-|w| coefficients summed, each |w| in order of first appearance."""
    lin = 0j
    folded: dict[float, list[complex]] = {}
    for c, w in terms:
        if w == 0.0:
            lin += c
        else:
            folded.setdefault(abs(w), [0j, 0j])[w < 0.0] += c
    return lin, folded


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
    lin, folded = _fold(terms)
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


@cache
def _erfc_wofz():
    """scipy.special's erfc and wofz, imported on the first Gaussian cell:
    no other kernel needs scipy."""
    from scipy.special import erfc, wofz
    return erfc, wofz


def _gauss_cells(terms, a: float, m: float, edges: np.ndarray) -> np.ndarray:
    """Cells of exp(-a (x - m)^2) sum_t c_t exp(i w_t x), float64 when the
    coefficients are real.

    With t = x - m and s = sqrt(a), a term integrates to (sqrt(pi)/2s) c
    e^{iwm} e^{-w^2/4a} erf(s t - iw/2s).  The erf is never formed: on the
    side sigma = sign(t), e^{-w^2/4a} (1 - sigma erf) is
    S(t) = e^{-a t^2 + i w t} wofz(sigma (i s t + w/2s)), its argument in the
    upper half plane (erfc(s|t|) when w = 0; 0 at an infinite edge).  A cell
    is sigma_1 S(t_1) - sigma_2 S(t_2) + (sigma_2 - sigma_1) e^{-w^2/4a}: one
    side's difference, or across m, 2 e^{-w^2/4a} minus both sides, so tail
    cells do not cancel.  Each +-w pair is folded as in ``_trig_cells``.
    """
    erfc, wofz = _erfc_wofz()
    t = edges - m
    s = np.sqrt(a)
    sign = np.copysign(1.0, t)
    jump = sign[1:] - sign[:-1]  # 2 on the cell across m, else 0

    def cells(side: np.ndarray, across: np.ndarray) -> np.ndarray:
        v = sign * side
        return v[:-1] - v[1:] + across

    lin, folded = _fold(terms)
    parts = [(lin, cells(erfc(s * np.abs(t)), jump))] if lin != 0.0 else []
    for w, (cp, cm) in folded.items():
        finite = np.isfinite(t)
        tf = t[finite]
        side = np.zeros(t.size, dtype=complex)
        side[finite] = (np.exp(tf * (1j * w - a * tf))
                        * wofz(sign[finite] * (1j * s * tf + w / (2.0 * s))))
        b = np.exp(1j * w * m) * cells(side, jump * np.exp(-w * w / (4.0 * a)))
        d = cp - cm
        parts += [(cp + cm, b.real), (complex(-d.imag, d.real), b.imag)]
    pref = 0.5 * np.sqrt(np.pi / a)
    real = not any(c.imag for c, _ in parts)
    out = np.zeros(edges.size - 1, dtype=float if real else complex)
    for c, basis in parts:
        out += (pref * (c.real if real else c)) * basis
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
    lin, folded = _fold(terms)
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


def _split_on_pieces(pcw: PiecewiseConstant1D, pcw_is_bra: bool,
                     other: Primitive1D, edges: np.ndarray,
                     phases: PhaseTable | None):
    """Refine edges on the piecewise breaks, integrate per piece, re-aggregate."""
    refined, pos = _refine(edges, pcw.breaks)
    plain = exact_cell_integrals(ONE, other, refined, phases=phases)
    if plain is None:
        return None
    consts = pcw.pieces_at(0.5 * (refined[:-1] + refined[1:]))
    if not any(np.imag(pcw.values)):
        consts = consts.real
    if pcw_is_bra:
        contrib = np.conj(consts) * plain
    else:
        # integral of conj(other) = conj(integral of other)
        contrib = consts * np.conj(plain)
    return _fold_back(contrib, pos, edges.size - 1)


def exact_cell_integrals(f: Primitive1D, g: Primitive1D, edges: np.ndarray, *,
                         phases: PhaseTable | None = None) -> np.ndarray | None:
    """Closed-form integrals of conj(f)*g over consecutive cells, or None.

    ``edges`` is a sorted 1-d array; the result has one entry per cell
    [edges[i], edges[i+1]).  Cells outside the common support contribute 0.
    The result is float64 when the pair's coefficients are real (sine
    modes, constants, indicators, Gaussians and their products, real
    pieces) and complex128 otherwise.
    ``phases`` is an optional PhaseTable made for ``edges``, shared by
    calls on the same edges so each cos(|w|x) and sin(|w|x) is evaluated
    once.
    """
    edges = np.asarray(edges, dtype=float)
    support = _common_support(f, g)
    clipped = _clipped(edges, support)
    if clipped is None:
        return np.zeros(edges.size - 1)
    edges = clipped

    # a pair factor against the trivial bra (``ONE`` is only ever the bra)
    if isinstance(g, PairFactor) and f == ONE:
        return exact_cell_integrals(g.bra, g.ket, edges, phases=phases)

    if isinstance(f, PiecewiseConstant1D):
        return _split_on_pieces(f, True, g, edges, phases)
    if isinstance(g, PiecewiseConstant1D):
        return _split_on_pieces(g, False, f, edges, phases)

    terms, a, m = _pair_family(f, g)
    if terms is not None:
        return _gauss_cells(terms, a, m, edges) if a else _trig_cells(terms, edges, phases)

    fp = isinstance(f, PowerSingular1D)
    gp = isinstance(g, PowerSingular1D)
    if fp and gp:
        return _power_cells(f.coeff * g.coeff, f.alpha + g.alpha, [(1.0, 0.0)],
                            support[1], edges)
    if fp or gp:
        power, terms = (f, g.fourier_terms()) if fp else (g, f.fourier_terms())
        # the series has no room for the partner's envelope
        if terms is None or a:
            return None
        if gp:  # conjugate the bra side
            terms = [(np.conj(c), -w) for c, w in terms]
        return _power_cells(power.coeff, power.alpha, terms, support[1], edges)
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

    def norm_squared(self) -> float:
        """||f||^2 = Re <f|f>, integrated on every call."""
        return float(np.real(inner_product(self, self)))


def inner_product(f: SeparableFunction, g: SeparableFunction) -> complex:
    """<f|g> = integral of conj(f)*g over the common domain, read from the
    pair table on the domain box, one cell per axis."""
    if f.domain != g.domain:
        raise ValueError(f"domain mismatch: {f.domain} vs {g.domain}")
    from .quadrature import _region_integral
    box = [np.array(f.domain.axis_bounds(k)) for k in range(f.d)]
    return _region_integral(f, g, box).value


@dataclass(frozen=True)
class WaveFunction(SeparableFunction):
    """Normalised state; ||psi|| = 1 within NORM_TOL, checked on construction.

    A checked state keeps the ||psi||^2 it checked (from ``__post_init__``,
    or from the pair table ``superpose`` checks it on), and
    ``norm_squared()`` returns that value, bit for bit Re <psi|psi>, with
    no integral.  A state built with ``check_norm=False`` integrates on
    every call.  The kept value is no field of ``==``, ``hash`` or
    ``repr``; ``dataclasses.replace`` makes a state that checks, or
    integrates, its own norm.
    """

    check_norm: bool = True
    _norm_sq: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.check_norm:
            self._require_unit_norm(super().norm_squared())

    def _require_unit_norm(self, nsq: float) -> None:
        """Raise unless ``nsq`` = ||psi||^2 is 1 within NORM_TOL; keep it
        as the state's checked norm when it is."""
        if not abs(nsq - 1.0) <= NORM_TOL:
            raise ValueError(f"state {self.label!r} has ||psi||^2 = {nsq!r}, not 1")
        object.__setattr__(self, "_norm_sq", nsq)

    def norm_squared(self) -> float:
        return super().norm_squared() if self._norm_sq is None else self._norm_sq

    def restrict(self, cell: Bin, norm_const: float) -> "WaveFunction":
        """State multiplied by the cell indicator and rescaled by norm_const."""
        new_terms = tuple(
            (coeff * norm_const,
             tuple(f.restricted(e.lo, e.hi) for f, e in zip(factors, cell.edges)))
            for coeff, factors in self.terms)
        return WaveFunction(domain=self.domain, terms=new_terms,
                            label=f"{self.label}|restricted", check_norm=False)

    def as_euclidean(self) -> "WaveFunction":
        """Same state read as an element of L^2(R^d) (supports are compact)."""
        if self.domain.kind == "euclidean":
            return self
        return replace(self, domain=Domain.euclidean(self.d), check_norm=False)


def product_field(phi: SeparableFunction, psi: SeparableFunction) -> SeparableFunction:
    """The function conj(phi)*psi as a separable sum (not normalised)."""
    if phi.domain != psi.domain:
        raise ValueError("states live on different domains")
    terms = tuple((w, tuple(PairFactor(b, k) for b, k in zip(bf, kf)))
                  for w, bf, kf in _term_pairs(phi, psi))
    return SeparableFunction(domain=phi.domain, terms=terms,
                             label=f"conj({phi.label})*{psi.label}")


def superpose(terms: Iterable[tuple[complex, WaveFunction]]) -> WaveFunction:
    """Renormalised linear combination of states on a common domain.

    The raw sum and the normalised state have the same term pairs, so one
    pair table on the domain box gives both ||raw||^2 and the NORM_TOL
    check that ``WaveFunction`` would make: the same weighted sum, in the
    same order, of the same cells.  The state keeps the checked value as
    its norm.
    """
    from .quadrature import _region_cells, _region_total
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
    box = [np.array(domain.axis_bounds(k)) for k in range(domain.d)]
    w, cells, _ = _region_cells(raw, raw, box)
    nsq = float(np.real(_region_total(w, cells)))
    if nsq <= 0.0:
        raise ValueError("combination has zero norm")
    scale = 1.0 / np.sqrt(nsq)
    label = " + ".join(f"({c})*{wf.label}" for c, wf in terms)
    state = WaveFunction(domain, tuple((c * scale, f) for c, f in flat),
                         label=f"superpose[{label}]", check_norm=False)
    w_unit = np.array([w for w, _, _ in _term_pairs(state, state)])
    state._require_unit_norm(float(np.real(_region_total(w_unit, cells))))
    # made above from the raw sum's cells: the check, and the kept norm,
    # that check_norm=True records
    object.__setattr__(state, "check_norm", True)
    return state


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

    Weights must be finite, nonnegative real numbers that sum to at most 1
    (unless ``renormalize``); the states must be pairwise orthogonal within
    ORTHO_TOL.
    """
    terms = [(_real(f"weight[{i}]", p), wf) for i, (p, wf) in enumerate(terms)]
    if not terms:
        raise ValueError("need at least one spectral term")
    if any(p < 0.0 for p, _ in terms):
        raise ValueError("negative weight in density state")
    total = sum(p for p, _ in terms)
    if renormalize:
        if not math.isfinite(total):
            raise ValueError(f"weights sum to {total!r}, which cannot be renormalised")
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
_SEED = {"type": "integer", "minimum": 0}
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


def _state_1d(prim: Primitive1D, label: str) -> WaveFunction:
    return WaveFunction(Domain.unit_cube(1), ((1.0 + 0.0j, (prim,)),), label=label)


def _sine(k: int) -> Trig1D:
    """sqrt(2) sin(k pi x) on [0, 1)."""
    if k < 1:
        raise ValueError("sine mode index k must be >= 1")
    c, w = np.sqrt(2.0) / 2.0j, k * np.pi
    return Trig1D(((c, w), (-c, -w)), (0.0, 1.0))


@_catalog("uniform", d=_POS_INT)
def _uniform(d=1):
    d = _int("d", d)
    one = Trig1D(((1.0 + 0.0j, 0.0),), (0.0, 1.0))
    return WaveFunction(Domain.unit_cube(d), ((1.0 + 0.0j, (one,) * d),),
                        label=f"uniform(d={d})")


@_catalog("sine_mode", k=_POS_INT)
def _sine_mode(k):
    k = _int("k", k)
    return _state_1d(_sine(k), f"sine_mode({k})")


@_catalog("sine_product", ks={"type": "array", "minItems": 1, "items": _POS_INT})
def _sine_product(ks):
    ks = [_int("ks", k) for k in ks]
    return WaveFunction(Domain.unit_cube(len(ks)),
                        ((1.0 + 0.0j, tuple(_sine(k) for k in ks)),),
                        label=f"sine_product({ks})")


@_catalog("complex_exponential", k=_INT)
def _complex_exponential(k):
    k = _int("k", k)
    return _state_1d(Trig1D(((1.0 + 0.0j, 2.0 * np.pi * k),), (0.0, 1.0)),
                     f"complex_exponential({k})")


@_catalog("indicator", a=_NUM, b=_NUM)
def _indicator(a, b):
    a, b = _real("a", a), _real("b", b)
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("indicator needs 0 <= a < b <= 1")
    return _state_1d(Trig1D(((1.0 / np.sqrt(b - a) + 0.0j, 0.0),), (a, b)),
                     f"indicator({a},{b})")


@_catalog("power_singular", alpha=_NUM)
def _power_singular(alpha):
    alpha = _real("alpha", alpha)
    return _state_1d(PowerSingular1D(alpha), f"power_singular({alpha})")


@_catalog("gaussian", mu=_NUMS, sigma=_NUMS)
def _gaussian(mu, sigma):
    mu, sigma = np.atleast_1d(_reals("mu", mu)), np.atleast_1d(_reals("sigma", sigma))
    if mu.size != sigma.size:
        raise ValueError("mu and sigma need the same length")
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all() and (sigma > 0.0).all()):
        raise ValueError(f"gaussian needs finite mu and finite sigma > 0, got "
                         f"mu={mu.tolist()}, sigma={sigma.tolist()}")
    factors = tuple(Trig1D((((2.0 * np.pi * s ** 2) ** -0.25 + 0j, 0.0),),
                           envelope=(4.0 * s ** 2, m))
                    for m, s in zip(mu.tolist(), sigma.tolist()))
    return WaveFunction(Domain.euclidean(mu.size), ((1.0 + 0.0j, factors),),
                        label=f"gaussian(mu={mu.tolist()},sigma={sigma.tolist()})")


@_catalog("haar_like", seed=_SEED, pieces=_POS_INT)
def _haar_like(seed, pieces=8):
    seed, pieces = _seed("seed", seed), _int("pieces", pieces)
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
