"""Closed-form cells of a power law against the trig family.

c x^(-alpha) times a sine mode or complex exponential is integrated as
x^p S(x) with a truncated power series S; these tests check it against
40-digit mpmath values of the same integrals written with the confluent
hypergeometric function, against Gauss-Jacobi quadrature on both sides of
the series limit, and that the pairs it covers never reach quadrature.
"""

import mpmath
import numpy as np
import pytest

from spatialzeno import (
    Bin,
    GridScheme,
    Interval,
    bar_norm_squared,
    collapse,
    convergence_study,
    jittered_grid,
    make_state,
    prob_y1_pure,
    superpose,
    tensor_product,
)
from spatialzeno import quadrature, states
from spatialzeno.states import (
    PowerSingular1D,
    exact_cell_integrals,
)

ALPHAS = (0.05, 0.3, 0.49)
# the trig partner as (catalog, params, its exp(i w x) terms written out)
PARTNERS = {
    "sine1": ("sine_mode", {"k": 1},
              [(np.sqrt(2.0) / 2j, np.pi), (-np.sqrt(2.0) / 2j, -np.pi)]),
    "sine2": ("sine_mode", {"k": 2},
              [(np.sqrt(2.0) / 2j, 2 * np.pi), (-np.sqrt(2.0) / 2j, -2 * np.pi)]),
    "cexp1": ("complex_exponential", {"k": 1}, [(1.0, 2 * np.pi)]),
}


def _prim(catalog, **params):
    return make_state(catalog, **params).terms[0][1][0]


def _mp_cells(alpha, terms, edges, lo=0.0, hi=1.0, dps=40):
    """Integrals of sqrt(1-2 alpha) x^(-alpha) sum_t c_t exp(i w_t x) over
    each cell clipped to [lo, hi], from int_0^x t^(p-1) exp(i w t) dt =
    x^p / p 1F1(p; p+1; i w x) at ``dps`` digits."""
    with mpmath.workdps(dps):
        p = 1 - mpmath.mpf(alpha)
        coeff = mpmath.sqrt(1 - 2 * mpmath.mpf(alpha))

        def anti(x):
            x = mpmath.mpf(float(min(max(x, lo), hi)))
            if x == 0:
                return mpmath.mpc(0)
            return coeff * mpmath.fsum(
                mpmath.mpc(complex(c)) * x ** p / p
                * mpmath.hyp1f1(p, p + 1, 1j * mpmath.mpf(float(w)) * x)
                for c, w in terms)

        values = {x: anti(x) for x in set(edges.tolist())}
        return [values[b] - values[a] for a, b in zip(edges[:-1].tolist(),
                                                      edges[1:].tolist())]


def _rel_errors(got, ref):
    with mpmath.workdps(40):
        return np.array([float(abs(mpmath.mpc(complex(g)) - r) / abs(r))
                         if r != 0 else float(abs(g)) for g, r in zip(got, ref)])


def _sampled_cells(n, seed):
    """Edges of a jittered n-cell grid on [0, 1) and the indices of the
    cells to check: all of them for small n, else the first and last 24
    and 48 seeded others."""
    edges = jittered_grid(n, 1, C=2.0, seed=seed).breakpoints[0]
    if n <= 256:
        return edges, np.arange(n)
    rng = np.random.default_rng(seed)
    picks = np.concatenate([np.arange(24), np.arange(n - 24, n),
                            rng.choice(np.arange(24, n - 24), 48, replace=False)])
    return edges, np.unique(picks)


def _interior_zeros(name):
    """Zeros of the trig factor in (0, 1)."""
    k = {"sine1": 1, "sine2": 2}.get(name)
    return [] if k is None else [j / k for j in range(1, k)]


@pytest.mark.parametrize("n", [16, 2 ** 10, 2 ** 16])
@pytest.mark.parametrize("side", ["power_ket", "power_bra"])
@pytest.mark.parametrize("partner", sorted(PARTNERS))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_power_trig_cells_match_mpmath(alpha, partner, side, n):
    catalog, params, terms = PARTNERS[partner]
    power, trig = PowerSingular1D(alpha), _prim(catalog, **params)
    edges, picks = _sampled_cells(n, seed=n + int(100 * alpha))
    if side == "power_ket":
        got = exact_cell_integrals(trig, power, edges)
        terms = [(np.conj(c), -w) for c, w in terms]  # the bra is conjugated
    else:
        got = exact_cell_integrals(power, trig, edges)
    assert got.dtype == (np.complex128 if partner == "cexp1" else np.float64)
    cell_edges = np.unique(np.concatenate([edges[picks], edges[picks + 1]]))
    ref = dict(zip(cell_edges[:-1].tolist(), _mp_cells(alpha, terms, cell_edges)))
    a = edges[picks]
    err = _rel_errors(got[picks], [ref[x] for x in a.tolist()])
    # cells near an interior zero of the trig factor lose digits as 1/h
    far = np.all([np.abs(a - z) > 0.125 for z in _interior_zeros(partner)], axis=0)
    assert np.max(err[(a <= 0.5) & far], initial=0.0) <= 1e-12
    assert np.max(err) <= 1e-9


@pytest.mark.parametrize("bra,ket", [(0.25, None), (None, 0.25), (0.25, 0.25), (0.45, 0.45)])
def test_power_cells_do_not_cancel_on_fine_grids(bra, ket):
    # a power law against a constant or a power law: coeff (b^p - a^p) / p
    f, g = (PowerSingular1D(a) if a else _prim("uniform") for a in (bra, ket))
    edges, picks = _sampled_cells(2 ** 20, seed=5)
    got = exact_cell_integrals(f, g, edges)[picks]
    with mpmath.workdps(40):
        gamma = sum(mpmath.mpf(a) for a in (bra, ket) if a)
        coeff = mpmath.fprod(mpmath.sqrt(1 - 2 * mpmath.mpf(a)) for a in (bra, ket) if a)
        p = 1 - gamma
        ref = [coeff * (mpmath.mpf(float(edges[i + 1])) ** p
                        - mpmath.mpf(float(edges[i])) ** p) / p for i in picks]
    assert np.max(_rel_errors(got, ref)) <= 2e-15


def test_cells_touching_zero():
    edges = np.array([0.0, 0.0, 1e-100, 1e-12, 1e-6, 1e-3, 0.5, 1.0])
    for alpha in ALPHAS:
        got = exact_cell_integrals(_prim("sine_mode", k=1), PowerSingular1D(alpha), edges)
        terms = [(np.conj(c), -w) for c, w in PARTNERS["sine1"][2]]
        # the +-w terms of the reference cancel to about x^2 at x = 1e-100
        ref = _mp_cells(alpha, terms, edges, dps=260)
        assert got[0] == 0.0
        assert np.max(_rel_errors(got[1:], ref[1:])) <= 1e-13


@pytest.mark.parametrize("lo,hi", [(0.0, 0.25), (0.2, 0.6)])
def test_collapsed_power_state(lo, hi):
    collapsed = collapse(make_state("power_singular", alpha=0.3),
                         Bin((Interval(lo, hi),)))
    norm_const, (factor,) = collapsed.terms[0]
    assert isinstance(factor, PowerSingular1D) and factor.support == (lo, hi)
    edges = jittered_grid(64, 1, C=2.0, seed=9).breakpoints[0]
    for partner in ("sine1", "cexp1"):
        catalog, params, terms = PARTNERS[partner]
        got = norm_const * exact_cell_integrals(_prim(catalog, **params), factor, edges)
        terms = [(np.conj(c), -w) for c, w in terms]
        ref = [norm_const * v for v in _mp_cells(0.3, terms, edges, lo, hi)]
        outside = (edges[1:] <= lo) | (edges[:-1] >= hi)
        assert np.all(got[outside] == 0.0)
        assert np.max(_rel_errors(got[~outside], np.array(ref)[~outside])) <= 1e-12


def _near_limit_pair(factor):
    """sine(3) against the power law restricted to [0, hi), with
    3 pi hi = factor * _POWER_SERIES_WMAX."""
    hi = factor * states._POWER_SERIES_WMAX / (3.0 * np.pi)
    return _prim("sine_mode", k=3), PowerSingular1D(0.3).restricted(0.0, hi)


@pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
def test_series_and_quadrature_agree_across_the_limit(factor, monkeypatch):
    bra, ket = _near_limit_pair(factor)
    edges = jittered_grid(64, 1, C=2.0, seed=3).breakpoints[0]
    quad, _ = quadrature.numeric_cell_integrals(bra, ket, edges)
    series = exact_cell_integrals(bra, ket, edges)
    assert (series is None) == (factor > 1.0)
    if series is None:
        # the series the limit switches off, evaluated past it
        monkeypatch.setattr(states, "_POWER_SERIES_WMAX", 2.0 * states._POWER_SERIES_WMAX)
        series = exact_cell_integrals(bra, ket, edges)
    assert np.max(np.abs(series - quad)) <= 1e-10 * np.max(np.abs(quad))


def _no_quadrature(*args, **kwargs):
    raise AssertionError("a power x trig pair reached numeric quadrature")


def test_power_sine_pairs_never_reach_quadrature(monkeypatch):
    monkeypatch.setattr(quadrature, "numeric_cell_integrals", _no_quadrature)
    power, sine = make_state("power_singular", alpha=0.3), make_state("sine_mode", k=1)
    rec = convergence_study(power, sine, GridScheme("jittered", d=1, ratio_bound=2.0,
                                                    seed=4), [4, 64, 1024])
    assert all(row.error_bound > 0.0 for row in rec.rows)
    level = jittered_grid(50, 2, C=2.0, seed=1)
    psi = tensor_product([power, superpose([(0.6, sine),
                                            (0.8j, make_state("complex_exponential",
                                                              k=1))])])
    phi = tensor_product([sine, power])
    r = prob_y1_pure(psi, phi, level, keep_per_bin=True)
    assert r.p_y1 > 0.0
    assert bar_norm_squared(psi, phi, level) > 0.0
