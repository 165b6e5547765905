"""Catalog states, exact bin integrals, and density-state validation."""

import gc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from spatialzeno import (
    Bin,
    Interval,
    NonOrthogonalTermsError,
    inner_product,
    make_density,
    make_state,
    superpose,
    tensor_product,
)
from spatialzeno.quadrature import numeric_cell_integrals
from spatialzeno.states import (Domain, PiecewiseConstant1D, SeparableFunction,
                                exact_cell_integrals, product_field)

CELL = lambda a, b: Bin((Interval(a, b),))


def _bin_integral(phi, psi, cell, kernel):
    """<phi|P_cell psi> with every axis factor pair's cell integral taken
    from ``kernel``, term pairs and axes multiplied as bin_inner_product
    does."""
    total = 0j
    for cb, bf in phi.terms:
        for ck, kf in psi.terms:
            prod = complex(np.conj(cb) * ck)
            for b, k, e in zip(bf, kf, cell.edges):
                vals = kernel(b, k, np.array([e.lo, e.hi]))
                assert vals is not None, f"no closed form for ({b!r}, {k!r})"
                prod *= complex(vals[0])
            total += prod
    return total


def _exact(phi, psi, cell):
    """<phi|P_cell psi> through the closed forms only."""
    return _bin_integral(phi, psi, cell, exact_cell_integrals)


def _numeric(phi, psi, cell):
    """<phi|P_cell psi> through quadrature only."""
    return _bin_integral(phi, psi, cell, lambda f, g, e: numeric_cell_integrals(f, g, e)[0])


def test_uniform_is_constant_one():
    psi = make_state("uniform")
    x = np.linspace(0.0, 0.999, 7)
    assert np.allclose(psi.evaluate(x), 1.0)
    assert psi.norm_squared() == pytest.approx(1.0, abs=1e-12)


def _on(lo, hi, x, values):
    """values on [lo, hi), 0 elsewhere."""
    return np.where((x >= lo) & (x < hi), values, 0.0)


def _cexp(k):
    return lambda x: _on(0.0, 1.0, x, np.cos(2 * np.pi * k * x)
                         + 1j * np.sin(2 * np.pi * k * x))


def _sine(k):
    return lambda x: _on(0.0, 1.0, x, np.sqrt(2.0) * np.sin(k * np.pi * x) + 0j)


def _gauss(mu, sigma):
    amp = (2.0 * np.pi * sigma ** 2) ** -0.25
    return lambda x: amp * np.exp(-((x - mu) ** 2) / (4.0 * sigma ** 2)) + 0j


@pytest.mark.parametrize("catalog, params, definition", [
    ("uniform", {}, lambda x: _on(0.0, 1.0, x, np.ones_like(x) + 0j)),
    ("sine_mode", {"k": 1}, _sine(1)),
    ("sine_mode", {"k": 6}, _sine(6)),
    ("complex_exponential", {"k": 0}, _cexp(0)),
    ("complex_exponential", {"k": 3}, _cexp(3)),
    ("complex_exponential", {"k": -2}, _cexp(-2)),
    ("indicator", {"a": 0.1, "b": 0.6},
     lambda x: _on(0.1, 0.6, x, np.full_like(x, 1.0 / np.sqrt(0.6 - 0.1)) + 0j)),
    ("gaussian", {"mu": 0.3, "sigma": 0.7}, _gauss(0.3, 0.7)),
    ("gaussian", {"mu": -0.2, "sigma": 2.5}, _gauss(-0.2, 2.5)),
])
def test_catalog_factor_values_match_their_definitions(catalog, params, definition):
    """Each trig-family factor, bit for bit, against the formula of the
    catalog table written in plain numpy: at seeded points, at +-0.0, at
    and just below the support ends, and outside the support."""
    ends = [0.0, -0.0, 0.1, 0.6, 1.0, -1.0, 2.0]
    x = np.concatenate([np.random.default_rng(14).uniform(-0.5, 1.5, 64), ends,
                        np.nextafter(ends, -np.inf)])
    ((_, (prim,)),) = make_state(catalog, **params).terms
    got, want = prim(x), definition(x)
    assert got.dtype == want.dtype == complex
    assert got.tobytes() == want.tobytes()


def test_trig_factors_are_their_fourier_terms():
    from spatialzeno.states import ONE, Trig1D

    c = np.sqrt(2.0) / 2.0j
    cases = [
        ("uniform", {}, [(1.0 + 0j, 0.0)], (0.0, 1.0)),
        ("sine_mode", {"k": 3}, [(c, 3 * np.pi), (-c, -3 * np.pi)], (0.0, 1.0)),
        ("complex_exponential", {"k": -2}, [(1.0 + 0j, 2.0 * np.pi * -2)], (0.0, 1.0)),
        ("indicator", {"a": 0.1, "b": 0.6}, [(1.0 / np.sqrt(0.6 - 0.1) + 0j, 0.0)], (0.1, 0.6)),
    ]
    for catalog, params, terms, support in cases:
        ((_, (prim,)),) = make_state(catalog, **params).terms
        assert type(prim) is Trig1D and prim.support == support
        assert list(prim.fourier_terms()) == terms
        assert prim.discontinuities() == support
    assert ONE.fourier_terms() == ((1.0 + 0j, 0.0),) and ONE.discontinuities() == ()
    x = np.array([-1e300, -1.0, -0.0, 0.0, 0.5, 1.0, 7.0])
    assert ONE(x).tobytes() == np.ones(x.size, dtype=complex).tobytes()


@pytest.mark.parametrize("catalog,params", [
    ("uniform", {}),
    ("sine_mode", {"k": 1}),
    ("sine_mode", {"k": 5}),
    ("complex_exponential", {"k": 2}),
    ("indicator", {"a": 0.2, "b": 0.7}),
    ("power_singular", {"alpha": 0.25}),
    ("power_singular", {"alpha": 0.49}),
    ("gaussian", {"mu": 0.5, "sigma": 2.0}),
    ("haar_like", {"seed": 11}),
    ("sine_product", {"ks": [1, 2]}),
])
def test_catalog_states_are_normalized(catalog, params):
    psi = make_state(catalog, **params)
    assert psi.norm_squared() == pytest.approx(1.0, abs=1e-9)


def test_power_singular_normalization_constant():
    # integral of x^(-1/2) over [0,1] is 2, so c^2 * 2 = 1
    psi = make_state("power_singular", alpha=0.25)
    coeff = psi.terms[0][1][0].coeff
    assert coeff == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_power_singular_invalid_alpha():
    with pytest.raises(ValueError):
        make_state("power_singular", alpha=0.5)
    with pytest.raises(ValueError):
        make_state("power_singular", alpha=-0.1)


@pytest.mark.parametrize("mu, sigma", [
    (0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0), (0.0, -1.0),
    ([0.0, 0.5], [1.0, np.nan]),
])
def test_gaussian_rejects_non_finite_and_non_positive_parameters(mu, sigma):
    with pytest.raises(ValueError, match="finite mu and finite sigma > 0"):
        make_state("gaussian", mu=mu, sigma=sigma)


def test_nan_norm_fails_the_norm_check():
    from spatialzeno.states import Domain, WaveFunction

    ((_, factors),) = make_state("uniform").terms
    with pytest.raises(ValueError, match="nan"):
        WaveFunction(Domain.unit_cube(1), ((complex(np.nan), factors),))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_state("indicator", a=0.5, b=0.5)
    with pytest.raises(ValueError):
        make_state("sine_mode", k=0)
    with pytest.raises(ValueError):
        make_state("gaussian", mu=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        make_state("unknown_entry")


@pytest.mark.parametrize("catalog,params,missing", [
    ("sine_mode", {}, "k"),
    ("gaussian", {"mu": 0.0}, "sigma"),
    ("indicator", {"b": 0.5}, "a"),
    ("haar_like", {"pieces": 4}, "seed"),
    ("superpose", {}, "terms"),
])
def test_missing_parameter_is_named(catalog, params, missing):
    with pytest.raises(ValueError, match=missing):
        make_state(catalog, **params)


def test_unexpected_parameter_rejected():
    with pytest.raises(ValueError, match="unexpected parameters"):
        make_state("sine_mode", k=1, d=2)


@pytest.mark.parametrize("catalog,params", [
    ("sine_mode", {"k": 1.7}),
    ("complex_exponential", {"k": 0.5}),
    ("uniform", {"d": 2.5}),
    ("sine_product", {"ks": [1, 2.2]}),
    ("haar_like", {"seed": 1, "pieces": 2.9}),
    ("haar_like", {"seed": 1.5}),
    ("sine_mode", {"k": "2"}),
])
def test_non_integral_integer_parameters_rejected(catalog, params):
    with pytest.raises(ValueError, match="must be an integer"):
        make_state(catalog, **params)


def test_numpy_and_integral_float_integers_build_the_same_state():
    # the benchmark passes np.int64 modes; JSON's 2.0 is an integer
    for catalog, a, b in [
            ("sine_mode", {"k": 3}, {"k": np.int64(3)}),
            ("sine_mode", {"k": 3}, {"k": 3.0}),
            ("uniform", {"d": 2}, {"d": np.int32(2)}),
            ("sine_product", {"ks": [1, 2]}, {"ks": np.array([1, 2])}),
            ("haar_like", {"seed": 4, "pieces": 16},
             {"seed": np.int64(4), "pieces": np.uint8(16)})]:
        x, y = make_state(catalog, **a), make_state(catalog, **b)
        assert x == y and x.label == y.label


def test_exact_bin_integral_uniform():
    u = make_state("uniform")
    assert _exact(u, u, CELL(0.0, 0.25)) == pytest.approx(0.25)


def test_exact_bin_integral_sine_quarter():
    s = make_state("sine_mode", k=1)
    val = _exact(s, s, CELL(0.0, 0.25))
    assert val == pytest.approx(0.25 - 1.0 / (2.0 * np.pi), abs=1e-14)
    assert val == pytest.approx(0.0908450569, abs=1e-9)


def test_exact_bin_integral_orthogonal_modes():
    s1 = make_state("sine_mode", k=1)
    s2 = make_state("sine_mode", k=2)
    assert _exact(s1, s2, CELL(0.0, 1.0)) == pytest.approx(0.0, abs=1e-15)


def test_exact_matches_brute_force_quadrature():
    rng = np.random.default_rng(7)
    pairs = [
        (make_state("uniform"), make_state("sine_mode", k=2)),
        (make_state("sine_mode", k=1), make_state("sine_mode", k=3)),
        (make_state("complex_exponential", k=1), make_state("sine_mode", k=1)),
        (make_state("complex_exponential", k=2), make_state("complex_exponential", k=-1)),
        (make_state("power_singular", alpha=0.3), make_state("uniform")),
        (make_state("indicator", a=0.1, b=0.6), make_state("sine_mode", k=2)),
        (make_state("haar_like", seed=2), make_state("uniform")),
    ]
    for psi, phi in pairs:
        jumps = sorted({p for wf in (psi, phi) for _, factors in wf.terms
                        for p in factors[0].discontinuities()})
        for _ in range(15):
            a, b = np.sort(rng.random(2))
            if b - a < 1e-3:
                continue
            pts = [p for p in jumps if a < p < b] or None
            got = _exact(phi, psi, CELL(a, b))
            ref_re = quad(lambda x: np.real(np.conj(phi.evaluate(x)) * psi.evaluate(x)),
                          a, b, limit=200, points=pts)[0]
            ref_im = quad(lambda x: np.imag(np.conj(phi.evaluate(x)) * psi.evaluate(x)),
                          a, b, limit=200, points=pts)[0]
            assert got.real == pytest.approx(ref_re, abs=2e-9)
            assert got.imag == pytest.approx(ref_im, abs=2e-9)


def test_exact_vs_numeric_agreement_on_supported_pairs():
    # same value through the closed form and through quadrature, 100 bins
    rng = np.random.default_rng(42)
    pairs = [
        (make_state("uniform"), make_state("uniform")),
        (make_state("sine_mode", k=1), make_state("sine_mode", k=2)),
        (make_state("complex_exponential", k=1), make_state("uniform")),
        (make_state("power_singular", alpha=0.25), make_state("uniform")),
        (make_state("haar_like", seed=5), make_state("sine_mode", k=1)),
    ]
    for psi, phi in pairs:
        done = 0
        while done < 20:
            a, b = np.sort(rng.random(2))
            if b - a < 1e-4:
                continue
            cell = CELL(a, b)
            exact = _exact(phi, psi, cell)
            numer = _numeric(phi, psi, cell)
            assert abs(exact - numer) < 1e-10
            done += 1


def test_gaussian_pair_integral_matches_erf_oracle():
    from scipy.special import erf

    g1 = make_state("gaussian", mu=0.0, sigma=1.0)
    g2 = make_state("gaussian", mu=0.0, sigma=1.0)
    # conj(g)*g is the standard normal density
    val = _exact(g2, g1, CELL(-1.3, 0.4))
    ref = 0.5 * (erf(0.4 / np.sqrt(2)) - erf(-1.3 / np.sqrt(2)))
    assert val == pytest.approx(ref, abs=1e-14)

    g3 = make_state("gaussian", mu=1.0, sigma=0.5)
    got = _exact(g1, g3, CELL(-2.0, 2.0))
    ref = quad(lambda x: np.real(np.conj(g1.evaluate(x)) * g3.evaluate(x)), -2, 2)[0]
    assert got.real == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("x", [5.0, 7.0, 9.0, 20.0, -5.0, -7.0, -9.0, -20.0])
def test_gaussian_tail_cells_against_mpmath(x):
    """sigma = 1 self-pair cells of width 1/8 far in the tails: conj(g) g is
    the standard normal density, so a cell is a difference of erfc values
    taken on its own side of the mean."""
    import mpmath

    ((_, (g,)),) = make_state("gaussian", mu=0.0, sigma=1.0).terms
    lo, hi = (x, x + 0.125) if x > 0 else (x - 0.125, x)
    got = exact_cell_integrals(g, g, np.array([lo, hi]))[0]
    with mpmath.workdps(40):
        tail = lambda t: mpmath.erfc(abs(mpmath.mpf(t)) / mpmath.sqrt(2)) / 2
        want = abs(tail(lo) - tail(hi))
    assert abs(got - float(want)) <= 1e-13 * float(want)


def test_gaussian_fourier_transform_over_the_line():
    """Infinite edges contribute 0 on their side, without a warning: the
    cells of g(x) exp(i w x) over a partition of R sum to the Fourier
    transform of g."""
    from spatialzeno.states import Trig1D

    mu, sigma, w = 0.3, 0.8, 2.5
    ((_, (g,)),) = make_state("gaussian", mu=mu, sigma=sigma).terms
    a, amp = 1.0 / (4.0 * sigma ** 2), (2.0 * np.pi * sigma ** 2) ** -0.25
    want = amp * np.sqrt(np.pi / a) * np.exp(1j * w * mu - w * w / (4.0 * a))
    for edges in ([-np.inf, np.inf], [-np.inf, mu, np.inf], [-np.inf, -1.0, 2.0, np.inf]):
        cells = exact_cell_integrals(g, Trig1D(((1.0 + 0j, w),)), np.array(edges))
        assert abs(cells.sum() - want) <= 1e-14 * abs(want)


def test_gaussian_against_trig_cells_against_mpmath():
    """Gaussian x sine(k) and x exp(2 pi i k x), k <= 16, on 1024 cells of
    [0, 1]: closed-form cells against mpmath relative to h max|integrand|,
    on every 32nd cell and the cells around the Gaussian's mean.

    The bound is 2e-12, not 1e-12: scipy's wofz switches algorithm at
    Im z = 0.1 for 6 < Re z < 8, and its relative error jumps from 2e-16
    to 9e-15 there.  The cell whose edges straddle the switch (sine(2) and
    exp(2 pi i x) at x = 0.1 and x = 0.5) keeps that jump, amplified by the
    narrow-cell cancellation to 1.1e-12; every other cell is within 3e-13.
    """
    import mpmath

    mu, sigma = 0.3, 1.0
    ((_, (g,)),) = make_state("gaussian", mu=mu, sigma=sigma).terms
    edges = np.linspace(0.0, 1.0, 1025)
    idx = np.unique(np.r_[np.arange(0, 1024, 32), 305:310])
    a, amp = 1.0 / (4.0 * sigma ** 2), (2.0 * np.pi * sigma ** 2) ** -0.25
    refs = {}

    def ref(w):
        """Cells of exp(-a (x - mu)^2 + i w x) = sqrt(pi) / 2s
        e^{iw mu - w^2/4a} erf(s (x - mu) - iw / 2s) differences, w > 0."""
        if w not in refs:
            with mpmath.workdps(30):
                s, m, mw = mpmath.sqrt(mpmath.mpf(a)), mpmath.mpf(mu), mpmath.mpf(w)
                anti = lambda x: mpmath.erf(s * (mpmath.mpf(x) - m) - 1j * mw / (2 * s))
                scale = (mpmath.sqrt(mpmath.pi) / (2 * s) * mpmath.expj(mw * m)
                         * mpmath.exp(-mw ** 2 / (4 * a)))
                refs[w] = np.array([complex(scale * (anti(edges[i + 1]) - anti(edges[i])))
                                    for i in idx])
        return refs[w]

    for catalog in ("sine_mode", "complex_exponential"):
        for k in range(1, 17):
            ((_, (trig,)),) = make_state(catalog, k=k).as_euclidean().terms
            got = exact_cell_integrals(g, trig, edges)
            want = sum(amp * c * (ref(w) if w > 0 else np.conj(ref(-w))) for c, w in trig.terms)
            size = amp * sum(abs(c) for c, _ in trig.terms) / 1024  # h max|integrand|
            assert np.max(np.abs(got[idx] - want)) <= 2e-12 * size, (catalog, k)


def test_superposition_norm_two_ways():
    s1 = make_state("sine_mode", k=1)
    s2 = make_state("sine_mode", k=2)
    psi = superpose([(0.8, s1), (0.6j, s2)])
    # coefficient expansion: modes are orthonormal
    coeffs = np.array([t[0] for t in psi.terms])
    by_coeffs = float(np.sum(np.abs(coeffs) ** 2))
    by_quadrature = psi.norm_squared()
    assert by_coeffs == pytest.approx(1.0, abs=1e-9)
    assert by_quadrature == pytest.approx(by_coeffs, abs=1e-9)


def test_superpose_nested_and_phase():
    base = make_state("sine_mode", k=1)
    inner = superpose([(1.0, base), (0.5, make_state("uniform"))])
    outer = superpose([(1.0j, inner)])
    assert outer.norm_squared() == pytest.approx(1.0, abs=1e-9)


def test_tensor_product_dimension_and_norm():
    psi = tensor_product([make_state("sine_mode", k=1), make_state("uniform")])
    assert psi.d == 2
    assert psi.norm_squared() == pytest.approx(1.0, abs=1e-9)
    val = psi.evaluate(np.array([[0.25, 0.7]]))
    assert val[0] == pytest.approx(np.sqrt(2) * np.sin(np.pi * 0.25), abs=1e-12)


def test_density_pure_term():
    rho = make_density([(1.0, make_state("sine_mode", k=1))])
    assert rho.declared_trace == pytest.approx(1.0)
    assert rho.tail_mass == 0.0


def test_density_mixed_orthogonal():
    rho = make_density([(0.5, make_state("sine_mode", k=1)),
                        (0.5, make_state("sine_mode", k=2))])
    assert rho.declared_trace == pytest.approx(1.0)


def test_density_trace_excess_rejected_unless_renormalized():
    terms = [(0.6, make_state("sine_mode", k=1)), (0.5, make_state("sine_mode", k=2))]
    with pytest.raises(ValueError):
        make_density(terms, renormalize=False)
    rho = make_density(terms, renormalize=True)
    assert rho.declared_trace == pytest.approx(1.0, abs=1e-12)
    assert rho.terms[0][0] == pytest.approx(0.6 / 1.1)


def test_density_negative_weight():
    with pytest.raises(ValueError):
        make_density([(-0.1, make_state("uniform"))])


def test_density_non_orthogonal_terms():
    with pytest.raises(NonOrthogonalTermsError):
        make_density([(0.5, make_state("uniform")),
                      (0.5, make_state("sine_mode", k=1))])


def test_density_truncated_tail():
    rho = make_density([(0.7, make_state("sine_mode", k=1)),
                        (0.2, make_state("sine_mode", k=2))])
    assert rho.tail_mass == pytest.approx(0.1, abs=1e-12)


def test_inner_product_hermitian():
    a = make_state("sine_mode", k=1)
    b = superpose([(1.0, make_state("sine_mode", k=2)), (0.3j, a)])
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-12)


def test_euclidean_reading_of_compact_state():
    psi = make_state("sine_mode", k=1).as_euclidean()
    assert psi.domain.kind == "euclidean"
    assert psi.norm_squared() == pytest.approx(1.0, abs=1e-9)


def test_a_restricted_state_does_not_keep_its_parent_alive():
    psi = superpose([(1.0, make_state("sine_mode", k=1)), (1.0, make_state("sine_mode", k=2))])
    parent = weakref.ref(psi)
    restricted = psi.restrict(CELL(0.0, 0.5), 2.0)
    del psi
    gc.collect()
    assert parent() is None and restricted.d == 1


@pytest.mark.parametrize("call, message", [
    (lambda: superpose([]), "need at least one term"),
    (lambda: tensor_product([]), "need at least one factor state"),
    (lambda: make_density([]), "need at least one spectral term"),
    (lambda: make_state("gaussian", mu=[0, 0], sigma=[1]), "mu and sigma need the same length"),
    (lambda: make_state("haar_like", seed=0, pieces=0), "pieces must be >= 1"),
])
def test_state_validation_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and str(info.value) == message


_SINE1 = make_state("sine_mode", k=1)
_SINE2 = make_state("sine_mode", k=2)


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("weight, shown", [(np.nan, "nan"), (np.inf, "inf"),
                                           (-np.inf, "-inf"), ("0.5", "'0.5'")])
def test_a_density_weight_that_is_not_a_finite_real_raises(weight, shown, renormalize):
    with pytest.raises(ValueError) as info:
        make_density([(0.5, _SINE1), (weight, _SINE2)], renormalize=renormalize)
    assert info.type is ValueError
    assert str(info.value) == f"weight[1] must be a finite real number, got {shown}"


def test_renormalizing_weights_whose_sum_overflows_raises():
    # 1e308 + 1e308 is inf, and p / inf would give the weights (0.0, 0.0)
    with pytest.raises(ValueError) as info:
        make_density([(1e308, _SINE1), (1e308, _SINE2)], renormalize=True)
    assert info.type is ValueError
    assert str(info.value) == "weights sum to inf, which cannot be renormalised"
    rho = make_density([(1e307, _SINE1), (3e307, _SINE2)], renormalize=True)
    assert [p for p, _ in rho.terms] == [0.25, 0.75] and rho.declared_trace == 1.0


@pytest.mark.parametrize("d, shown", [(1.5, "1.5"), ("2", "'2'"), (None, "None")])
def test_a_domain_dimension_must_be_an_integer(d, shown):
    with pytest.raises(ValueError) as info:
        Domain("unit_cube", d)
    assert info.type is ValueError and str(info.value) == f"d must be an integer, got {shown}"


def test_an_integral_domain_dimension_is_read_as_an_int():
    for d in (2.0, np.int64(2), 2):
        domain = Domain("unit_cube", d)
        assert type(domain.d) is int and domain == Domain.unit_cube(2)


@pytest.mark.parametrize("catalog, params, message", [
    ("indicator", {"a": "0.2", "b": 0.7}, "a must be a finite real number, got '0.2'"),
    ("indicator", {"a": 0.2, "b": np.nan}, "b must be a finite real number, got nan"),
    ("power_singular", {"alpha": "0.3"}, "alpha must be a finite real number, got '0.3'"),
    ("gaussian", {"mu": "0.5", "sigma": 1.0}, "mu must be real numbers, got '0.5'"),
    ("gaussian", {"mu": [0.0, 0.5], "sigma": [1.0, None]},
     "sigma must be real numbers, got [1.0, None]"),
])
def test_a_real_catalog_parameter_must_be_a_number(catalog, params, message):
    with pytest.raises(ValueError) as info:
        make_state(catalog, **params)
    assert info.type is ValueError and str(info.value) == message


def test_real_catalog_parameters_are_read_as_floats():
    assert make_state("indicator", a=0, b=np.float32(0.5)).label == "indicator(0.0,0.5)"
    assert make_state("power_singular", alpha=np.float64(0.25)).label == "power_singular(0.25)"
    density = make_density([(1, _SINE1)])
    assert type(density.terms[0][0]) is float and density.declared_trace == 1.0


@pytest.mark.parametrize("call, message", [
    (lambda: Domain("torus", 1), "unknown domain kind 'torus'"),
    (lambda: Domain("unit_cube", 0), "dimension must be >= 1"),
    (lambda: PiecewiseConstant1D((0.0, 1.0), (1.0, 2.0)), "need len(breaks) == len(values) + 1"),
    (lambda: PiecewiseConstant1D((0.0, 0.0), (1.0,)), "breakpoints must be strictly increasing"),
    (lambda: SeparableFunction(Domain.unit_cube(1), ()), "need at least one term"),
    (lambda: SeparableFunction(Domain.unit_cube(2), _SINE1.terms),
     "every term needs one factor per axis"),
    (lambda: make_state("uniform", d=2).evaluate(np.zeros((3, 3))),
     "points have 3 coordinates, need 2"),
    (lambda: inner_product(_SINE1, _SINE1.as_euclidean()),
     "domain mismatch: Domain(kind='unit_cube', d=1) vs Domain(kind='euclidean', d=1)"),
    (lambda: product_field(_SINE1, _SINE1.as_euclidean()), "states live on different domains"),
    (lambda: superpose([(1.0, _SINE1), (1.0, _SINE2.as_euclidean())]),
     "all states must share one domain"),
    (lambda: make_density([(0.5, _SINE1), (0.5, _SINE2.as_euclidean())]),
     "all spectral terms must share one domain"),
    (lambda: superpose([(1, _SINE1), (-1, _SINE1)]), "combination has zero norm"),
    (lambda: tensor_product([_SINE1, _SINE2.as_euclidean()]),
     "all factor states must share the domain kind"),
    (lambda: make_density([(0.0, _SINE1)], renormalize=True),
     "cannot renormalise zero total weight"),
])
def test_state_errors_no_other_test_raises(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and str(info.value) == message
