"""Bin integrals, masses, L2 distances, and the resolution of identity."""

import numpy as np
import pytest

from spatialzeno import (
    Bin,
    Domain,
    Interval,
    QuadratureConfig,
    ToleranceNotMetError,
    bin_inner_product,
    bin_mass,
    jittered_grid,
    l2_distance,
    l2_norm,
    make_state,
    discretize,
    inner_product,
    uniform_grid,
)
from spatialzeno.quadrature import numeric_cell_integrals
from spatialzeno.states import Primitive1D, exact_cell_integrals

CELL = lambda a, b: Bin((Interval(a, b),))


def _factor(state):
    """The one axis factor of a one-term 1-d state (its coefficient is 1)."""
    ((coeff, (factor,)),) = state.terms
    assert coeff == 1.0
    return factor


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(points_per_axis_per_bin=1)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)


def test_config_integers_are_read_as_ints():
    cfg = QuadratureConfig(points_per_axis_per_bin=8.0, subdivision_limit=12.0)
    assert cfg == QuadratureConfig()
    assert type(cfg.points_per_axis_per_bin) is int and type(cfg.subdivision_limit) is int
    for name in ("points_per_axis_per_bin", "subdivision_limit"):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got 8.5$"):
            QuadratureConfig(**{name: 8.5})

def test_bin_inner_product_uniform_half():
    u = make_state("uniform")
    val, err = bin_inner_product(u, u, CELL(0.5, 1.0))
    assert val == pytest.approx(0.5, abs=1e-15)
    assert err == 0.0


def test_bin_inner_product_uniform_sine():
    u = make_state("uniform")
    s = make_state("sine_mode", k=1)
    val, _ = bin_inner_product(u, s, CELL(0.0, 1.0))
    assert val == pytest.approx(2.0 * np.sqrt(2.0) / np.pi, abs=1e-14)
    assert val == pytest.approx(0.9003163162, abs=1e-9)


def test_bin_inner_product_conjugate_cancellation():
    c = make_state("complex_exponential", k=1)
    val, _ = bin_inner_product(c, c, CELL(0.0, 0.5))
    assert val == pytest.approx(0.5, abs=1e-14)


def _bits(z) -> bytes:
    return np.complex128(z).tobytes()


# every unit-cube catalog entry; a Gaussian lives on R^d, which no bin covers
@pytest.mark.parametrize("catalog, params", [
    ("uniform", {"d": 2}),
    ("sine_mode", {"k": 3}),
    ("sine_product", {"ks": [1, 2]}),
    ("complex_exponential", {"k": -2}),
    ("indicator", {"a": 0.25, "b": 0.5}),
    ("power_singular", {"alpha": 0.3}),
    ("haar_like", {"seed": 5, "pieces": 4}),
    ("superpose", {"terms": [(0.8, make_state("sine_mode", k=1)),
                             (0.6j, make_state("power_singular", alpha=0.2))]}),
])
def test_unit_cube_bin_is_the_inner_product(catalog, params):
    psi = make_state(catalog, **params)
    phi = make_state("uniform", d=psi.d)
    cube = Bin((Interval(0.0, 1.0),) * psi.d)
    for bra in (phi, psi):
        assert _bits(bin_inner_product(bra, psi, cube).value) == _bits(inner_product(bra, psi))


def test_bin_mass_examples():
    u = make_state("uniform")
    assert bin_mass(u, CELL(0.0, 1.0 / 3.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    s = make_state("sine_mode", k=1)
    assert bin_mass(s, CELL(0.0, 0.5)) == pytest.approx(0.5, abs=1e-14)
    p = make_state("power_singular", alpha=0.25)
    assert bin_mass(p, CELL(0.0, 0.25)) == pytest.approx(0.5, abs=1e-13)


def test_bin_mass_numeric_singular_path():
    # same singular mass through Gauss-Jacobi instead of the antiderivative
    p = _factor(make_state("power_singular", alpha=0.25))
    numeric = numeric_cell_integrals(p, p, np.array([0.0, 0.25]))[0][0]
    assert numeric.real == pytest.approx(0.5, abs=1e-11)
    interior = numeric_cell_integrals(p, p, np.array([0.25, 0.5]))[0][0]
    exact = exact_cell_integrals(p, p, np.array([0.25, 0.5]))[0]
    assert interior.real == pytest.approx(exact.real, abs=1e-12)


def test_l2_distance_identical_is_zero():
    u = make_state("uniform")
    assert l2_distance(u, u, uniform_grid(64)) == pytest.approx(0.0, abs=1e-12)


def test_l2_regions_are_grid_levels_only():
    u = make_state("uniform")
    with pytest.raises(TypeError):
        l2_distance(u, u, Domain.unit_cube(1))


def test_l2_distance_linear_vs_bar_chart():
    f = lambda x: x
    level = uniform_grid(2)
    disc = discretize(f, level)
    assert l2_distance(f, disc, level) == pytest.approx(1.0 / np.sqrt(48.0), abs=1e-12)


def test_l2_norm_of_unit_state():
    s = make_state("sine_mode", k=1)
    assert l2_norm(s, uniform_grid(64)) == pytest.approx(1.0, abs=1e-12)


def _callable(f):
    return lambda *xs: f.evaluate(np.stack(xs, -1))


@pytest.mark.parametrize("bra, ket, d", [
    ("uniform", "uniform", 1),
    ("sine_mode", "sine_mode", 1),
    ("sine_product", "uniform", 2),
])
def test_l2_separable_operands_equal_callable_path(bra, ket, d):
    # separable operands, product fields included, take the callable path's bits
    from spatialzeno import product_field

    params = {"uniform": {"d": d} if d > 1 else {},
              "sine_mode": {"k": 1}, "sine_product": {"ks": [1, 2]}}
    f = product_field(make_state(bra, **params[bra]), make_state(ket, **params[ket]))
    cube = uniform_grid(64, d)
    assert l2_norm(f, cube) == l2_norm(_callable(f), cube)
    g = make_state("sine_product", ks=[2] * d) if d > 1 else make_state("sine_mode", k=2)
    level = jittered_grid(8, d=d, C=2.0, seed=1)
    assert l2_distance(f, g, level) == l2_distance(_callable(f), _callable(g), level)
    # a separable operand beside a plain callable one
    assert l2_distance(f, g, level) == l2_distance(f, _callable(g), level)


def test_resolution_of_identity():
    states = [
        make_state("uniform"),
        make_state("sine_mode", k=3),
        make_state("complex_exponential", k=2),
        make_state("indicator", a=0.2, b=0.9),
        make_state("power_singular", alpha=0.25),
        make_state("haar_like", seed=8),
    ]
    levels = [uniform_grid(1), uniform_grid(7), uniform_grid(64),
              jittered_grid(5, 1, C=2.0, seed=1),
              jittered_grid(33, 1, C=1.5, seed=2)]
    for psi in states:
        for level in levels:
            total = sum(bin_mass(psi, b) for b in level.bins())
            assert total == pytest.approx(1.0, abs=1e-8), (psi.label, level.n)


def test_error_estimate_shrinks_with_order():
    # quadrature of a gaussian against a sine read as an R state
    g = _factor(make_state("gaussian", mu=0.3, sigma=0.4))
    s = _factor(make_state("sine_mode", k=2))
    cell = np.array([0.1, 0.9])
    err_lo, err_hi, err_hi2 = (
        numeric_cell_integrals(g, s, cell, QuadratureConfig(points_per_axis_per_bin=p))[1][0]
        for p in (4, 8, 16))
    assert err_hi <= err_lo
    assert err_hi2 <= err_hi


def test_numeric_matches_exact_for_gaussian_pair():
    g1 = _factor(make_state("gaussian", mu=0.0, sigma=1.0))
    g2 = _factor(make_state("gaussian", mu=0.5, sigma=0.7))
    cell = np.array([-1.0, 1.5])
    exact = exact_cell_integrals(g1, g2, cell)[0]
    numeric = numeric_cell_integrals(g1, g2, cell)[0][0]
    assert abs(exact - numeric) < 1e-12
    # an infinite edge is fine once the pair's support clips it
    half, cell = g1.restricted(0.0, np.inf), np.array([-np.inf, 0.5])
    exact = exact_cell_integrals(half, g2, cell)[0]
    assert abs(exact - numeric_cell_integrals(half, g2, cell)[0][0]) < 1e-12


def test_tolerance_not_met_raises():
    # an effectively non-integrable spike defeats the subdivision budget
    class Spike:
        support = (0.0, 1.0)
        bounded = False

        def __call__(self, x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0) & (x < 1), np.abs(x - 0.37) ** (-0.97), 0.0) + 0.0j

        def fourier_terms(self):
            return None

        def singularity(self):
            return None

        def discontinuities(self):
            return ()

    cfg = QuadratureConfig(subdivision_limit=3, abs_tol=1e-12, rel_tol=1e-12)
    with pytest.raises(ToleranceNotMetError):
        numeric_cell_integrals(Spike(), Spike(), np.array([0.0, 1.0]), cfg)


def test_singular_factor_declares_only_its_singularity():
    # Gauss-Jacobi weights the pair's own values, so a factor with an
    # endpoint singularity needs no value with the power stripped
    import mpmath
    from spatialzeno.states import Primitive1D

    class PowerCos(Primitive1D):
        support = (0.0, 1.0)
        bounded = False

        def __call__(self, x):
            x = np.asarray(x, dtype=float)
            safe = np.where(x > 0.0, x, 1.0)
            return self._mask(x, safe ** -0.3 * np.cos(x) + 0.0j)

        def singularity(self):
            return (0.0, 0.3)

    one = _factor(make_state("uniform"))
    got = numeric_cell_integrals(one, PowerCos(), np.array([0.0, 0.25]))[0][0]
    want = complex(mpmath.quad(lambda x: x ** -0.3 * mpmath.cos(x), [0, 0.25]))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_singular_point_inside_the_support_is_rejected():
    # the singular point must be the lower end of the support
    from spatialzeno.states import ONE, Primitive1D

    class Inner(Primitive1D):
        support = (0.0, 0.5)
        bounded = False

        def __call__(self, x):
            x = np.asarray(x, dtype=float)
            return self._mask(x, np.abs(x - 0.375) ** -0.3 + 0.0j)

        def singularity(self):
            return (0.375, 0.3)

    with pytest.raises(ValueError, match="lower end"):
        numeric_cell_integrals(ONE, Inner(), np.linspace(0.0, 0.5, 5))


def test_exact_cell_integrals_none_when_unsupported():
    # the power series has no room for the Gaussian's envelope
    g = _factor(make_state("gaussian", mu=0.0, sigma=1.0))
    p = _factor(make_state("power_singular", alpha=0.3))
    for f, h in ((g, p), (p, g)):
        assert exact_cell_integrals(f, h, np.array([0.0, 1.0])) is None


@pytest.mark.parametrize("name, value, shown", [
    ("abs_tol", np.nan, "nan"), ("rel_tol", np.inf, "inf"), ("abs_tol", "1e-10", "'1e-10'"),
])
def test_config_tolerances_are_finite_reals(name, value, shown):
    with pytest.raises(ValueError) as info:
        QuadratureConfig(**{name: value})
    assert info.type is ValueError
    assert str(info.value) == f"{name} must be a finite real number, got {shown}"


def test_config_tolerances_are_read_as_floats():
    cfg = QuadratureConfig(abs_tol=1, rel_tol=np.float32(0.5))
    assert (cfg.abs_tol, cfg.rel_tol) == (1.0, 0.5)
    assert (type(cfg.abs_tol), type(cfg.rel_tol)) == (float, float)


class _Bump(Primitive1D):
    """exp(-x^2) on the line: no Fourier terms, so no closed form."""

    def __call__(self, x):
        return np.exp(-np.asarray(x, dtype=float) ** 2) + 0j


_SINE = make_state("sine_mode", k=1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: QuadratureConfig(subdivision_limit=-1), ValueError,
     "subdivision_limit must be >= 0"),
    (lambda: bin_inner_product(_SINE, make_state("gaussian", mu=0.0, sigma=1.0),
                               CELL(0.0, 0.5)), ValueError, "states live on different domains"),
    (lambda: bin_inner_product(_SINE, _SINE, Bin((Interval(0.0, 0.5),) * 2)), ValueError,
     "bin dimension does not match the states"),
    (lambda: l2_distance(object(), 0, uniform_grid(4)), TypeError,
     "cannot evaluate object of type <class 'object'>"),
    (lambda: numeric_cell_integrals(_Bump(), _Bump(), np.array([-np.inf, 0.0, np.inf])),
     ValueError, "numeric quadrature needs finite integration bounds"),
])
def test_quadrature_errors_no_other_test_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message
