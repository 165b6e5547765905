"""Collapse, outcome probabilities, joint tables, and sampling."""

import numpy as np
import pytest
from scipy.integrate import fixed_quad

from spatialzeno import (
    Bin,
    Interval,
    ZeroMassBinError,
    bin_inner_product,
    collapse,
    inner_product,
    jittered_grid,
    joint_distribution,
    make_density,
    make_state,
    prob_y1_given_bin,
    prob_y1_mixed,
    prob_y1_pure,
    sample_xy,
    superpose,
    tensor_product,
    uniform_grid,
)

CELL = lambda a, b: Bin((Interval(a, b),))


def test_collapse_uniform_half():
    psi = collapse(make_state("uniform"), CELL(0.0, 0.5))
    x = np.array([0.1, 0.3, 0.49])
    assert np.allclose(psi.evaluate(x), np.sqrt(2.0))
    assert np.allclose(psi.evaluate(np.array([0.6, 0.9])), 0.0)
    assert psi.norm_squared() == pytest.approx(1.0, abs=1e-9)


def test_collapse_sine_half():
    psi = collapse(make_state("sine_mode", k=1), CELL(0.0, 0.5))
    x = np.array([0.1, 0.25, 0.4])
    assert np.allclose(psi.evaluate(x), 2.0 * np.sin(np.pi * x))


def test_collapse_zero_mass():
    psi = make_state("indicator", a=0.0, b=0.5)
    with pytest.raises(ZeroMassBinError):
        collapse(psi, CELL(0.5, 1.0))


def test_prob_y1_given_bin_uniform():
    u = make_state("uniform")
    assert prob_y1_given_bin(u, u, CELL(0.0, 0.25)) == pytest.approx(0.25, abs=1e-14)


def test_prob_y1_given_bin_disjoint_support():
    psi = make_state("uniform")
    phi = make_state("indicator", a=0.5, b=1.0)
    assert prob_y1_given_bin(psi, phi, CELL(0.0, 0.5)) == pytest.approx(0.0, abs=1e-14)


def test_prob_y1_given_bin_self_projection():
    psi = make_state("sine_mode", k=1)
    cell = CELL(0.0, 0.5)
    phi = collapse(psi, cell)
    assert prob_y1_given_bin(psi, phi, cell) == pytest.approx(1.0, abs=1e-12)


def test_conditional_times_mass_equals_amplitude_chain():
    # law of total probability: the conditional route and the direct
    # amplitude route give the same P(Y=1)
    psi = make_state("sine_mode", k=2)
    phi = make_state("sine_mode", k=1)
    level = uniform_grid(8)
    from spatialzeno import bin_mass

    total = 0.0
    for b in level.bins():
        m = bin_mass(psi, b)
        total += prob_y1_given_bin(psi, phi, b) * m
    direct = prob_y1_pure(psi, phi, level).p_y1
    assert total == pytest.approx(direct, abs=1e-12)


def test_conditional_matches_collapsed_inner_product():
    psi = make_state("sine_mode", k=2)
    phi = make_state("sine_mode", k=1)
    for a, b in [(0.0, 0.25), (0.25, 0.5), (0.125, 0.7)]:
        cell = CELL(a, b)
        via_ratio = prob_y1_given_bin(psi, phi, cell)
        via_collapse = abs(inner_product(phi, collapse(psi, cell))) ** 2
        assert via_ratio == pytest.approx(via_collapse, abs=1e-12)


def test_prob_y1_pure_uniform_is_inverse_n():
    u = make_state("uniform")
    for n in (1, 2, 10, 64, 1024):
        r = prob_y1_pure(u, u, uniform_grid(n))
        assert r.p_y1 == pytest.approx(1.0 / n, abs=1e-13)


def test_prob_y1_pure_sine_n4():
    s = make_state("sine_mode", k=1)
    r = prob_y1_pure(s, s, uniform_grid(4))
    amps = np.sort(np.abs(r.per_bin_amplitude))
    assert amps[0] == pytest.approx(0.25 - 1.0 / (2.0 * np.pi), abs=1e-12)
    assert amps[-1] == pytest.approx(0.25 + 1.0 / (2.0 * np.pi), abs=1e-12)
    # 2 * [(1/4 - 1/2pi)^2 + (1/4 + 1/2pi)^2] = 1/4 + 1/pi^2
    assert r.p_y1 == pytest.approx(0.25 + np.pi ** -2, abs=1e-13)


def test_prob_y1_pure_orthogonal_single_bin():
    s1 = make_state("sine_mode", k=1)
    s2 = make_state("sine_mode", k=2)
    r = prob_y1_pure(s2, s1, uniform_grid(1))
    assert r.p_y1 == pytest.approx(0.0, abs=1e-14)


def test_prob_y1_pure_matches_per_bin_oracle():
    psi = make_state("sine_mode", k=2)
    phi = make_state("complex_exponential", k=1)
    level = jittered_grid(6, 1, C=2.0, seed=3)
    total = 0.0
    for b in level.bins():
        a, bb = b.edges[0].lo, b.edges[0].hi
        re = fixed_quad(lambda x: np.real(np.conj(phi.evaluate(x)) * psi.evaluate(x)),
                        a, bb, n=40)[0]
        im = fixed_quad(lambda x: np.imag(np.conj(phi.evaluate(x)) * psi.evaluate(x)),
                        a, bb, n=40)[0]
        total += re ** 2 + im ** 2
    r = prob_y1_pure(psi, phi, level)
    assert r.p_y1 == pytest.approx(total, abs=1e-12)


def test_symmetry_in_swapping_states():
    psi = make_state("sine_mode", k=2)
    phi = superpose([(0.6, make_state("sine_mode", k=1)),
                     (0.8j, make_state("complex_exponential", k=1))])
    level = uniform_grid(7)
    a = prob_y1_pure(psi, phi, level).p_y1
    b = prob_y1_pure(phi, psi, level).p_y1
    assert a == pytest.approx(b, abs=1e-12)


def test_global_phase_invariance():
    psi = make_state("sine_mode", k=1)
    phi = make_state("sine_mode", k=2)
    level = uniform_grid(5)
    base = prob_y1_pure(psi, phi, level).p_y1
    for theta in (0.3, 1.7, np.pi):
        psi_rot = superpose([(np.exp(1j * theta), psi)])
        phi_rot = superpose([(np.exp(-1j * theta / 3), phi)])
        assert prob_y1_pure(psi_rot, phi, level).p_y1 == pytest.approx(base, abs=1e-12)
        assert prob_y1_pure(psi, phi_rot, level).p_y1 == pytest.approx(base, abs=1e-12)


def test_mass_total_stable_under_refinement():
    psi = make_state("sine_mode", k=3)
    phi = make_state("uniform")
    for n in (2, 4, 8, 16, 64, 256):
        r = prob_y1_pure(psi, phi, uniform_grid(n))
        assert r.mass_total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("psi", [
    make_state("sine_mode", k=3),
    make_state("indicator", a=0.2, b=0.8),
    make_state("power_singular", alpha=0.25),
    make_state("haar_like", seed=21),
    superpose([(1.0, make_state("sine_mode", k=1)),
               (0.5j, make_state("complex_exponential", k=2))]),
    tensor_product([make_state("sine_mode", k=1), make_state("sine_mode", k=2)]),
], ids=lambda s: s.label.split("(")[0])
def test_hull_mass_total_matches_per_bin_sum(psi):
    levels = [uniform_grid(n, d=psi.d) for n in (1, 3, 16, 101)]
    levels += [jittered_grid(n, psi.d, C=2.0, seed=n) for n in (5, 64)]
    for level in levels:
        hull = prob_y1_pure(psi, psi, level, keep_per_bin=False)
        kept = prob_y1_pure(psi, psi, level, keep_per_bin=True)
        assert hull.per_bin_mass is None
        assert abs(hull.mass_total - float(np.sum(kept.per_bin_mass))) <= 1e-14


def test_hull_mass_total_on_rd_cubes():
    from spatialzeno import GridScheme

    g = make_state("gaussian", mu=[0.3, -0.2], sigma=[1.0, 0.7])
    scheme = GridScheme("jittered", d=2, ratio_bound=2.0, seed=7).with_cubes(
        [(float(a), float(b)) for a in range(-3, 3) for b in range(-3, 3)])
    level = scheme.level(8)
    hull = prob_y1_pure(g, g, level, keep_per_bin=False).mass_total
    kept = prob_y1_pure(g, g, level, keep_per_bin=True).per_bin_mass
    assert abs(hull - float(np.sum(kept))) <= 1e-14


def _mp_state(psi):
    """psi as an mpmath function of one coordinate, from its terms."""
    import mpmath

    from spatialzeno.states import PowerSingular1D, Trig1D

    def factor(f):
        if isinstance(f, PowerSingular1D):
            a = mpmath.mpf(f.alpha)
            return lambda x: mpmath.sqrt(1 - 2 * a) * x ** -a
        assert isinstance(f, Trig1D)
        v, m = (mpmath.mpf(e) for e in f.envelope)
        return lambda x: (mpmath.exp(-(x - m) ** 2 / v)
                          * mpmath.fsum(mpmath.mpc(c) * mpmath.expj(w * x)
                                        for c, w in f.terms))

    terms = [(mpmath.mpc(c), factor(f), f.support) for c, (f,) in psi.terms]
    return lambda x: mpmath.fsum(c * g(x) for c, g, (lo, hi) in terms if lo <= x < hi)


def test_region_integrals_of_numeric_pairs_against_mpmath():
    """Hull masses, inner products and the R^d captured mass of pairs
    without a closed form (power x sine(k) with k pi past the series
    limit) next to closed-form ones (Gaussian x sine): a numeric region is
    one cell."""
    import mpmath

    from spatialzeno import ProductGrid
    from spatialzeno.analysis import _box_masses
    from spatialzeno.quadrature import DEFAULT_CONFIG

    sine = lambda k: make_state("sine_mode", k=k)
    psi = superpose([(0.7, make_state("power_singular", alpha=0.3)), (0.5, sine(5))])
    f = _mp_state(psi)
    with mpmath.workdps(30):
        for edges in ([0.25, 0.5, 0.75, 1.0], [0.0, 0.1, 0.5]):
            got = prob_y1_pure(psi, sine(1), ProductGrid(4, [np.array(edges)]),
                               keep_per_bin=False).mass_total
            want = mpmath.quad(lambda x: abs(f(x)) ** 2,
                               mpmath.linspace(edges[0], edges[-1], 9))
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)
        # sine(2) pairs have closed forms; power x sine(3) is numeric
        for k in (2, 3):
            g = _mp_state(sine(k))
            want = complex(mpmath.quad(lambda x: mpmath.conj(f(x)) * g(x),
                                       mpmath.linspace(0, 1, 9)))
            assert abs(inner_product(psi, sine(k)) - want) <= 1e-12 * abs(want)
        rd = superpose([(0.8, make_state("gaussian", mu=0.2, sigma=0.8)),
                        (0.6, sine(5).as_euclidean())])
        h = _mp_state(rd)
        masses = _box_masses(rd, 2, 1, DEFAULT_CONFIG)
        for k in (1, 2):
            want = mpmath.quad(lambda x: abs(h(x)) ** 2, [-k, 0, 0.5, 1, k])
            assert masses[k - 1] == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_upper_bound_by_max_volume():
    psi = make_state("sine_mode", k=1)
    phi = make_state("sine_mode", k=2)
    from spatialzeno import bar_norm_squared

    for level in (uniform_grid(6), jittered_grid(6, 1, C=2.0, seed=5)):
        p = prob_y1_pure(psi, phi, level).p_y1
        bound = level.max_bin_volume * bar_norm_squared(psi, phi, level)
        assert p <= bound + 1e-12


def test_mixed_single_term_equals_pure():
    psi = make_state("sine_mode", k=1)
    phi = make_state("uniform")
    rho = make_density([(1.0, psi)])
    level = uniform_grid(9)
    assert prob_y1_mixed(rho, phi, level).p_y1 == pytest.approx(
        prob_y1_pure(psi, phi, level).p_y1, abs=1e-14)


def test_mixed_orthonormal_modes_single_bin():
    rho = make_density([(0.5, make_state("sine_mode", k=1)),
                        (0.5, make_state("sine_mode", k=2))])
    phi = make_state("sine_mode", k=1)
    r = prob_y1_mixed(rho, phi, uniform_grid(1))
    assert r.p_y1 == pytest.approx(0.5, abs=1e-13)


def test_mixed_linearity():
    s1 = make_state("sine_mode", k=1)
    s2 = make_state("sine_mode", k=2)
    phi = make_state("complex_exponential", k=1)
    level = jittered_grid(5, 1, C=2.0, seed=8)
    rho = make_density([(0.3, s1), (0.7, s2)])
    expected = 0.3 * prob_y1_pure(s1, phi, level).p_y1 \
        + 0.7 * prob_y1_pure(s2, phi, level).p_y1
    assert prob_y1_mixed(rho, phi, level).p_y1 == pytest.approx(expected, abs=1e-12)


def test_mixed_tail_enters_error_bound():
    rho = make_density([(0.8, make_state("sine_mode", k=1))])
    phi = make_state("uniform")
    r = prob_y1_mixed(rho, phi, uniform_grid(4))
    assert r.p_y1_error_bound >= 0.2


def test_joint_distribution_uniform_n2():
    u = make_state("uniform")
    jd = joint_distribution(u, u, uniform_grid(2))
    assert np.allclose(jd.p_y1_bins, 0.25)
    assert np.allclose(jd.p_y0_bins, 0.25)
    assert jd.p_y1 == pytest.approx(0.5)


def test_joint_marginals():
    psi = make_state("sine_mode", k=2)
    phi = make_state("sine_mode", k=1)
    level = uniform_grid(16)
    jd = joint_distribution(psi, phi, level)
    r = prob_y1_pure(psi, phi, level)
    assert np.allclose(jd.marginal_x, r.per_bin_mass, atol=1e-14)
    assert jd.p_y1 == pytest.approx(r.p_y1, abs=1e-14)
    assert jd.total == pytest.approx(1.0, abs=1e-10)
    assert np.all(jd.p_y0_bins >= 0.0)
    assert np.all(jd.p_y1_bins >= 0.0)


def test_joint_mixture_weighted():
    s1 = make_state("sine_mode", k=1)
    s2 = make_state("sine_mode", k=2)
    phi = make_state("uniform")
    level = uniform_grid(8)
    rho = make_density([(0.4, s1), (0.6, s2)])
    jd = joint_distribution(rho, phi, level)
    j1 = joint_distribution(s1, phi, level)
    j2 = joint_distribution(s2, phi, level)
    assert np.allclose(jd.p_y1_bins, 0.4 * j1.p_y1_bins + 0.6 * j2.p_y1_bins)


def test_sampler_reproducible_and_stream_split():
    psi = make_state("sine_mode", k=1)
    level = uniform_grid(8)
    a = sample_xy(psi, psi, level, count=500, seed=10)
    b = sample_xy(psi, psi, level, count=500, seed=10)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = sample_xy(psi, psi, level, count=500, seed=10, stream=1)
    assert not np.array_equal(a.x, c.x)


def test_bad_seeds_raise_up_front(monkeypatch):
    from spatialzeno import measurement

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(measurement, "_draw", no_table)
    psi = make_state("sine_mode", k=1)
    for kwargs, message in (({"seed": -2}, "seed must be a non-negative integer"),
                            ({"stream": -1}, "stream must be a non-negative integer"),
                            ({"seed": 1.9}, "seed must be an integer")):
        with pytest.raises(ValueError, match=message):
            sample_xy(psi, psi, uniform_grid(8), count=10, **kwargs)
    for seed, message in ((-1, "seed must be a non-negative integer"),
                          (1.5, "seed must be an integer")):
        with pytest.raises(ValueError, match=message):
            make_state("haar_like", seed=seed)


def test_sampler_count_is_an_integer(monkeypatch):
    from spatialzeno import measurement

    psi = make_state("sine_mode", k=1)
    level = uniform_grid(8)
    # an integral float passes, as in the CLI schema
    assert sample_xy(psi, psi, level, count=2.0, seed=4).as_tuples() == (
        sample_xy(psi, psi, level, count=2, seed=4).as_tuples())

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(measurement, "_draw", no_table)
    for count in (2.5, "3", None):
        with pytest.raises(ValueError, match="count must be an integer"):
            sample_xy(psi, psi, level, count=count)
    with pytest.raises(ValueError, match="count must be >= 1"):
        sample_xy(psi, psi, level, count=0)


def test_sampler_integral_float_seeds_are_their_integer_twins():
    psi, phi, level = make_state("sine_mode", k=1), make_state("uniform"), uniform_grid(8)
    batch = sample_xy(psi, phi, level, count=50, seed=3.0, stream=1.0)
    twin = sample_xy(psi, phi, level, count=50, seed=3, stream=1)
    assert batch.as_tuples() == twin.as_tuples()
    assert type(batch.seed) is int and type(batch.stream) is int


_STATE_1D = make_state("sine_mode", k=1)


@pytest.mark.parametrize("call", [
    lambda level: prob_y1_pure(_STATE_1D, _STATE_1D, level),
    lambda level: prob_y1_mixed(make_density([(1.0, _STATE_1D)]), _STATE_1D, level),
    lambda level: joint_distribution(_STATE_1D, _STATE_1D, level),
])
def test_a_state_of_another_dimension_raises_before_the_table_guard(call):
    with pytest.raises(ValueError) as info:
        call(uniform_grid(4, 2))
    assert info.type is ValueError
    assert str(info.value) == "state dimension does not match the grid"


@pytest.mark.parametrize("call, message", [
    (lambda: prob_y1_pure(_STATE_1D, make_state("gaussian", mu=0.0, sigma=1.0),
                          uniform_grid(4)), "psi and phi live on different domains"),
    (lambda: sample_xy(_STATE_1D, _STATE_1D, uniform_grid(4, 2)),
     "state dimension does not match the grid"),
])
def test_measurement_validation_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and str(info.value) == message


def test_a_bin_without_mass_has_no_conditional_probability():
    with pytest.raises(ZeroMassBinError) as info:
        prob_y1_given_bin(make_state("indicator", a=0, b=0.5), make_state("uniform"),
                          CELL(0.5, 1.0))
    assert str(info.value) == "state 'indicator(0.0,0.5)' has zero mass in bin (0.5,)..(1.0,)"

def test_sampler_zero_mass_bins_never_drawn():
    psi = make_state("indicator", a=0.0, b=0.5)
    phi = make_state("uniform")
    level = uniform_grid(4)
    batch = sample_xy(psi, phi, level, count=20_000, seed=3)
    assert batch.x.max() <= 1  # bins 2 and 3 carry no mass
    # drawn axis by axis: axis 1's cells 2 and 3 carry no mass
    psi2 = tensor_product([make_state("sine_mode", k=1), psi])
    batch = sample_xy(psi2, make_state("uniform", d=2), uniform_grid(4, 2), count=20_000,
                      seed=3)
    assert batch.x.min() >= 0 and (batch.x % 4).max() <= 1


def test_sampler_all_zero_when_phi_disjoint():
    psi = make_state("indicator", a=0.0, b=0.5)
    phi = make_state("indicator", a=0.5, b=1.0)
    batch = sample_xy(psi, phi, uniform_grid(2), count=5_000, seed=4)
    assert np.all(batch.y == 0)


def test_sampler_uniform_pair_clt_bound():
    u = make_state("uniform")
    batch = sample_xy(u, u, uniform_grid(2), count=100_000, seed=6)
    # exact joint table: each bin (0.25, 0.25), so P(Y=1) = 0.5
    assert abs(batch.y.mean() - 0.5) < 4 * np.sqrt(0.25 / 100_000)


def test_sampler_frequencies_match_joint_table():
    psi = make_state("sine_mode", k=1)
    level = uniform_grid(8)
    count = 100_000
    jd = joint_distribution(psi, psi, level)
    batch = sample_xy(psi, psi, level, count=count, seed=123)
    emp_y1 = batch.y.mean()
    sigma = np.sqrt(jd.p_y1 * (1 - jd.p_y1) / count)
    assert abs(emp_y1 - jd.p_y1) < 4 * sigma
    for j in range(level.num_bins):
        p = jd.marginal_x[j]
        emp = np.mean(batch.x == j)
        s = np.sqrt(p * (1 - p) / count)
        assert abs(emp - p) < 4 * s


def test_sampler_mixture_draws_spectral_terms():
    rho = make_density([(0.5, make_state("indicator", a=0.0, b=0.5)),
                        (0.5, make_state("indicator", a=0.5, b=1.0))])
    phi = make_state("uniform")
    level = uniform_grid(2)
    batch = sample_xy(rho, phi, level, count=50_000, seed=9)
    frac_low = np.mean(batch.x == 0)
    assert abs(frac_low - 0.5) < 4 * np.sqrt(0.25 / 50_000)


def test_product_state_2d_probability():
    psi = tensor_product([make_state("sine_mode", k=1), make_state("sine_mode", k=1)])
    level_1d = uniform_grid(4)
    s = make_state("sine_mode", k=1)
    p1 = prob_y1_pure(s, s, level_1d).p_y1
    level_2d = uniform_grid(4, 2)
    p2 = prob_y1_pure(psi, psi, level_2d).p_y1
    assert p2 == pytest.approx(p1 ** 2, abs=1e-13)


def test_per_bin_tables_dropped_for_large_grids():
    u2 = make_state("uniform", d=2)
    level = uniform_grid(1024, 2)  # 2^20 bins, above the guard
    r = prob_y1_pure(u2, u2, level)
    assert r.per_bin_amplitude is None
    assert r.p_y1 == pytest.approx(1024.0 ** -2, rel=1e-12, abs=0.0)


def _axis_sums(w, axes):
    """The (P, d) inputs of ``_error_bound`` from a ``_pair_data`` walk."""
    sq = np.array([ax.gram.diagonal().real for ax in axes]).T
    return sq, np.array([ax.extra for ax in axes]).T


def test_gram_error_shortcut_is_exact():
    from spatialzeno import GridScheme, convergence_study
    from spatialzeno.measurement import _error_bound
    from spatialzeno.quadrature import DEFAULT_CONFIG, _pair_data

    psi = superpose([(0.8, make_state("sine_mode", k=1)),
                     (0.6j, make_state("sine_mode", k=3))])
    closed = tensor_product([psi, psi])
    uniform2 = make_state("uniform", d=2)
    scheme = GridScheme("jittered", d=2, ratio_bound=2.0, seed=5)
    rec = convergence_study(closed, uniform2, scheme, [2, 4, 8, 16])
    for row in rec.rows:
        w, axes = _pair_data(uniform2, closed, scheme.level(row.n).breakpoints,
                             DEFAULT_CONFIG)
        sq, extra = _axis_sums(w, axes)
        assert not extra.any()
        assert _error_bound(w, sq, extra) == 0.0
        assert row.error_bound == 1e-15 * row.num_bins ** 0.5


def _mp_error_bound(phi, psi, level):
    """The error bound formula in 50-digit arithmetic, from unblocked
    full-axis cell integrals: (sum_a |w_a| s_hi_a)^2 - (sum_a |w_a| s_a)^2."""
    import mpmath
    from spatialzeno.quadrature import DEFAULT_CONFIG, _term_pairs, cell_integrals

    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(0), mpmath.mpf(0)
        for w, bf, kf in _term_pairs(phi, psi):
            prod, prod_hi = mpmath.mpf(1), mpmath.mpf(1)
            for k, edges in enumerate(level.breakpoints):
                vals, errs = cell_integrals(bf[k], kf[k], edges, DEFAULT_CONFIG)
                absm = [mpmath.sqrt(mpmath.mpf(v.real) ** 2 + mpmath.mpf(v.imag) ** 2)
                        for v in vals]
                sq = mpmath.fsum(m ** 2 for m in absm)
                prod *= sq
                prod_hi *= sq + mpmath.fsum(2 * m * mpmath.mpf(e) + mpmath.mpf(e) ** 2
                                            for m, e in zip(absm, errs))
            aw = mpmath.sqrt(mpmath.mpf(w.real) ** 2 + mpmath.mpf(w.imag) ** 2)
            lo += aw * mpmath.sqrt(prod)
            hi += aw * mpmath.sqrt(prod_hi)
        return float(hi ** 2 - lo ** 2)


def _numeric_pair_case(case):
    """(phi, psi, level) whose pairs take numeric quadrature on some axis."""
    sine = lambda k: make_state("sine_mode", k=k)
    power = lambda a: make_state("power_singular", alpha=a)
    # k pi > _POWER_SERIES_WMAX for k >= 3, so power x sine(k) is numeric
    if case == "power_sine_1d":
        return sine(3), power(0.3), jittered_grid(64, 1, C=2.0, seed=2)
    # axis pairs on both paths: sine x power is numeric, sine x sine closed
    phi = tensor_product([sine(3), sine(4)])
    psi = superpose([(0.7, tensor_product([power(0.3), sine(3)])),
                     (0.5j, tensor_product([sine(1), power(0.2)]))])
    return phi, psi, jittered_grid(24, 2, C=2.0, seed=4)


@pytest.mark.parametrize("case", ["power_sine_1d", "two_terms_2d"])
def test_error_bound_matches_mpmath_on_numeric_pairs(case):
    from spatialzeno.measurement import _error_bound
    from spatialzeno.quadrature import DEFAULT_CONFIG, _pair_data

    phi, psi, level = _numeric_pair_case(case)
    w, axes = _pair_data(phi, psi, level.breakpoints, DEFAULT_CONFIG)
    sq, extra = _axis_sums(w, axes)
    assert extra.any()
    got = _error_bound(w, sq, extra)
    assert got > 0.0
    assert got == pytest.approx(_mp_error_bound(phi, psi, level), rel=1e-12, abs=0.0)


def _mp_bin_error(phi, psi, cell):
    """sum_a |w_a| (prod_k (|M_ak| + e_ak) - prod_k |M_ak|) in 50-digit
    arithmetic, from each axis's one-cell integral M and its estimate e."""
    import mpmath
    from spatialzeno.quadrature import DEFAULT_CONFIG, _term_pairs, cell_integrals

    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for w, bf, kf in _term_pairs(phi, psi):
            prod, prod_hi = mpmath.mpf(1), mpmath.mpf(1)
            for k, e in enumerate(cell.edges):
                (v,), (err,) = cell_integrals(bf[k], kf[k], np.array([e.lo, e.hi]),
                                              DEFAULT_CONFIG)
                m = abs(mpmath.mpc(v.real, v.imag))
                prod *= m
                prod_hi *= m + mpmath.mpf(float(err))
            total += abs(mpmath.mpc(w)) * (prod_hi - prod)
        return float(total)


@pytest.mark.parametrize("case, j", [("power_sine_1d", 0), ("power_sine_1d", 1),
                                     ("two_terms_2d", 0), ("two_terms_2d", 762)])
def test_bin_error_matches_mpmath_on_numeric_pairs(case, j):
    # the products are telescoped, so the error carries no cancellation; on
    # these bins a plain difference of the rounded products is off by up to
    # 2e-7 (1-d, j = 1) and 4e-2 (2-d, j = 762, an interior bin) relative
    phi, psi, level = _numeric_pair_case(case)
    if case == "power_sine_1d":
        level = jittered_grid(16, 1, C=2.0, seed=1)
    cell = level.bin(j)
    got = bin_inner_product(phi, psi, cell).error
    assert got > 0.0
    assert got == pytest.approx(_mp_bin_error(phi, psi, cell), rel=1e-12, abs=0.0)


def _inverse_cdf_cases():
    rng = np.random.default_rng(42)
    masses = rng.random(1000)
    masses[::7] = 0.0  # zero-mass bins
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    yield cdf, rng.random(50_000)
    # keys that hit CDF values exactly, repeated, in random order
    yield cdf, rng.permutation(np.concatenate([cdf[:-1], cdf[:-1], [0.0]]))
    yield np.array([0.25, 0.25, 0.25, 1.0]), np.array([0.25, 0.0, 0.5, 0.25, 0.999])


@pytest.mark.parametrize("cdf, u", list(_inverse_cdf_cases()))
def test_sorted_key_search_equals_searchsorted(cdf, u):
    from spatialzeno.measurement import _inverse_cdf

    x = _inverse_cdf(cdf, u)
    assert np.array_equal(x, np.searchsorted(cdf, u, side="right"))
    # a zero-mass bin has cdf[j] == cdf[j - 1] and is never returned
    zero_mass = np.nonzero(np.diff(cdf) == 0.0)[0] + 1
    assert not np.isin(x, zero_mass).any()


def _draws_digest(batch) -> str:
    import hashlib
    return hashlib.sha256(batch.x.astype("<i8").tobytes()
                          + batch.y.astype("i1").tobytes()).hexdigest()


def test_sampler_draws_pinned_pure_2d_jittered():
    # digest of the draws made by the plain searchsorted sampler
    psi = make_state("sine_product", ks=[2, 3])
    phi = make_state("uniform", d=2)
    batch = sample_xy(psi, phi, jittered_grid(12, d=2, C=2.0, seed=11),
                      count=20_000, seed=5)
    assert batch.x.dtype == np.int32 and batch.y.dtype == np.int8
    assert batch.x[:5].tolist() == [117, 248, 38, 32, 62]
    assert int(batch.y.sum()) == 72
    assert _draws_digest(batch) == (
        "00d555f6319537cb13201139529129039bb10296a51fe6e028140c5d91e48c3a")


def test_sampler_draws_pinned_density_1d_jittered():
    rho = make_density([(0.3, make_state("sine_mode", k=2)),
                        (0.7, make_state("sine_mode", k=5))])
    batch = sample_xy(rho, make_state("uniform"),
                      jittered_grid(32, d=1, C=2.0, seed=12), count=20_000, seed=6)
    assert batch.x.dtype == np.int32 and batch.y.dtype == np.int8
    assert batch.x[:5].tolist() == [38, 10, 42, 5, 34]
    assert int(batch.y.sum()) == 394
    assert _draws_digest(batch) == (
        "1b5190ca6e6c7ba5e17da36f9d0b5b3aaba706edb86bb5d48eb0b4296ade107e")


_ONE_TERM_CASES = {
    "pure_2d": (make_state("sine_product", ks=[2, 3]), make_state("uniform", d=2),
                jittered_grid(12, d=2, C=2.0, seed=11)),
    "jittered_1d": (superpose([(0.8, make_state("sine_mode", k=1)),
                               (0.6j, make_state("sine_mode", k=3))]),
                    make_state("sine_mode", k=2), jittered_grid(32, C=2.0, seed=12)),
}


@pytest.mark.parametrize("case", sorted(_ONE_TERM_CASES))
def test_a_one_term_density_draws_exactly_its_pure_state(case):
    # one sampler path: the density (1, psi) has psi's tables bit for bit
    # and reads the same uniforms
    psi, phi, level = _ONE_TERM_CASES[case]
    pure = sample_xy(psi, phi, level, count=20_000, seed=5, stream=2)
    mixed = sample_xy(make_density([(1.0, psi)]), phi, level, count=20_000, seed=5, stream=2)
    assert np.array_equal(mixed.x, pure.x) and np.array_equal(mixed.y, pure.y)


def test_density_draws_equal_the_searchsorted_oracle():
    # X from the first count uniforms of the stream over the mixed masses'
    # CDF, Y from the next count against the mixed P(Y=1 | X)
    from spatialzeno import measurement
    from spatialzeno.quadrature import DEFAULT_CONFIG

    rho = make_density([(0.5, make_state("sine_mode", k=1)),
                        (0.3, make_state("sine_mode", k=3)),
                        (0.2, make_state("sine_mode", k=4))])
    phi, level = make_state("sine_mode", k=2), jittered_grid(40, C=2.0, seed=3)
    count, seed, stream = 50_000, 8, 1
    batch = sample_xy(rho, phi, level, count=count, seed=seed, stream=stream)
    masses, p1 = measurement._per_bin_tables(rho, phi, level, DEFAULT_CONFIG, "auto")
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    cond = np.divide(p1, masses, out=np.zeros_like(p1), where=masses > 0)
    u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(stream,)))).random(2 * count)
    x = np.searchsorted(cdf, u[:count], side="right")
    assert np.array_equal(batch.x, x)
    assert np.array_equal(batch.y, u[count:] < cond[x])


def test_three_term_density_draws_follow_the_joint_table():
    rho = make_density([(0.5, make_state("sine_mode", k=1)),
                        (0.3, make_state("sine_mode", k=3)),
                        (0.2, make_state("sine_mode", k=4))])
    phi = make_state("sine_mode", k=1)
    level = jittered_grid(48, C=2.0, seed=13, cells_per_axis=64)
    assert level.num_bins == 64
    jd = joint_distribution(rho, phi, level)
    batch = sample_xy(rho, phi, level, count=200_000, seed=4)
    want = jd.marginal_x / jd.total
    freq = np.bincount(batch.x, minlength=level.num_bins) / batch.count
    assert np.all(np.abs(freq - want) < 5 * np.sqrt(want * (1 - want) / batch.count))
    for j in range(level.num_bins):
        p = jd.p_y1_bins[j] / jd.marginal_x[j]
        drawn = batch.y[batch.x == j]
        assert abs(drawn.mean() - p) < 5 * np.sqrt(p * (1 - p) / drawn.size) + 1e-12, j


def test_sampler_chunks_equal_one_block():
    # the draws are made DRAW_BLOCK at a time; every draw is a function of
    # its own uniforms, so the chunk size does not change any of them
    from spatialzeno import measurement

    rho = make_density([(0.3, make_state("sine_mode", k=2)),
                        (0.7, make_state("sine_mode", k=5))])
    psi = make_state("sine_product", ks=[2, 3])
    cases = [(rho, make_state("uniform"), jittered_grid(32, C=2.0, seed=12)),
             (psi, make_state("uniform", d=2), jittered_grid(12, d=2, C=2.0, seed=11))]
    for state, phi, level in cases:
        chunked = sample_xy(state, phi, level, count=5_000, seed=6)
        block = measurement.DRAW_BLOCK
        try:
            measurement.DRAW_BLOCK = 10 ** 6
            whole = sample_xy(state, phi, level, count=5_000, seed=6)
        finally:
            measurement.DRAW_BLOCK = block
        assert np.array_equal(chunked.x, whole.x) and np.array_equal(chunked.y, whole.y)


def test_sampler_raises_on_a_level_without_mass():
    from spatialzeno import CustomGrid

    level = CustomGrid(2, [CELL(0.5, 0.75), CELL(0.75, 1.0)])
    psi = make_state("indicator", a=0.0, b=0.5)
    rho = make_density([(0.5, make_state("indicator", a=0.0, b=0.25)),
                        (0.5, make_state("indicator", a=0.25, b=0.5))])
    for state in (psi, rho):
        with pytest.raises(ZeroMassBinError, match="^the state has no mass on the level$"):
            sample_xy(state, make_state("uniform"), level, count=10, seed=1)


def test_sampler_never_draws_a_density_term_without_mass_on_the_level():
    from spatialzeno import CustomGrid

    level = CustomGrid(2, [CELL(0.5, 0.75), CELL(0.75, 1.0)])
    rho = make_density([(0.5, make_state("indicator", a=0.0, b=0.5)),
                        (0.5, make_state("indicator", a=0.5, b=1.0))])
    batch = sample_xy(rho, make_state("uniform"), level, count=20_000, seed=2)
    # only the second term lives on the level: X is uniform over the two bins
    frac = np.mean(batch.x == 0)
    assert abs(frac - 0.5) < 5 * np.sqrt(0.25 / batch.count)


def test_density_sampler_follows_the_joint_marginal_on_a_partial_level():
    from spatialzeno import CustomGrid

    # the level holds half of the first term's mass and all of the second's,
    # so the normalised marginal of X is (1/3, 2/3), not (1/2, 1/2)
    level = CustomGrid(2, [CELL(0.25, 0.5), CELL(0.5, 1.0)])
    rho = make_density([(0.5, make_state("indicator", a=0.0, b=0.5)),
                        (0.5, make_state("indicator", a=0.5, b=1.0))])
    phi = make_state("uniform")
    jd = joint_distribution(rho, phi, level)
    want = jd.marginal_x / jd.total
    assert want == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
    batch = sample_xy(rho, phi, level, count=200_000, seed=1)
    freq = np.bincount(batch.x, minlength=2) / batch.count
    se = np.sqrt(want * (1 - want) / batch.count)
    assert np.all(np.abs(freq - want) < 5 * se), (freq, want)
    # Y given X follows the joint table too
    for j in range(2):
        p = jd.p_y1_bins[j] / jd.marginal_x[j]
        got = batch.y[batch.x == j].mean()
        assert abs(got - p) < 5 * np.sqrt(p * (1 - p) / np.sum(batch.x == j)) + 1e-12


def _flat_table_draws(state, phi, level, count, seed):
    """The flattened-table reference of a sample: X by ``_inverse_cdf``
    over the joint table's masses at the stream's first ``count`` uniforms,
    Y against its P(Y=1 | X) at the next ``count``."""
    from spatialzeno import measurement
    from spatialzeno.quadrature import DEFAULT_CONFIG

    masses, p1 = measurement._per_bin_tables(state, phi, level, DEFAULT_CONFIG, True)
    cond = np.divide(p1, masses, out=np.zeros_like(p1), where=masses > 0)
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(0,)))).random(2 * count)
    x = measurement._inverse_cdf(cdf, u[:count])
    return x, u[count:] < cond[x]


def _two_parts(d):
    """The unit cube split at x_0 = 0.4 into two product parts with
    different cells."""
    from spatialzeno import ConcatenatedGrid, ProductGrid

    rest = [np.sort(np.r_[0.0, np.random.default_rng(7 + k).random(5), 1.0])
            for k in range(d - 1)]
    parts = [ProductGrid(8, [np.linspace(0.0, 0.4, 8)] + rest),
             ProductGrid(8, [np.linspace(0.4, 1.0, 6)] + rest[::-1])]
    return ConcatenatedGrid(8, parts, cubes=[(0.0,) * d])


def _shuffled_bins(d):
    """A hand-built level: the bins of a jittered grid in random order,
    one one-cell part each."""
    from spatialzeno import CustomGrid

    base = jittered_grid(3, d, C=2.0, seed=11)
    order = np.random.default_rng(4).permutation(base.num_bins)
    return CustomGrid(3, [base.bin(j) for j in order], ratio_bound=2.0)


_PRODUCT_PSI = {
    1: {"sine": lambda: make_state("sine_mode", k=3),
        "cexp": lambda: make_state("complex_exponential", k=-2),
        "power": lambda: make_state("power_singular", alpha=0.3),
        "indicator": lambda: make_state("indicator", a=0.2, b=0.7),
        "haar": lambda: make_state("haar_like", seed=5, pieces=8)},
    2: {"sine": lambda: make_state("sine_product", ks=[2, 3]),
        "cexp_power": lambda: tensor_product([make_state("complex_exponential", k=2),
                                              make_state("power_singular", alpha=0.2)]),
        "haar_sine": lambda: tensor_product([make_state("haar_like", seed=5, pieces=8),
                                             make_state("sine_mode", k=1)])},
    3: {"sine": lambda: make_state("sine_product", ks=[1, 2, 3]),
        "cexp_indicator": lambda: tensor_product([make_state("complex_exponential", k=1),
                                                  make_state("sine_mode", k=2),
                                                  make_state("indicator", a=0.1, b=0.9)])},
}


def _phi(kind, d):
    if kind == "one_term":
        return make_state("uniform", d=d)
    product = lambda fs: tensor_product(fs) if d > 1 else fs[0]
    if kind == "two_real_terms":
        return superpose([(0.8, product([make_state("sine_mode", k=1)] * d)),
                          (0.6, product([make_state("sine_mode", k=2)] * d))])
    # two terms, one of them complex: a complex amplitude per draw
    return superpose([(0.8, product([make_state("sine_mode", k=1)] * d)),
                      (0.6j, product([make_state("complex_exponential", k=2)]
                                     + [make_state("sine_mode", k=2)] * (d - 1)))])


_LEVELS = {
    "uniform": lambda d: uniform_grid({1: 40, 2: 12, 3: 6}[d], d),
    "jittered": lambda d: jittered_grid({1: 40, 2: 12, 3: 6}[d], d, C=2.0, seed=3 + d),
    "two_parts": _two_parts,
    "bin_list": _shuffled_bins,
}
_AXIS_CASES = [(d, psi, phi, level) for d in (1, 2, 3) for psi in sorted(_PRODUCT_PSI[d])
               for phi in ("one_term", "two_terms") for level in sorted(_LEVELS)
               if d < 3 or level in ("uniform", "jittered")]


@pytest.mark.parametrize("d, psi, phi, level", _AXIS_CASES)
def test_product_state_draws_equal_the_flattened_table(d, psi, phi, level):
    # a pure state of one product term draws axis by axis; the per-axis
    # CDFs and the flattened one round differently at bin boundaries, so
    # on d >= 2 or several parts a rare draw may move to a neighbouring
    # bin, while a single-part 1-d level draws the table's bits exactly
    psi, phi, level = _PRODUCT_PSI[d][psi](), _phi(phi, d), _LEVELS[level](d)
    count, seed = 20_000, 17
    batch = sample_xy(psi, phi, level, count=count, seed=seed)
    x, y = _flat_table_draws(psi, phi, level, count, seed)
    assert batch.x.dtype == np.int32
    if d == 1 and len(level.parts) == 1:
        assert np.array_equal(batch.x, x) and np.array_equal(batch.y, y)
    same = batch.x == x
    assert np.count_nonzero(~same) <= 5
    # Y is assembled per draw in the table's arithmetic: equal bit for bit
    assert np.array_equal(batch.y[same], y[same])


@pytest.mark.parametrize("d, psi, phi, level", [
    (2, "cexp_power", "two_terms", "jittered"), (2, "haar_sine", "two_terms", "two_parts"),
    (2, "sine", "two_real_terms", "jittered"), (3, "sine", "two_terms", "jittered"),
    (3, "sine", "two_real_terms", "uniform"), (3, "cexp_indicator", "one_term", "uniform")])
def test_product_draws_read_the_joint_tables_conditional_bit_for_bit(d, psi, phi, level):
    # Y = 1 when its uniform is below P(Y=1 | X): at the table's value
    # itself no draw is 1, one ulp below it every draw of a bin with
    # P(Y=1 | X) > 0 is, so a last-bit difference shows
    from spatialzeno import measurement
    from spatialzeno.quadrature import DEFAULT_CONFIG

    psi, phi, level = _PRODUCT_PSI[d][psi](), _phi(phi, d), _LEVELS[level](d)
    masses, p1 = measurement._per_bin_tables(psi, phi, level, DEFAULT_CONFIG, True)
    cond = np.divide(p1, masses, out=np.zeros_like(p1), where=masses > 0)
    draw = measurement._AxisSampler(psi, phi, level, DEFAULT_CONFIG).draw
    u = np.random.default_rng(5).random(5000)
    x, y = np.empty(u.size, dtype=np.int32), np.empty(u.size, dtype=np.int8)
    draw(u.copy(), np.zeros(u.size), x, y)
    at = cond[x]
    assert np.count_nonzero(at) > u.size // 2
    draw(u.copy(), at, x, y)
    assert not y.any()
    draw(u.copy(), np.nextafter(at, -1.0), x, y)
    assert np.array_equal(y, at > 0)


def test_a_residual_that_rounds_up_to_one_stays_in_its_bin():
    # the uniform just below 1 lies in axis 0's last cell, whose CDF entry
    # before it is 0.47...: its residual (u - F[j - 1]) / (1 - F[j - 1])
    # rounds to 1.0, and is kept below 1, so axis 1 draws its last cell
    # and not an index past the end
    from spatialzeno import measurement
    from spatialzeno.quadrature import DEFAULT_CONFIG

    psi = tensor_product([make_state("indicator", a=0.055, b=1.0), make_state("uniform")])
    sampler = measurement._AxisSampler(psi, make_state("uniform", d=2), uniform_grid(2, 2),
                                       DEFAULT_CONFIG)
    u = np.array([np.nextafter(1.0, 0.0)])
    low = sampler.axes[0].low[-1]
    assert (u[0] - low) / (1.0 - low) == 1.0
    x, y = np.empty(1, dtype=np.int32), np.empty(1, dtype=np.int8)
    sampler.draw(u, np.zeros(1), x, y)
    assert x.tolist() == [3]


def test_sampler_path_follows_the_term_structure(monkeypatch):
    # one product term: axis by axis, no per-bin table; several terms or a
    # density state: the joint tables
    from spatialzeno import measurement

    built = []
    tables = measurement._per_bin_tables

    def counted(state, *args):
        built.append(state)
        return tables(state, *args)

    monkeypatch.setattr(measurement, "_per_bin_tables", counted)
    psi, phi, level = make_state("sine_product", ks=[2, 3]), _phi("two_terms", 2), \
        jittered_grid(12, 2, C=2.0, seed=1)
    sample_xy(psi, phi, level, count=100, seed=1)
    assert built == []
    two = superpose([(0.8, psi), (0.6, make_state("sine_product", ks=[1, 1]))])
    rho = make_density([(1.0, psi)])
    for state in (two, rho):
        sample_xy(state, phi, level, count=100, seed=1)
    assert built == [two, rho]


def _block_masses(k, edges):
    """The mass of sine_mode(k) in each [edges[i], edges[i + 1])."""
    anti = edges - np.sin(2.0 * np.pi * k * edges) / (2.0 * np.pi * k)
    return np.diff(anti)


def test_product_sampler_draws_a_billion_bins_within_the_draws_and_the_cells():
    # 2^30 bins, past the table guard: the per-axis path builds no per-bin
    # table, and beyond x and y (5 B per draw) holds the axes' cells and
    # CDFs and one chunk of draws
    import tracemalloc

    ks = [1, 2, 3]
    psi, phi = make_state("sine_product", ks=ks), make_state("uniform", d=3)
    level = uniform_grid(1024, 3)
    count = 10 ** 5
    tracemalloc.start()
    try:
        batch = sample_xy(psi, phi, level, count=count, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = sum(bp.size - 1 for bp in level.breakpoints)
    assert batch.x.dtype == np.int32 and batch.count == count
    assert peak <= 5 * count + 128 * cells + 2 ** 20, peak - 5 * count
    # each axis's draws follow sine(k)'s masses, read on 8 blocks
    for k, j in zip(ks, np.unravel_index(batch.x, level.shape)):
        want = _block_masses(k, np.linspace(0.0, 1.0, 9))
        freq = np.bincount(j // 128, minlength=8) / count
        assert np.all(np.abs(freq - want) <= 5 * np.sqrt(want * (1 - want) / count)), k


def test_sample_indices_are_int32_below_2_31_bins_and_int64_from_there(monkeypatch):
    from spatialzeno import measurement

    phi = make_state("uniform", d=3)
    for n, dtype in ((1290, np.int32), (1291, np.int64), (2048, np.int64)):
        level = uniform_grid(n, 3)
        assert (level.num_bins < 2 ** 31) == (dtype is np.int32)
        batch = sample_xy(make_state("sine_product", ks=[1, 1, 1]), phi, level,
                          count=1000, seed=3)
        assert batch.x.dtype == dtype
        assert 0 <= batch.x.min() and batch.x.max() < level.num_bins
    # 2^33 bins: the draws reach past int32
    assert level.num_bins == 2 ** 33 and batch.x.max() >= 2 ** 31

    def no_table(*args, **kwargs):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(measurement, "_draw", no_table)
    with pytest.raises(ValueError, match="bin index would not fit in int64"):
        sample_xy(make_state("uniform", d=4), make_state("uniform", d=4),
                  uniform_grid(2 ** 16, 4), count=10)


@pytest.mark.parametrize("case", ["pure_2d", "density_1d"])
def test_sampler_holds_the_draws_one_term_tables_and_a_chunk(case):
    # the draw arrays (x in int32 below 2^31 bins, y in int8) take 5 B per
    # draw; above them a density state's two joint tables (its mixed sums),
    # built in the counted table bytes, and one chunk of DRAW_BLOCK draws.
    # The product state draws axis by axis and holds no per-bin table.
    import tracemalloc

    from spatialzeno import measurement

    if case == "pure_2d":
        state = make_state("sine_product", ks=[2, 3])
        phi, level = make_state("uniform", d=2), jittered_grid(512, d=2, C=2.0, seed=7)
    else:
        state = make_density([(0.3, make_state("sine_mode", k=2)),
                              (0.7, make_state("sine_mode", k=5))])
        phi, level = make_state("uniform"), jittered_grid(2 ** 18, C=2.0, seed=8)
    count = 10 ** 6
    tracemalloc.start()
    try:
        sample_xy(state, phi, level, count=count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = 0 if case == "pure_2d" else measurement._TABLE_BYTES_PER_BIN * level.num_bins
    bound = 5 * count + tables + 2 ** 20
    assert peak <= bound, (peak - 5 * count) / level.num_bins


@pytest.mark.parametrize("case", ["pure_2d", "density_1d"])
def test_sampler_working_memory_does_not_grow_with_the_draws(case):
    # beyond its outputs (x and y, 5 B per draw for every state) the
    # sampler holds the tables and one chunk of uniforms: from 10^5 to 10^6
    # draws its peak above the outputs grows by less than half a byte per
    # draw, so a further 1 B per-draw array shows
    import tracemalloc

    if case == "pure_2d":
        state = make_state("sine_product", ks=[2, 3])
        phi, level = make_state("uniform", d=2), jittered_grid(64, d=2, C=2.0, seed=7)
    else:
        state = make_density([(0.3, make_state("sine_mode", k=2)),
                              (0.7, make_state("sine_mode", k=5))])
        phi, level = make_state("uniform"), jittered_grid(4096, C=2.0, seed=8)
    above = {}
    for count in (10 ** 5, 10 ** 6):
        tracemalloc.start()
        try:
            sample_xy(state, phi, level, count=count, seed=1)
            above[count] = tracemalloc.get_traced_memory()[1] - 5 * count
        finally:
            tracemalloc.stop()
    growth = (above[10 ** 6] - above[10 ** 5]) / (10 ** 6 - 10 ** 5)
    assert growth < 0.5, growth


def test_custom_grid_equals_a_per_bin_reference():
    # a hand-built bin list takes the product-grid path, one one-cell part
    # per bin; the reference integrates bin by bin.  phi's sine(3) against
    # psi's power law has no closed form, so axis 0 carries quadrature error.
    from spatialzeno import (CustomGrid, bar_norm_squared, bin_inner_product, bin_mass,
                             discretization_error, discretize, l2_distance, product_field)
    from spatialzeno.quadrature import DEFAULT_CONFIG

    base = jittered_grid(3, 2, C=2.0, seed=11)
    bins = [base.bin(j) for j in np.random.default_rng(4).permutation(base.num_bins)]
    level = CustomGrid(3, bins, ratio_bound=2.0)
    psi = superpose([
        (0.8, tensor_product([make_state("power_singular", alpha=0.3),
                              make_state("sine_mode", k=1)])),
        (0.6, tensor_product([make_state("sine_mode", k=2), make_state("sine_mode", k=2)]))])
    phi = tensor_product([make_state("sine_mode", k=3), make_state("sine_mode", k=2)])
    f = product_field(phi, psi)
    one = make_state("uniform", d=2)

    ref = [bin_inner_product(phi, psi, b) for b in bins]
    assert max(a.error for a in ref) > 0.0
    amps = np.array([a.value for a in ref])
    masses = np.array([bin_mass(psi, b) for b in bins])
    vols = np.array([b.volume for b in bins])
    averages = np.array([bin_inner_product(one, f, b).value for b in bins]) / vols
    # the discretization error on each bin's own tensor Gauss-Legendre nodes
    xi, wi = np.polynomial.legendre.leggauss(DEFAULT_CONFIG.points_per_axis_per_bin)
    err_sq = 0.0
    for b, avg in zip(bins, averages):
        nodes = [0.5 * (e.lo + e.hi) + 0.5 * e.length * xi for e in b.edges]
        w = np.multiply.outer(0.5 * b.edges[0].length * wi,
                              0.5 * b.edges[1].length * wi).ravel()
        pts = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=-1)
        err_sq += float(np.dot(w, np.abs(f.evaluate(pts) - avg) ** 2))

    r = prob_y1_pure(psi, phi, level, keep_per_bin=True)
    tol = 1e-13
    assert np.max(np.abs(r.per_bin_amplitude - amps)) <= tol * np.max(np.abs(amps))
    assert np.max(np.abs(r.per_bin_mass - masses)) <= tol * np.max(masses)
    assert r.mass_total == pytest.approx(masses.sum(), rel=tol, abs=0.0)
    assert r.p_y1 == pytest.approx(np.sum(np.abs(amps) ** 2), rel=tol, abs=0.0)
    assert r.p_y1_error_bound > 1e-15 * level.num_bins ** 0.5  # above the roundoff floor
    assert bar_norm_squared(psi, phi, level) == pytest.approx(
        np.sum(np.abs(amps) ** 2 / vols), rel=tol, abs=0.0)
    disc = discretize(f, level)
    assert np.max(np.abs(disc.averages - averages)) <= tol * np.max(np.abs(averages))
    assert discretization_error(f, level) == pytest.approx(np.sqrt(err_sq), rel=tol, abs=0.0)
    assert l2_distance(f, disc, level) == pytest.approx(np.sqrt(err_sq), rel=tol, abs=0.0)


def test_guided_inverse_cdf_falls_back_for_a_crowded_bucket(monkeypatch):
    # all mass in the last bin: bucket 0 holds the other 999 entries, so a
    # key below 1/1000 goes to the bisection of its bucket; every other key
    # is answered by its bucket alone
    from spatialzeno import measurement

    cdf = np.zeros(1000)
    cdf[-1] = 1.0
    u = np.array([0.0, 0.2, 5e-4, 0.999, 1e-3, np.nextafter(1e-3, 0.0)])
    searched = []
    bisect = measurement._bisect

    def search(c, keys, lo, hi):
        searched.append(keys.copy())
        return bisect(c, keys, lo, hi)

    monkeypatch.setattr(measurement, "_bisect", search)
    x = measurement._inverse_cdf(cdf, u)
    assert x.tolist() == np.searchsorted(cdf, u, side="right").tolist() == [999] * 6
    assert len(searched) == 1
    assert searched[0].tolist() == [0.0, 5e-4, np.nextafter(1e-3, 0.0)]
