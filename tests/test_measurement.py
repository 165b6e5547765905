"""Collapse, outcome probabilities, joint tables, and sampling."""

import numpy as np
import pytest
from scipy.integrate import fixed_quad

from spatialzeno import (
    Bin,
    Interval,
    ZeroMassBinError,
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

    from spatialzeno.states import Gaussian1D, PowerSingular1D, Sine1D

    def factor(f):
        if isinstance(f, PowerSingular1D):
            a = mpmath.mpf(f.alpha)
            return lambda x: mpmath.sqrt(1 - 2 * a) * x ** -a
        if isinstance(f, Sine1D):
            return lambda x: mpmath.sqrt(2) * mpmath.sin(f.k * mpmath.pi * x)
        assert isinstance(f, Gaussian1D)
        return lambda x: ((2 * mpmath.pi * mpmath.mpf(f.sigma) ** 2) ** mpmath.mpf(-0.25)
                          * mpmath.exp(-(x - mpmath.mpf(f.mu)) ** 2
                                       / (4 * mpmath.mpf(f.sigma) ** 2)))

    terms = [(mpmath.mpc(c), factor(f), f.support) for c, (f,) in psi.terms]
    return lambda x: mpmath.fsum(c * g(x) for c, g, (lo, hi) in terms if lo <= x < hi)


def test_region_integrals_of_numeric_pairs_against_mpmath():
    """Hull masses, inner products and the R^d captured mass of pairs
    without a closed form (power x sine(k) with k pi past the series
    limit, Gaussian x sine): the region is one numeric cell."""
    import mpmath

    from spatialzeno import ProductGrid
    from spatialzeno.analysis import _captured_mass

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
        for k in (1, 2):
            want = mpmath.quad(lambda x: abs(h(x)) ** 2, [-k, 0, 0.5, 1, k])
            assert _captured_mass(rd, k, 1) == pytest.approx(float(want), rel=1e-12, abs=0.0)


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


def test_sampler_zero_mass_bins_never_drawn():
    psi = make_state("indicator", a=0.0, b=0.5)
    phi = make_state("uniform")
    level = uniform_grid(4)
    batch = sample_xy(psi, phi, level, count=20_000, seed=3)
    assert batch.x.max() <= 1  # bins 2 and 3 carry no mass


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
    assert r.p_y1 == pytest.approx(1024.0 ** -2, rel=1e-12)


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


@pytest.mark.parametrize("case", ["power_sine_1d", "two_terms_2d"])
def test_error_bound_matches_mpmath_on_numeric_pairs(case):
    from spatialzeno.measurement import _error_bound
    from spatialzeno.quadrature import DEFAULT_CONFIG, _pair_data

    sine = lambda k: make_state("sine_mode", k=k)
    power = lambda a: make_state("power_singular", alpha=a)
    # k pi > _POWER_SERIES_WMAX for k >= 3, so power x sine(k) is numeric
    if case == "power_sine_1d":
        phi, psi = sine(3), power(0.3)
        level = jittered_grid(64, 1, C=2.0, seed=2)
    else:
        # axis pairs on both paths: sine x power is numeric, sine x sine closed
        phi = tensor_product([sine(3), sine(4)])
        psi = superpose([(0.7, tensor_product([power(0.3), sine(3)])),
                         (0.5j, tensor_product([sine(1), power(0.2)]))])
        level = jittered_grid(24, 2, C=2.0, seed=4)
    w, axes = _pair_data(phi, psi, level.breakpoints, DEFAULT_CONFIG)
    sq, extra = _axis_sums(w, axes)
    assert extra.any()
    got = _error_bound(w, sq, extra)
    assert got > 0.0
    assert got == pytest.approx(_mp_error_bound(phi, psi, level), rel=1e-12)


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
    assert batch.x.dtype == np.int64 and batch.y.dtype == np.int8
    assert batch.x[:5].tolist() == [117, 248, 38, 32, 62]
    assert int(batch.y.sum()) == 72
    assert _draws_digest(batch) == (
        "00d555f6319537cb13201139529129039bb10296a51fe6e028140c5d91e48c3a")


def test_sampler_draws_pinned_density_1d_jittered():
    rho = make_density([(0.3, make_state("sine_mode", k=2)),
                        (0.7, make_state("sine_mode", k=5))])
    batch = sample_xy(rho, make_state("uniform"),
                      jittered_grid(32, d=1, C=2.0, seed=12), count=20_000, seed=6)
    assert batch.x.dtype == np.int64 and batch.y.dtype == np.int8
    assert batch.x[:5].tolist() == [35, 13, 4, 12, 13]
    assert int(batch.y.sum()) == 442
    assert _draws_digest(batch) == (
        "b92e8451e890ba8e5160c7e0d440f2b0f56d0392f5df5b9437ca4b4fb6cfd153")


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
    assert r.mass_total == pytest.approx(masses.sum(), rel=tol)
    assert r.p_y1 == pytest.approx(np.sum(np.abs(amps) ** 2), rel=tol)
    assert r.p_y1_error_bound > 1e-15 * level.num_bins ** 0.5  # above the roundoff floor
    assert bar_norm_squared(psi, phi, level) == pytest.approx(
        np.sum(np.abs(amps) ** 2 / vols), rel=tol)
    disc = discretize(f, level)
    assert np.max(np.abs(disc.averages - averages)) <= tol * np.max(np.abs(averages))
    assert discretization_error(f, level) == pytest.approx(np.sqrt(err_sq), rel=tol)
    assert l2_distance(f, disc, level) == pytest.approx(np.sqrt(err_sq), rel=tol)
