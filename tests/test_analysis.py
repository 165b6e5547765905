"""Rate fitting, convergence studies, the Riemann-sum check, and R^d truncation."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from spatialzeno import analysis
from spatialzeno import (
    CubeBox,
    CubeBudgetExceededError,
    DegenerateWindowError,
    GridScheme,
    InsufficientSignalError,
    UnboundedStateError,
    convergence_study,
    fit_rate,
    make_density,
    make_state,
    prob_y1_pure,
    rd_study,
    riemann_limit_check,
    superpose,
    tensor_product,
)

UNIFORM = GridScheme("uniform", d=1)
JITTERED = GridScheme("jittered", d=1, ratio_bound=2.0, seed=21)


def test_fit_rate_exact_inverse_law():
    rows = [(n, 1.0 / n) for n in (2, 4, 8, 16, 32)]
    rate, const, resid = fit_rate(rows)
    assert rate == pytest.approx(1.0, abs=1e-12)
    assert const == pytest.approx(1.0, abs=1e-12)
    assert resid < 1e-12


def test_fit_rate_synthetic_quadratic():
    c = 3.7
    rows = [(n, c / n ** 2) for n in (3, 9, 27, 81)]
    rate, const, resid = fit_rate(rows)
    assert rate == pytest.approx(2.0, abs=1e-12)
    assert const == pytest.approx(c, rel=1e-12)


def test_fit_rate_excludes_zero_rows_with_warning():
    rows = [(2, 0.5), (4, 0.25), (8, 0.125), (16, 0.0)]
    with pytest.warns(UserWarning):
        rate, _, _ = fit_rate(rows)
    assert rate == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_degenerate_window():
    with pytest.raises(DegenerateWindowError):
        fit_rate([(2, 0.5), (4, 0.25)])
    with pytest.raises(DegenerateWindowError):
        fit_rate([(n, 1.0 / n) for n in (2, 4, 8, 16)], window=(3, 9))


def test_convergence_study_uniform_pair():
    u = make_state("uniform")
    rec = convergence_study(u, u, UNIFORM, [2 ** k for k in range(1, 11)])
    assert rec.fitted_rate == pytest.approx(1.0, abs=1e-6)
    assert rec.fitted_constant == pytest.approx(1.0, abs=1e-6)
    ns = rec.column("n")
    assert np.all(np.diff(ns) > 0)


def test_convergence_study_validates_n_list():
    u = make_state("uniform")
    with pytest.raises(ValueError):
        convergence_study(u, u, UNIFORM, [2, 4])
    with pytest.raises(ValueError):
        convergence_study(u, u, UNIFORM, [4, 2, 8])


def test_convergence_study_2d_sine_rate():
    psi = tensor_product([make_state("sine_mode", k=1), make_state("sine_mode", k=1)])
    rec = convergence_study(psi, psi, GridScheme("uniform", d=2),
                            [4, 8, 16, 32, 64])
    assert rec.fitted_rate == pytest.approx(2.0, abs=0.05)


def test_convergence_study_singular_state_rate():
    psi = make_state("power_singular", alpha=0.25)
    phi = make_state("uniform")
    rec = convergence_study(psi, phi, UNIFORM, [4, 16, 64, 256, 1024, 4096])
    ps = rec.column("p_y1")
    assert np.all(np.diff(ps) < 0)
    assert rec.fitted_rate == pytest.approx(1.0, abs=0.1)


def test_convergence_study_mixed_equals_weighted_pure():
    s1 = make_state("sine_mode", k=1)
    s2 = make_state("sine_mode", k=2)
    rho = make_density([(0.5, s1), (0.5, s2)])
    phi = make_state("uniform")
    rec = convergence_study(rho, phi, UNIFORM, [4, 8, 16])
    for row in rec.rows:
        level = UNIFORM.level(row.n)
        expected = 0.5 * prob_y1_pure(s1, phi, level).p_y1 \
            + 0.5 * prob_y1_pure(s2, phi, level).p_y1
        assert row.p_y1 == pytest.approx(expected, abs=1e-12)


def test_convergence_study_pure_density_matches_wavefunction():
    psi = make_state("sine_mode", k=1)
    phi = make_state("uniform")
    rho = make_density([(1.0, psi)])
    rec_wf = convergence_study(psi, phi, UNIFORM, [4, 8, 16])
    rec_rho = convergence_study(rho, phi, UNIFORM, [4, 8, 16])
    for a, b in zip(rec_wf.rows, rec_rho.rows):
        assert a.p_y1 == pytest.approx(b.p_y1, abs=1e-12)


def test_decline_to_zero_quantified():
    pairs = [
        (make_state("uniform"), make_state("uniform")),
        (make_state("sine_mode", k=1), make_state("sine_mode", k=1)),
        (make_state("haar_like", seed=3), make_state("uniform")),
    ]
    for psi, phi in pairs:
        for scheme in (UNIFORM, JITTERED):
            p_lo = prob_y1_pure(psi, phi, scheme.level(4)).p_y1
            p_hi = prob_y1_pure(psi, phi, scheme.level(400)).p_y1
            assert p_hi < p_lo / 10.0


def test_insufficient_signal():
    psi = make_state("indicator", a=0.0, b=0.4)
    phi = make_state("indicator", a=0.6, b=0.9)
    with pytest.raises(InsufficientSignalError):
        convergence_study(psi, phi, UNIFORM, [5, 10, 20])


def test_riemann_check_uniform_pair_exact():
    u = make_state("uniform")
    rc = riemann_limit_check(u, u, UNIFORM, [4, 16, 64])
    assert rc.limit_estimate == pytest.approx(1.0, abs=1e-12)
    assert rc.reference == pytest.approx(1.0, abs=1e-12)


def test_riemann_check_sine_reference_three_halves():
    s = make_state("sine_mode", k=1)
    rc = riemann_limit_check(s, s, UNIFORM, [64, 256, 512])
    assert rc.reference == pytest.approx(1.5, abs=1e-9)
    assert rc.rel_error < 0.01


def test_riemann_check_rejects_unbounded():
    p = make_state("power_singular", alpha=0.25)
    with pytest.raises(UnboundedStateError):
        riemann_limit_check(make_state("uniform"), p, UNIFORM, [4, 8, 16])


def test_riemann_jittered_sandwich():
    s = make_state("sine_mode", k=1)
    rc = riemann_limit_check(s, s, JITTERED, [4, 8, 16, 64, 256])
    C = JITTERED.ratio_bound
    for n, scaled, bar in rc.rows:
        assert bar / C - 1e-9 <= scaled <= bar + 1e-9


@pytest.mark.parametrize("n_list, message", [
    ([64, 8, 8], "strictly increasing"),
    ([], "at least 1"),
])
def test_riemann_check_checks_n_list_before_any_pass(n_list, message, monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran before n_list was checked")

    monkeypatch.setattr(analysis, "_study_rows", no_pass)
    monkeypatch.setattr(analysis, "_region_integral", no_pass)
    s = make_state("sine_mode", k=1)
    with pytest.raises(ValueError, match=message):
        riemann_limit_check(s, s, UNIFORM, n_list)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_riemann_reference_is_closed_form_at_high_d(d):
    # the integral of (2 sin^2)^2 is 3/2 on every axis
    s = make_state("sine_product", ks=[1] * d)
    tracemalloc.start()
    try:
        rc = riemann_limit_check(s, s, GridScheme("uniform", d=d), [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(rc.reference - 1.5 ** d) <= 1e-14 * 1.5 ** d
    assert peak < 5e6


def test_riemann_reference_of_haar_pieces_is_one_numeric_cell():
    from spatialzeno.states import PairFactor, exact_cell_integrals

    h = make_state("haar_like", seed=5)
    ((_, (prim,)),) = h.terms
    pair = PairFactor(prim, prim)
    assert exact_cell_integrals(pair, pair, np.array([0.0, 1.0])) is None
    values = np.abs(np.array(prim.values))
    rc = riemann_limit_check(h, h, UNIFORM, [8, 16])
    assert rc.reference == pytest.approx(np.sum(values ** 4) / values.size, abs=1e-13)


def test_rd_study_gaussian_cube_span():
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    _, tail = rd_study(g, g, UNIFORM, [4, 8, 16], mass_target=1 - 1e-6)
    corners = sorted(c[0] for c in tail.cubes)
    assert corners[0] == -5.0 and corners[-1] == 4.0  # spans [-5, 5)
    assert len(tail.cubes) == 10
    assert tail.tail_bound <= 1e-6


def test_rd_study_gaussian_rate_and_tail():
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    rec, tail = rd_study(g, g, UNIFORM, [4, 8, 16, 32, 64, 128, 256],
                         mass_target=1 - 1e-8)
    assert tail.tail_bound <= 1e-8
    assert rec.fitted_rate == pytest.approx(1.0, abs=0.05)
    ps = rec.column("p_y1")
    assert np.all(np.diff(ps) < 0)
    for row in rec.rows:
        assert row.error_bound >= tail.tail_bound


def test_rd_study_rows_match_erf_oracle():
    # per-bin amplitudes of the standard-normal density via erf directly
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    rec, tail = rd_study(g, g, UNIFORM, [4, 8, 16], mass_target=1 - 1e-8)
    k = int(-min(c[0] for c in tail.cubes))
    for row in rec.rows:
        edges = np.linspace(-k, k, 2 * k * row.n + 1)
        masses = 0.5 * np.diff(erf(edges / np.sqrt(2.0)))
        oracle = float(np.sum(masses ** 2))
        assert row.p_y1 == pytest.approx(oracle, abs=1e-12)


def test_rd_study_compact_state_equals_unit_cube_study():
    psi = make_state("sine_mode", k=1).as_euclidean()
    phi = make_state("uniform").as_euclidean()
    rec, tail = rd_study(psi, phi, UNIFORM, [4, 8, 16], mass_target=0.999)
    assert tail.tail_bound == pytest.approx(0.0, abs=1e-12)
    for row in rec.rows:
        level = UNIFORM.level(row.n)
        ref = prob_y1_pure(make_state("sine_mode", k=1), make_state("uniform"),
                           level).p_y1
        assert row.p_y1 == pytest.approx(ref, abs=1e-12)


def test_rd_study_truncation_soundness():
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    rec_a, tail_a = rd_study(g, g, UNIFORM, [4, 8, 16], mass_target=0.9999)
    rec_b, _ = rd_study(g, g, UNIFORM, [4, 8, 16], mass_target=1 - 1e-10)
    assert tail_a.tail_bound > 0.0
    for ra, rb in zip(rec_a.rows, rec_b.rows):
        assert abs(ra.p_y1 - rb.p_y1) <= tail_a.tail_bound + 1e-14


def test_rd_study_cube_budget():
    g = make_state("gaussian", mu=0.0, sigma=50.0)
    with pytest.raises(CubeBudgetExceededError):
        rd_study(g, g, UNIFORM, [4, 8, 16], mass_target=1 - 1e-10, max_cubes=8)


@pytest.mark.parametrize("n_list, message", [
    ([8, 4, 16], "strictly increasing"),
    ([4, 4, 8, 16], "strictly increasing"),
    ([4, 8], "at least 3"),
])
def test_rd_study_checks_n_list_before_any_pass(n_list, message, monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran before n_list was checked")

    monkeypatch.setattr(analysis, "_mass_pass", no_pass)
    monkeypatch.setattr(analysis, "_study_rows", no_pass)
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    with pytest.raises(ValueError, match=message):
        rd_study(g, g, UNIFORM, n_list, mass_target=1 - 1e-6)


def test_rd_study_reads_one_captured_mass_per_k_when_phi_is_psi(monkeypatch):
    calls, mass_pass = [], analysis._mass_pass

    def counted(*args, **kwargs):
        calls.append(args[0])
        return mass_pass(*args, **kwargs)

    monkeypatch.setattr(analysis, "_mass_pass", counted)
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    # the same object, and an equal state built apart (as the CLI builds phi)
    for phi in (g, make_state("gaussian", mu=0.0, sigma=1.0)):
        calls.clear()
        _, tail = rd_study(g, phi, UNIFORM, [4, 8, 16], mass_target=1 - 1e-6)
        k = int(-min(c[0] for c in tail.cubes))
        assert calls == [g] * k


def test_rd_study_searches_the_captured_mass_with_its_cfg():
    """A pair without a closed form (a Gaussian plus a power law read on R):
    the captured mass and its tail come from the caller's config, as the
    rows do."""
    from spatialzeno import ProductGrid, QuadratureConfig
    from spatialzeno.quadrature import DEFAULT_CONFIG

    psi = superpose([(0.8, make_state("gaussian", mu=0.2, sigma=0.8)),
                     (0.6, make_state("power_singular", alpha=0.3).as_euclidean())])
    cfg = QuadratureConfig(points_per_axis_per_bin=4, abs_tol=1e-4, rel_tol=1e-4)
    _, tail = rd_study(psi, psi, UNIFORM, [4, 8, 16], 1 - 1e-6, cfg)
    k = int(-min(c[0] for c in tail.cubes))
    # the mass inside [-k, k), read as one cell
    box = ProductGrid(1, [np.array([-k, k], dtype=float)])
    mass = lambda c: prob_y1_pure(psi, psi, box, c, keep_per_bin=False).mass_total
    want = mass(cfg)
    assert want != mass(DEFAULT_CONFIG)
    assert tail.captured_mass == want
    assert tail.tail_bound == pytest.approx(1.0 - want, rel=1e-9)


def test_rd_study_rejects_a_state_of_another_dimension(monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("a captured mass was computed")

    monkeypatch.setattr(analysis, "_mass_pass", no_pass)
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    with pytest.raises(ValueError, match="state dimension does not match the grid"):
        rd_study(g, g, GridScheme("uniform", d=2), [4, 8, 16], mass_target=1 - 1e-6)


def test_rd_study_holds_its_box_and_never_reads_corners(monkeypatch):
    from spatialzeno import grids

    def no_detection(*args, **kwargs):
        raise AssertionError("the box was re-detected from a corner list")

    monkeypatch.setattr(grids, "_lattice_box", no_detection)
    for sub in ("uniform", "jittered"):
        scheme = GridScheme(sub, d=2, ratio_bound=2.0, seed=3)
        g = make_state("gaussian", mu=[0.2, -0.1], sigma=[0.7, 1.2])
        rec, tail = rd_study(g, g, scheme, [2, 4, 8], mass_target=1 - 1e-8)
        k = int(-tail.cubes[0][0])
        assert tail.cubes == CubeBox((k, k)) and rec.scheme["num_cubes"] == (2 * k) ** 2
        assert len(rec.rows) == 3


def test_rd_study_3d_sigma4_box_is_small_and_equals_the_explicit_list():
    g = make_state("gaussian", mu=[0.0] * 3, sigma=[4.0] * 3)
    scheme = GridScheme("uniform", d=3)
    args = (g, g, scheme, [2, 4, 8], 1 - 1e-8)
    rd_study(*args, max_cubes=200000)  # lazy imports and caches, outside the trace
    tracemalloc.start()
    try:
        rec, tail = rd_study(*args, max_cubes=200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tail.cubes) == 110592
    assert peak < 1e6
    listed = analysis._study_rows(g, g, scheme.with_cubes(list(tail.cubes)), [2, 4, 8],
                                  analysis.DEFAULT_CONFIG, tail.tail_bound)
    assert len(rec.rows) == len(listed) == 3
    for a, b in zip(rec.rows, listed):
        assert (a.n, a.num_bins, a.p_y1, a.error_bound, a.bar_norm_sq) == (
            b.n, b.num_bins, b.p_y1, b.error_bound, b.bar_norm_sq)


def test_rd_study_rejects_unit_cube_domain():
    s = make_state("sine_mode", k=1)
    with pytest.raises(ValueError):
        rd_study(s, s, UNIFORM, [4, 8, 16], mass_target=0.9)


def test_jittered_sandwich_property_for_all_rows():
    psi = superpose([(0.8, make_state("sine_mode", k=1)),
                     (0.6, make_state("sine_mode", k=3))])
    phi = make_state("uniform")
    rec = convergence_study(psi, phi, JITTERED, [4, 8, 16, 32, 64])
    d = 1
    C = JITTERED.ratio_bound
    for row in rec.rows:
        scaled = row.n ** d * row.p_y1
        assert row.bar_norm_sq / C ** d - 1e-9 <= scaled <= row.bar_norm_sq + 1e-9


def test_box_captured_mass_matches_per_cube_sum():
    from spatialzeno import Bin, Interval, bin_inner_product
    from spatialzeno.analysis import _captured_masses
    from spatialzeno.quadrature import DEFAULT_CONFIG

    g = make_state("gaussian", mu=[0.4, -0.3], sigma=[0.9, 1.3])
    rho = make_density([(0.7, make_state("gaussian", mu=[-2.2, 0.2], sigma=[0.4, 0.4])),
                        (0.3, make_state("gaussian", mu=[2.8, -0.1], sigma=[0.4, 0.4]))])
    for state in (g, rho):
        terms = rho.terms if state is rho else ((1.0, g),)
        for k in (1, 2, 4):
            per_cube = 0.0
            for w, wf in terms:
                for corner in CubeBox((k, k)):
                    cube = Bin(tuple(Interval(a, a + 1.0) for a in corner))
                    per_cube += w * float(np.real(bin_inner_product(wf, wf, cube).value))
            (got,) = _captured_masses((state,), k, 2, DEFAULT_CONFIG)
            assert got == pytest.approx(per_cube, abs=1e-14)
