"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Expected values marked as derived are computed from
independent oracles (closed-form antiderivatives or high-order
quadrature written out here), never from the code paths under test.
"""

import time

import numpy as np
import pytest
from scipy.integrate import fixed_quad
from scipy.special import erf

from spatialzeno import (
    GridScheme,
    convergence_study,
    discretization_error,
    joint_distribution,
    jittered_grid,
    make_density,
    make_state,
    norm_identity_check,
    prob_y1_mixed,
    prob_y1_pure,
    rd_study,
    riemann_limit_check,
    sample_xy,
    superpose,
    tensor_product,
    uniform_grid,
)

UNIFORM = GridScheme("uniform", d=1)
JITTERED = GridScheme("jittered", d=1, ratio_bound=2.0, seed=2024)


def _report(k: int, text: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {text}")


def mix_state():
    return superpose([(0.8, make_state("sine_mode", k=1)),
                      (0.6j, make_state("sine_mode", k=2))])


def ten_pairs():
    return [
        ("uniform/uniform", make_state("uniform"), make_state("uniform")),
        ("sine1/sine1", make_state("sine_mode", k=1), make_state("sine_mode", k=1)),
        ("sine1/uniform", make_state("sine_mode", k=1), make_state("uniform")),
        ("sine2/sine2", make_state("sine_mode", k=2), make_state("sine_mode", k=2)),
        ("sine3/sine3", make_state("sine_mode", k=3), make_state("sine_mode", k=3)),
        ("cexp1/cexp1", make_state("complex_exponential", k=1),
         make_state("complex_exponential", k=1)),
        ("cexp2/cexp1", make_state("complex_exponential", k=2),
         make_state("complex_exponential", k=1)),
        ("indicator/uniform", make_state("indicator", a=0.0, b=0.5),
         make_state("uniform")),
        ("power(-1/4)/uniform", make_state("power_singular", alpha=0.25),
         make_state("uniform")),
        ("mix/mix", mix_state(), mix_state()),
    ]


def oracle_p(psi, phi, level) -> float:
    """sum_j |integral of conj(phi) psi over B_j|^2 by independent quadrature."""
    total = 0.0
    for b in level.bins():
        a, bb = b.edges[0].lo, b.edges[0].hi
        re = fixed_quad(lambda x: np.real(np.conj(phi.evaluate(x)) * psi.evaluate(x)),
                        a, bb, n=60)[0]
        im = fixed_quad(lambda x: np.imag(np.conj(phi.evaluate(x)) * psi.evaluate(x)),
                        a, bb, n=60)[0]
        total += re ** 2 + im ** 2
    return total


def oracle_p_power(alpha: float, level) -> float:
    """closed-form antiderivative oracle for psi = c x^(-alpha), phi = 1."""
    c = np.sqrt(1.0 - 2.0 * alpha)
    p = 1.0 - alpha
    total = 0.0
    for b in level.bins():
        a, bb = b.edges[0].lo, b.edges[0].hi
        total += (c * (bb ** p - a ** p) / p) ** 2
    return total


def test_criterion_1_exact_uniform_case():
    psi = make_state("uniform")
    phi = make_state("uniform")
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 1025):
        r = prob_y1_pure(psi, phi, uniform_grid(n), keep_per_bin=False)
        worst = max(worst, abs(r.p_y1 - 1.0 / n))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(1, f"p_y1 = 1/n to {worst:.2e} for n in 1..1024 in {elapsed:.2f}s")


def test_criterion_2_decay_factor_100_for_ten_pairs():
    results = []
    for name, psi, phi in ten_pairs():
        # oracle cross-check of the computed probabilities at n=4
        lvl4 = uniform_grid(4)
        p4_lib = prob_y1_pure(psi, phi, lvl4).p_y1
        if name.startswith("power"):
            assert p4_lib == pytest.approx(oracle_p_power(0.25, lvl4), abs=1e-12)
        else:
            assert p4_lib == pytest.approx(oracle_p(psi, phi, lvl4), abs=1e-9)
        for scheme in (UNIFORM, JITTERED):
            p4 = prob_y1_pure(psi, phi, scheme.level(4)).p_y1
            p1024 = prob_y1_pure(psi, phi, scheme.level(1024)).p_y1
            ratio = p4 / p1024
            assert ratio >= 100.0, (name, scheme.kind, ratio)
            results.append(ratio)
    _report(2, f"20 pair/scheme decays, ratio p(4)/p(1024) in "
               f"[{min(results):.0f}, {max(results):.0f}] (need >= 100)")


def test_criterion_3_riemann_sum_rate():
    pairs = [
        (make_state("uniform"), make_state("uniform"), 1.0),
        (make_state("sine_mode", k=1), make_state("sine_mode", k=1), 1.5),
        (make_state("sine_mode", k=2), make_state("sine_mode", k=1), None),
        (make_state("complex_exponential", k=1),
         make_state("complex_exponential", k=1), 1.0),
        (make_state("indicator", a=0.0, b=0.5), make_state("uniform"), 1.0),
        (make_state("haar_like", seed=7), make_state("uniform"), 1.0),
        (mix_state(), mix_state(), None),
    ]
    worst = 0.0
    for psi, phi, known_ref in pairs:
        rc = riemann_limit_check(phi, psi, UNIFORM, [128, 256, 512])
        if known_ref is not None:
            assert rc.reference == pytest.approx(known_ref, abs=1e-9)
        assert rc.rel_error < 0.02, (psi.label, phi.label, rc.rel_error)
        worst = max(worst, rc.rel_error)
    # the sine pair reference is exactly 3/2 (integral of 4 sin^4 = 3/2)
    s = make_state("sine_mode", k=1)
    rc = riemann_limit_check(s, s, UNIFORM, [512])
    assert abs(rc.limit_estimate - 1.5) / 1.5 < 0.01
    _report(3, f"|n p - ref|/ref at n=512 worst {worst:.2e} over 7 bounded pairs "
               "(need < 0.02); sine reference 3/2")


def test_criterion_4_dimension_scaling():
    t0 = time.perf_counter()
    cases = [
        (1, make_state("sine_mode", k=1), [4, 8, 16, 32, 64, 128, 256]),
        (2, tensor_product([make_state("sine_mode", k=1)] * 2),
         [4, 8, 16, 32, 64, 128, 256]),
        (3, tensor_product([make_state("sine_mode", k=1)] * 3),
         [4, 8, 16, 32, 64]),
    ]
    rates = []
    for d, psi, n_list in cases:
        # oracle: 1-d per-axis probability, cubed by separability
        s = make_state("sine_mode", k=1)
        for n in (n_list[0], n_list[-1]):
            lib = prob_y1_pure(psi, psi, uniform_grid(n, d)).p_y1
            oracle_1d = oracle_p(s, s, uniform_grid(n))
            assert lib == pytest.approx(oracle_1d ** d, rel=1e-9, abs=0.0)
        rec = convergence_study(psi, psi, GridScheme("uniform", d=d), n_list)
        assert abs(rec.fitted_rate - d) <= 0.1, (d, rec.fitted_rate)
        rates.append(rec.fitted_rate)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(4, f"fitted rates {[f'{r:.3f}' for r in rates]} for d=1,2,3 "
               f"(need d +- 0.1) in {elapsed:.1f}s")


def test_criterion_5_norm_identity_50_combinations():
    rng = np.random.default_rng(99)
    states = [
        make_state("uniform"),
        make_state("sine_mode", k=1),
        make_state("sine_mode", k=2),
        make_state("sine_mode", k=4),
        make_state("complex_exponential", k=1),
        make_state("complex_exponential", k=3),
        make_state("indicator", a=0.125, b=0.875),
        make_state("haar_like", seed=13),
        mix_state(),
    ]
    worst = 0.0
    for _ in range(50):
        phi, psi = rng.choice(states, size=2, replace=True)
        n = int(rng.integers(1, 65))
        if rng.random() < 0.5:
            level = uniform_grid(n)
        else:
            level = jittered_grid(n, 1, C=2.0, seed=int(rng.integers(10_000)))
        lhs, rhs = norm_identity_check(phi, psi, level)
        gap = abs(lhs - rhs)
        assert gap < 1e-9, (phi.label, psi.label, n, gap)
        worst = max(worst, gap)
    _report(5, f"|lhs - rhs| of the norm identity worst {worst:.2e} "
               "over 50 combos (need < 1e-9)")


def test_criterion_6_bar_chart_l2_convergence():
    f = lambda x: x
    worst = 0.0
    for n in range(2, 513):
        err = discretization_error(f, uniform_grid(n))
        gap = abs(err - 1.0 / (np.sqrt(12.0) * n))
        worst = max(worst, gap)
    assert worst <= 1e-10
    shrink = []
    for g in (make_state("sine_mode", k=1), make_state("sine_mode", k=2),
              make_state("sine_mode", k=3), make_state("complex_exponential", k=1),
              make_state("complex_exponential", k=2)):
        e2 = discretization_error(g, uniform_grid(2))
        e512 = discretization_error(g, uniform_grid(512))
        assert e512 < 0.02 * e2, g.label
        shrink.append(e512 / e2)
    _report(6, f"|err - 1/(sqrt(12) n)| worst {worst:.2e} for n in 2..512; "
               f"catalog error shrink factors max {max(shrink):.2e} (need < 0.02)")


def test_criterion_7_mixed_state_path():
    weights = [0.3, 0.25, 0.2, 0.15, 0.1]
    pures = [make_state("sine_mode", k=k) for k in range(1, 6)]
    rho = make_density(list(zip(weights, pures)))
    phi = make_state("uniform")
    worst = 0.0
    for level in (uniform_grid(4), uniform_grid(37),
                  jittered_grid(16, 1, C=2.0, seed=5)):
        mixed = prob_y1_mixed(rho, phi, level).p_y1
        manual = sum(w * prob_y1_pure(s, phi, level).p_y1
                     for w, s in zip(weights, pures))
        worst = max(worst, abs(mixed - manual))
        assert abs(mixed - manual) <= 1e-12
    ratios = []
    for scheme in (UNIFORM, JITTERED):
        p4 = prob_y1_mixed(rho, phi, scheme.level(4)).p_y1
        p1024 = prob_y1_mixed(rho, phi, scheme.level(1024)).p_y1
        assert p4 / p1024 >= 100.0
        ratios.append(p4 / p1024)
    _report(7, f"5-term density = weighted pure sum to {worst:.2e} (need 1e-12); "
               f"decay ratios {[f'{r:.0f}' for r in ratios]} (need >= 100)")


def test_criterion_8_rd_gaussian_study():
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    rec, tail = rd_study(g, g, UNIFORM, [4, 8, 16, 32, 64, 128, 256],
                         mass_target=1 - 1e-8)
    assert tail.tail_bound <= 1e-8  # ||phi||^2 = 1
    ps = rec.column("p_y1")
    assert np.all(np.diff(ps) < 0.0)
    assert abs(rec.fitted_rate - 1.0) <= 0.05
    for row in rec.rows:
        assert row.error_bound >= tail.tail_bound
    # erf-based independent oracle for every row
    k = int(-min(c[0] for c in tail.cubes))
    for row in rec.rows:
        edges = np.linspace(-k, k, 2 * k * row.n + 1)
        masses = 0.5 * np.diff(erf(edges / np.sqrt(2.0)))
        assert row.p_y1 == pytest.approx(float(np.sum(masses ** 2)), abs=1e-12)
    _report(8, f"gaussian R^1 study: rate {rec.fitted_rate:.4f} (need 1 +- 0.05), "
               f"tail bound {tail.tail_bound:.2e} (need <= 1e-8), rows decreasing")


def test_criterion_9_sampler_consistency():
    psi = make_state("sine_mode", k=1)
    level = uniform_grid(16)
    count = 100_000
    jd = joint_distribution(psi, psi, level)
    batch = sample_xy(psi, psi, level, count=count, seed=31415)
    again = sample_xy(psi, psi, level, count=count, seed=31415)
    assert batch.x.tobytes() == again.x.tobytes()
    assert batch.y.tobytes() == again.y.tobytes()
    p = jd.p_y1
    sigma = np.sqrt(p * (1 - p) / count)
    emp = float(batch.y.mean())
    assert abs(emp - p) < 4 * sigma
    worst_pull = abs(emp - p) / sigma
    for j in range(level.num_bins):
        q = jd.marginal_x[j]
        s = np.sqrt(q * (1 - q) / count)
        pull = abs(float(np.mean(batch.x == j)) - q) / s
        worst_pull = max(worst_pull, pull)
        assert pull < 4.0
    _report(9, f"10^5 samples at n=16: worst deviation {worst_pull:.2f} sigma "
               "(need < 4); fixed seed reproduces byte-identical draws")


def test_criterion_10_resolution_of_identity():
    states = [
        make_state("uniform"),
        make_state("sine_mode", k=1),
        make_state("sine_mode", k=4),
        make_state("complex_exponential", k=2),
        make_state("indicator", a=0.2, b=0.8),
        make_state("power_singular", alpha=0.25),
        make_state("haar_like", seed=21),
        mix_state(),
    ]
    levels = [uniform_grid(n) for n in (1, 2, 3, 7, 16, 101, 256, 1024)]
    levels += [jittered_grid(n, 1, C=2.0, seed=n) for n in (2, 5, 16, 128, 1024)]
    levels += [jittered_grid(9, 1, C=1.5, seed=3)]
    worst = 0.0
    checks = 0
    # the per-bin masses themselves are summed: with keep_per_bin=False,
    # mass_total is a hull integral that never looks at the bins
    for psi in states:
        for level in levels:
            total = float(np.sum(prob_y1_pure(psi, psi, level,
                                              keep_per_bin=True).per_bin_mass))
            gap = abs(total - 1.0)
            assert gap <= 1e-8, (psi.label, level.n, total)
            worst = max(worst, gap)
            checks += 1
    # gaussian on a truncated R grid captures all mass up to the tail
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    scheme = UNIFORM.with_cubes([(float(a),) for a in range(-7, 7)])
    total = float(np.sum(prob_y1_pure(g, g, scheme.level(16),
                                      keep_per_bin=True).per_bin_mass))
    assert abs(total - 1.0) <= 1e-8
    worst = max(worst, abs(total - 1.0))
    _report(10, f"sum of bin masses = 1 within {worst:.2e} over {checks + 1} "
                "state/grid combinations (need <= 1e-8)")
