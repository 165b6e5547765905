"""Bar-chart discretization and the norm identity behind it."""

import numpy as np
import pytest

from spatialzeno import (
    bar_norm_squared,
    discretization_error,
    discretize,
    jittered_grid,
    l2_distance,
    make_state,
    norm_identity_check,
    product_field,
    prob_y1_pure,
    superpose,
    uniform_grid,
)


def test_linear_function_averages():
    disc = discretize(lambda x: x, uniform_grid(2))
    assert np.allclose(disc.averages, [0.25, 0.75])


def test_constant_is_fixed_point():
    u = make_state("uniform")
    for level in (uniform_grid(3), jittered_grid(5, 1, C=2.0, seed=2)):
        disc = discretize(u, level)
        assert np.allclose(disc.averages, 1.0, atol=1e-13)


def test_sine_halves_average():
    disc = discretize(make_state("sine_mode", k=1), uniform_grid(2))
    expected = 2.0 * np.sqrt(2.0) / np.pi
    assert np.allclose(disc.averages, expected)
    assert disc.averages[0] == pytest.approx(0.9003163162, abs=1e-9)


def test_evaluation_is_piecewise_constant():
    disc = discretize(make_state("sine_mode", k=1), uniform_grid(4))
    x = np.array([0.05, 0.2, 0.3, 0.6, 0.95])
    idx = uniform_grid(4).locate_many(x)
    assert np.allclose(disc.evaluate(x), disc.averages[idx])


def test_discretization_error_linear_closed_form():
    for n in (2, 8, 64, 512):
        err = discretization_error(lambda x: x, uniform_grid(n))
        assert err == pytest.approx(1.0 / (np.sqrt(12.0) * n), abs=1e-12)


def test_discretization_error_constant_zero():
    assert discretization_error(make_state("uniform"), uniform_grid(7)) == \
        pytest.approx(0.0, abs=1e-13)


def test_error_halves_when_n_doubles():
    f = lambda x: x
    e2 = discretization_error(f, uniform_grid(2))
    e4 = discretization_error(f, uniform_grid(4))
    assert e4 <= 0.75 * e2
    assert e4 == pytest.approx(0.5 * e2, rel=1e-10, abs=0.0)


def test_idempotence():
    level = uniform_grid(8)
    disc = discretize(make_state("sine_mode", k=2), level)
    disc2 = discretize(disc, level)
    assert np.max(np.abs(disc2.averages - disc.averages)) < 1e-12


def test_sup_norm_contraction():
    cases = [
        (make_state("sine_mode", k=1), np.sqrt(2.0)),
        (make_state("sine_mode", k=4), np.sqrt(2.0)),
        (make_state("complex_exponential", k=3), 1.0),
        (lambda x: x, 1.0),
    ]
    for f, sup in cases:
        for level in (uniform_grid(3), uniform_grid(16),
                      jittered_grid(6, 1, C=2.0, seed=1)):
            disc = discretize(f, level)
            assert np.max(np.abs(disc.averages)) <= sup + 1e-12


def test_error_monotone_along_dyadic_refinement():
    for f in (make_state("sine_mode", k=1), make_state("sine_mode", k=3),
              make_state("complex_exponential", k=2)):
        errors = [discretization_error(f, uniform_grid(n))
                  for n in (2, 4, 8, 16, 32, 64)]
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-10


def test_bar_chart_l2_error_via_distance_helper():
    f = lambda x: x
    level = uniform_grid(2)
    disc = discretize(f, level)
    d = l2_distance(f, disc, level)
    assert d == pytest.approx(1.0 / np.sqrt(48.0), abs=1e-12)
    assert d == pytest.approx(0.144337567, abs=1e-9)


def test_norm_identity_uniform_pair():
    u = make_state("uniform")
    for n in (1, 2, 5, 16):
        lhs, rhs = norm_identity_check(u, u, uniform_grid(n))
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)


def test_norm_identity_sine_n4_value():
    s = make_state("sine_mode", k=1)
    lhs, rhs = norm_identity_check(s, s, uniform_grid(4))
    # 4 * sum of squared amplitudes = 1 + 4/pi^2
    assert rhs == pytest.approx(1.0 + 4.0 * np.pi ** -2, abs=1e-12)
    assert abs(lhs - rhs) < 1e-9


def test_norm_identity_random_pairs():
    rng = np.random.default_rng(17)
    states = [
        make_state("uniform"),
        make_state("sine_mode", k=1),
        make_state("sine_mode", k=3),
        make_state("complex_exponential", k=2),
        make_state("indicator", a=0.25, b=0.75),
        make_state("haar_like", seed=6),
        superpose([(0.8, make_state("sine_mode", k=1)),
                   (0.6, make_state("complex_exponential", k=1))]),
    ]
    for _ in range(25):
        phi, psi = rng.choice(states, size=2, replace=True)
        n = int(rng.integers(1, 40))
        level = uniform_grid(n) if rng.random() < 0.5 else \
            jittered_grid(n, 1, C=2.0, seed=int(rng.integers(1000)))
        lhs, rhs = norm_identity_check(phi, psi, level)
        assert abs(lhs - rhs) < 1e-9, (phi.label, psi.label, n)


def test_scaled_probability_bounded_by_identity_rhs():
    psi = make_state("sine_mode", k=1)
    phi = make_state("uniform")
    for n in (2, 8, 32):
        level = uniform_grid(n)
        p = prob_y1_pure(psi, phi, level).p_y1
        rhs = bar_norm_squared(psi, phi, level)
        assert p <= rhs / n ** level.d + 1e-12


def test_scaled_probability_converges_to_product_norm():
    # n * P(Y=1) approaches the squared L2 norm of conj(phi)*psi
    psi = make_state("sine_mode", k=1)
    phi = make_state("sine_mode", k=2)
    f = product_field(phi, psi)
    from spatialzeno import l2_norm

    ref = l2_norm(f, uniform_grid(64)) ** 2
    gaps = []
    for n in (16, 64, 256):
        p = prob_y1_pure(psi, phi, uniform_grid(n)).p_y1
        gaps.append(abs(n * p - ref))
    assert gaps[-1] < 0.01 * ref
    assert gaps[-1] < gaps[0]


def test_pointwise_convergence_spot_check():
    # bin averages approach the value at generic (non-dyadic) points
    f = make_state("sine_mode", k=1)
    rng = np.random.default_rng(5)
    pts = rng.random(20) * 0.98 + 0.01
    worst = []
    for n in (4, 64, 1024):
        disc = discretize(f, uniform_grid(n))
        worst.append(np.max(np.abs(disc.evaluate(pts) - f.evaluate(pts))))
    assert worst[2] < worst[0]
    assert worst[2] < 5e-3


def _as_callable(f):
    """The separable field as a plain callable of the coordinates."""
    return lambda *xs: f.evaluate(np.stack(xs, -1))


def _error_at_point_array(f, level):
    """Reference discretization_error: the bar chart of the separable f,
    compared with f called at an (N, d) array of the tensor Gauss-Legendre
    nodes, as the discretizer did before it evaluated one axis at a time."""
    from spatialzeno import ConcatenatedGrid
    from spatialzeno.quadrature import DEFAULT_CONFIG

    g = _as_callable(f)
    averages = discretize(f, level).averages
    p = DEFAULT_CONFIG.points_per_axis_per_bin
    xi, wi = np.polynomial.legendre.leggauss(p)
    parts = level.parts if isinstance(level, ConcatenatedGrid) else [level]
    total, offset = 0.0, 0
    for part in parts:
        pts_1d, w_1d = [], []
        for edges in part.breakpoints:
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * np.diff(edges)
            pts_1d.append((mid[:, None] + half[:, None] * xi[None, :]).ravel())
            w_1d.append((half[:, None] * wi[None, :]).ravel())
        pts = np.stack([a.ravel() for a in np.meshgrid(*pts_1d, indexing="ij")], -1)
        w = w_1d[0]
        for wk in w_1d[1:]:
            w = np.multiply.outer(w, wk)
        vals = np.asarray(g(*[pts[:, k] for k in range(part.d)]), dtype=complex)
        expanded = averages[offset:offset + part.num_bins].reshape(part.shape)
        for k in range(part.d):
            expanded = np.repeat(expanded, p, axis=k)
        diff2 = np.abs(vals.reshape(expanded.shape) - expanded).ravel() ** 2
        total += float(np.real(np.dot(w.ravel(), diff2)))
        offset += part.num_bins
    return float(np.sqrt(max(total, 0.0)))


def _separable_cases():
    from spatialzeno import GridScheme, rd_grid, tensor_product

    s1, s3 = make_state("sine_mode", k=1), make_state("sine_mode", k=3)
    mix = superpose([(0.8, s1), (0.6j, s3)])
    other = superpose([(0.5, make_state("uniform")),
                       (0.5 - 0.5j, make_state("complex_exponential", k=2))])
    yield "1d", product_field(other, mix), jittered_grid(40, d=1, C=2.0, seed=3)
    yield "2d", product_field(make_state("uniform", d=2),
                              make_state("sine_product", ks=[1, 2])), \
        jittered_grid(24, d=2, C=2.0, seed=4)
    yield "2d-multi-term", product_field(tensor_product([other, mix]),
                                         tensor_product([mix, other])), \
        jittered_grid(16, d=2, C=2.0, seed=5)
    yield "3d", product_field(tensor_product([mix, s1, other]),
                              make_state("sine_product", ks=[2, 1, 3])), \
        jittered_grid(6, d=3, C=2.0, seed=6)
    g = make_state("gaussian", mu=[0.2, -0.1], sigma=[1.0, 0.7])
    h = make_state("gaussian", mu=0.0, sigma=1.2)
    gh = superpose([(0.6, g), (0.8, tensor_product([h, h]))])
    scheme = GridScheme("rd_translated_cubes", d=2, ratio_bound=2.0, seed=7,
                        sub_kind="jittered")
    level = rd_grid(scheme, 4, [(-1.0, -1.0), (1.0, 0.0), (-1.0, 2.0)])
    assert len(level.parts) == 3
    yield "rd-three-parts", product_field(gh, gh), level


SEPARABLE_CASES = list(_separable_cases())


@pytest.mark.parametrize("label, f, level", SEPARABLE_CASES,
                         ids=[c[0] for c in SEPARABLE_CASES])
def test_separable_error_equals_callable_path(label, f, level):
    # the same tensor Gauss-Legendre sum, reduced from per-axis Grams in
    # another order
    assert discretization_error(f, level) == pytest.approx(
        _error_at_point_array(f, level), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("label, f, level", SEPARABLE_CASES,
                         ids=[c[0] for c in SEPARABLE_CASES])
def test_separable_node_values_equal_point_array_values(label, f, level):
    from spatialzeno.quadrature import _tensor_values

    for bp in getattr(level, "parts", [level]):
        (sep, zero), w = _tensor_values((f, 0), bp.breakpoints, 8)
        (gen, gzero), w_gen = _tensor_values((_as_callable(f), 0), bp.breakpoints, 8)
        assert np.array_equal(sep, gen) and np.array_equal(w, w_gen)
        assert not zero.any() and not gzero.any()


def _rd_levels():
    from spatialzeno import GridScheme, rd_grid

    g = make_state("gaussian", mu=[0.2, -0.1], sigma=[1.0, 0.7])
    scheme = GridScheme("rd_translated_cubes", d=2, ratio_bound=2.0, seed=7,
                        sub_kind="jittered")
    box = rd_grid(scheme, 8, [(-1.0, -1.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0)])
    gapped = rd_grid(scheme, 8, [(-1.0, -1.0), (1.0, 0.0), (-1.0, 2.0)])
    assert len(box.parts) == 1 and len(gapped.parts) == 3
    return product_field(g, g), {"box": box, "gapped": gapped}


def _locate_one_by_one(level, pt):
    """The per-point lookup: the first part whose bounds hold the point."""
    for (start, _), part in zip(level.index_ranges, level.parts):
        if all(lo <= c < hi for c, (lo, hi) in zip(pt, part.domain_bounds)):
            return start + part.locate(pt)
    return None


@pytest.mark.parametrize("name", ["box", "gapped"])
def test_rd_lookup_matches_per_point_lookup(name):
    from spatialzeno import OutOfDomainError

    f, levels = _rd_levels()
    level = levels[name]
    disc = discretize(f, level)
    rng = np.random.default_rng(3)
    lo = np.array([b[0] for b in level.domain_bounds])
    hi = np.array([b[1] for b in level.domain_bounds])
    random_pts = lo - 0.5 + (hi - lo + 1.0) * rng.random((2000, 2))
    # every breakpoint combination, hull upper edges and cube seams included
    edges = [np.unique(np.concatenate([p.breakpoints[k] for p in level.parts]))
             for k in range(2)]
    boundary_pts = np.stack(np.meshgrid(*edges, indexing="ij"), axis=-1).reshape(-1, 2)
    for pts in (random_pts, boundary_pts):
        want = [_locate_one_by_one(level, p) for p in pts]
        inside = np.array([j is not None for j in want])
        assert inside.any() and not inside.all()
        idx = np.array([j for j in want if j is not None])
        assert np.array_equal(level.locate_many(pts[inside]), idx)
        assert np.array_equal(disc.evaluate(pts[inside]), disc.averages[idx])
        assert [level.locate(p) for p in pts[inside][:50]] == idx[:50].tolist()
        with pytest.raises(OutOfDomainError):
            level.locate_many(pts[~inside][:1])
        with pytest.raises(OutOfDomainError):
            disc.evaluate(pts)


@pytest.mark.parametrize("name", ["box", "gapped"])
def test_rd_l2_distance_equals_discretization_error(name):
    f, levels = _rd_levels()
    level = levels[name]
    err = discretization_error(f, level)
    assert err > 0.0
    assert l2_distance(f, discretize(f, level), level) == pytest.approx(
        err, rel=1e-12, abs=0.0)


def _mp_value(prim, x):
    """A catalog factor at the mpmath point x, from the float constants the
    library evaluates with."""
    import mpmath
    from spatialzeno.states import PairFactor, PowerSingular1D, Trig1D

    if isinstance(prim, PairFactor):
        return mpmath.conj(_mp_value(prim.bra, x)) * _mp_value(prim.ket, x)
    if isinstance(prim, Trig1D):
        return mpmath.fsum(mpmath.mpc(c) * mpmath.expj(w * x) for c, w in prim.terms)
    if isinstance(prim, PowerSingular1D):
        return mpmath.mpf(prim.coeff) * x ** (-mpmath.mpf(prim.alpha))
    raise TypeError(prim)


def _mp_quad(fn, a, b):
    """mpmath integral of fn over [a, b]; from 0, with t = u^4, which makes a
    power singularity at 0 smooth enough for tanh-sinh."""
    import mpmath

    if a == 0:
        return mpmath.quad(lambda u: fn(u ** 4) * 4 * u ** 3, [0, mpmath.root(b, 4)])
    return mpmath.quad(fn, [a, b])


def _mp_error(f, level):
    """||f - f_n|| of a separable f on a product grid of [0, 1)^d, in 20-digit
    mpmath: ||f||^2 - ||f_n||^2 = sum_ab c_a conj(c_b) (prod_k N_k[a, b]
    - prod_k B_k[a, b]), with N_k[a, b] the integral of f_ak conj(f_bk) over
    the axis and B_k[a, b] = sum_i I_ak[i] conj(I_bk[i]) / h_i over its
    cells."""
    import mpmath

    with mpmath.workdps(20):
        full, bar = [], []
        for k, edges in enumerate(level.breakpoints):
            x = [mpmath.mpf(float(e)) for e in edges]
            fs = [factors[k] for _, factors in f.terms]
            ints = [[_mp_quad(lambda t, g=g: _mp_value(g, t), a, b)
                     for a, b in zip(x, x[1:])] for g in fs]
            N = [[None] * len(fs) for _ in fs]
            for a, g in enumerate(fs):
                for b in range(a, len(fs)):
                    N[a][b] = _mp_quad(lambda t, g=g, h=fs[b]: _mp_value(g, t)
                                       * mpmath.conj(_mp_value(h, t)), 0, 1)
                    N[b][a] = mpmath.conj(N[a][b])
            full.append(N)
            bar.append([[mpmath.fsum(ia * mpmath.conj(ib) / (b - a)
                                     for ia, ib, a, b in zip(Ia, Ib, x, x[1:]))
                         for Ib in ints] for Ia in ints])
        coeffs = [mpmath.mpc(complex(c)) for c, _ in f.terms]
        total = mpmath.mpf(0)
        for a, ca in enumerate(coeffs):
            for b, cb in enumerate(coeffs):
                pf = mpmath.fprod(g[a][b] for g in full)
                pb = mpmath.fprod(g[a][b] for g in bar)
                total += (ca * mpmath.conj(cb) * (pf - pb)).real
        return float(mpmath.sqrt(total))


def _oracle_cases():
    from spatialzeno import tensor_product

    s1, s2 = make_state("sine_mode", k=1), make_state("sine_mode", k=2)
    e1 = make_state("complex_exponential", k=1)
    power = make_state("power_singular", alpha=0.3)
    mix = superpose([(0.8, s1), (0.6j, e1)])
    yield "1d", product_field(mix, superpose([(0.6, s2), (0.8 - 0.1j, e1)])), \
        jittered_grid(7, d=1, C=2.0, seed=1)
    yield "1d-power", product_field(superpose([(0.8, power), (0.6j, s1)]), mix), \
        jittered_grid(6, d=1, C=2.0, seed=2)
    yield "2d", product_field(tensor_product([mix, s2]),
                              superpose([(0.7, tensor_product([e1, s1])),
                                         (0.7j, tensor_product([s2, mix]))])), \
        jittered_grid(5, d=2, C=2.0, seed=3)
    yield "2d-power", product_field(tensor_product([s1, mix]),
                                    superpose([(0.6, tensor_product([power, s1])),
                                               (0.8j, tensor_product([e1, s2]))])), \
        jittered_grid(4, d=2, C=2.0, seed=4)
    yield "3d-power", product_field(tensor_product([mix, s1, e1]),
                              tensor_product([s2, mix, power])), \
        jittered_grid(3, d=3, C=2.0, seed=5)


ORACLE_CASES = list(_oracle_cases())


@pytest.mark.parametrize("label, f, level", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_separable_error_against_mpmath(label, f, level):
    # the oracle is the exact error; the library's value is the tensor
    # Gauss-Legendre sum, which loses accuracy next to a power singularity
    # but must be no further off than the point-array evaluation of that sum
    want = _mp_error(f, level)
    got = discretization_error(f, level)
    ref = _error_at_point_array(f, level)
    assert abs(got - want) <= abs(ref - want) + 4e-16 * want
    if "power" not in label:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_error_above_the_table_guard_from_per_axis_sums():
    import tracemalloc

    import mpmath

    from spatialzeno.measurement import PER_BIN_LIMIT
    from spatialzeno.quadrature import DEFAULT_CONFIG, PAIR_BLOCK

    f = product_field(make_state("uniform", d=2), make_state("sine_product", ks=[1, 2]))
    # 3000 cells per axis: two node blocks per axis
    level = uniform_grid(3000, 2)
    assert level.num_bins > PER_BIN_LIMIT
    assert 3000 * DEFAULT_CONFIG.points_per_axis_per_bin > PAIR_BLOCK
    with pytest.raises(ValueError):
        discretize(f, level)
    tracemalloc.start()
    try:
        err = discretization_error(f, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    # with r the float sqrt(2) of the sine modes, ||f||^2 = (r^2 / 2)^2, and
    # ||f_n||^2 is the product over the axes of sum_i I_i^2 / h with I_i the
    # integral of r sin(k pi x) over cell i
    with mpmath.workdps(30):
        r = mpmath.mpf(float(np.sqrt(2.0)))
        x = [mpmath.mpf(float(e)) for e in level.breakpoints[0]]
        bar = mpmath.mpf(1)
        for k in (1, 2):
            c = [mpmath.cospi(k * t) for t in x]
            scale = r / (k * mpmath.pi)
            bar *= mpmath.fsum((scale * (c0 - c1)) ** 2 / (b - a)
                               for c0, c1, a, b in zip(c, c[1:], x, x[1:]))
        want = float(mpmath.sqrt((r ** 2 / 2) ** 2 - bar))
    assert err == pytest.approx(want, rel=1e-12, abs=0.0)


def _refuse(*args, **kwargs):
    raise AssertionError("bin integrals were built although the table was refused")


def test_oversized_bar_charts_raise_before_anything_is_built(monkeypatch):
    from spatialzeno import TableTooLargeError, discretizer, measurement

    f = product_field(make_state("uniform"), make_state("sine_mode", k=1))  # 1 term
    # and the <1|f> table's cells of the axis and of one block
    per_bin = discretizer._SEPARABLE_BYTES_PER_BIN + 2 * measurement._CELL_BYTES
    monkeypatch.setattr(measurement, "TABLE_BYTE_LIMIT", 41 * per_bin)  # 41 bins
    assert discretize(f, uniform_grid(41), allow_large=True).averages.size == 41
    monkeypatch.setattr(discretizer, "_bin_integrals_separable", _refuse)
    monkeypatch.setattr(discretizer, "_bin_integrals_callable", _refuse)
    # a plain callable holds 8 tensor nodes per bin at the default order
    for g, level in ((f, uniform_grid(42)), (lambda x: x, uniform_grid(8))):
        with pytest.raises(TableTooLargeError, match=f"for {level.num_bins} bins"):
            discretize(g, level, allow_large=True)
    # at the real limit, with nothing able to allocate a table
    monkeypatch.undo()
    psi7 = make_state("sine_product", ks=[1] * 7)
    with pytest.raises(TableTooLargeError):
        discretize(psi7, uniform_grid(1024, 7), allow_large=True)


_mix = lambda: superpose([(0.8, make_state("sine_mode", k=1)),
                          (0.6j, make_state("sine_mode", k=2))])


@pytest.mark.parametrize("case", ["separable_2d", "separable_1d", "callable_2d"])
def test_bar_chart_peak_stays_within_the_counted_bytes(case):
    import tracemalloc

    from spatialzeno import discretizer, tensor_product

    p = 8  # DEFAULT_CONFIG.points_per_axis_per_bin
    if case == "separable_2d":
        f = product_field(tensor_product([_mix(), _mix()]),
                          tensor_product([_mix(), _mix()]))
        level, counted = uniform_grid(500, 2), discretizer._SEPARABLE_BYTES_PER_BIN
    elif case == "separable_1d":
        # the <1|f> table's 4 x 2^18 cells are as large as the bins
        f = product_field(_mix(), _mix())
        level = uniform_grid(2 ** 18)
        counted = discretizer._SEPARABLE_BYTES_PER_BIN + 16 * len(f.terms)
    else:
        f = lambda x, y: np.sin(x) * np.cos(3 * y)
        level = uniform_grid(60, 2)
        counted = (discretizer._NODE_BYTES + 16 * 2) * p ** 2
    tracemalloc.start()
    try:
        discretize(f, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # plus the block buffers and phases, which do not grow with the bin count
    assert peak <= level.num_bins * counted + 2 ** 20


@pytest.mark.parametrize("call", [discretize, discretization_error])
@pytest.mark.parametrize("f, level, message", [
    (make_state("sine_mode", k=1), uniform_grid(4, 2), "f has dimension 1, the grid 2"),
    (make_state("sine_product", ks=[1, 2]), uniform_grid(4), "f has dimension 2, the grid 1"),
])
def test_a_function_of_another_dimension_raises(call, f, level, message):
    with pytest.raises(ValueError) as info:
        call(f, level)
    assert info.type is ValueError and str(info.value) == message
