"""One phi-psi cell-integral pass per study row: the shared pass, the
per-axis phase table and the vectorised piece lookup give the same bits as
the separate calls and per-cell loops they replace, and the blocked walk
agrees with a full-array pass."""

import numpy as np
import pytest

from spatialzeno import (
    GridScheme,
    ProductGrid,
    TableTooLargeError,
    bar_norm_squared,
    convergence_study,
    jittered_grid,
    joint_distribution,
    make_density,
    make_state,
    prob_y1_mixed,
    prob_y1_pure,
    sample_xy,
    superpose,
    tensor_product,
    uniform_grid,
)
from spatialzeno import measurement, quadrature
from spatialzeno.measurement import _gram_form
from spatialzeno.quadrature import (
    DEFAULT_CONFIG,
    PAIR_BLOCK,
    _pair_data,
    _term_pairs,
    cell_integrals,
)
from spatialzeno.states import (
    ONE,
    PhaseTable,
    PiecewiseConstant1D,
    exact_cell_integrals,
)


def _superpose24():
    rng = np.random.default_rng(5)
    modes = rng.choice(np.arange(1, 33), size=24, replace=False)
    coeffs = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    return superpose([(complex(c), make_state("sine_mode", k=int(k)))
                      for k, c in zip(modes, coeffs)])


STUDIES = {
    "superpose24/uniform": (_superpose24, lambda: make_state("uniform"),
                            [2 ** e for e in range(2, 10)]),
    "haar512/sine1": (lambda: make_state("haar_like", seed=17, pieces=512),
                      lambda: make_state("sine_mode", k=1),
                      [2 ** e for e in range(2, 11)]),
}
FIELDS = ("n", "p_y1", "error_bound", "bar_norm_sq")


@pytest.fixture(scope="module", params=sorted(STUDIES))
def study(request):
    make_psi, make_phi, n_list = STUDIES[request.param]
    scheme = GridScheme("jittered", d=1, ratio_bound=2.0, seed=41)
    return make_psi(), make_phi(), scheme, n_list


def test_threaded_rows_equal_serial_rows_bitwise(study):
    psi, phi, scheme, n_list = study
    serial = convergence_study(psi, phi, scheme, n_list, threads=1)
    threaded = convergence_study(psi, phi, scheme, n_list, threads=2)
    for a, b in zip(serial.rows, threaded.rows):
        assert [getattr(a, f) for f in FIELDS] == [getattr(b, f) for f in FIELDS]


def test_rows_equal_the_public_calls_bitwise(study):
    psi, phi, scheme, n_list = study
    rec = convergence_study(psi, phi, scheme, n_list)
    for row in rec.rows:
        level = scheme.level(row.n)
        r = prob_y1_pure(psi, phi, level, keep_per_bin=False)
        assert row.p_y1 == r.p_y1
        assert row.error_bound == r.p_y1_error_bound
        assert row.bar_norm_sq == bar_norm_squared(psi, phi, level)


def _per_cell_pieces(pcw, pcw_is_bra, other, edges):
    """The piecewise split with one piece lookup per refined cell."""
    inner = [b for b in pcw.breaks if edges[0] < b < edges[-1]]
    refined = np.union1d(edges, np.asarray(inner)) if inner else edges
    plain = exact_cell_integrals(ONE, other, refined)
    mids = 0.5 * (refined[:-1] + refined[1:])
    bp = np.asarray(pcw.breaks)
    consts = np.array([complex(pcw.values[int(np.clip(
        np.searchsorted(bp, m, side="right") - 1, 0, len(pcw.values) - 1))])
        for m in mids])
    contrib = np.conj(consts) * plain if pcw_is_bra else consts * np.conj(plain)
    out = np.zeros(edges.size - 1, dtype=complex)
    pos = np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, out.size - 1)
    np.add.at(out, pos, contrib)
    return out


@pytest.mark.parametrize("edges", [
    uniform_grid(7).breakpoints[0],
    jittered_grid(300, 1, C=2.0, seed=3).breakpoints[0],
    np.array([0.0, 1.0]),
    np.array([0.1, 0.35, 0.9]),
], ids=["uniform7", "jittered300", "hull", "partial"])
def test_vectorised_piece_lookup_matches_per_cell_lookup(edges):
    haar = make_state("haar_like", seed=9, pieces=64).terms[0][1][0]
    for other in (make_state("sine_mode", k=3).terms[0][1][0],
                  make_state("uniform").terms[0][1][0],
                  make_state("complex_exponential", k=2).terms[0][1][0]):
        assert np.array_equal(exact_cell_integrals(haar, other, edges),
                              _per_cell_pieces(haar, True, other, edges))
        assert np.array_equal(exact_cell_integrals(other, haar, edges),
                              _per_cell_pieces(haar, False, other, edges))


def _prim(catalog, **params):
    """The axis-0 factor of a one-term catalog state."""
    return make_state(catalog, **params).terms[0][1][0]


def test_phase_table_is_bitwise_cos_and_sin():
    edges = jittered_grid(2 ** 20, 1, C=2.0, seed=11).breakpoints[0]
    table = PhaseTable(edges)
    for w in [k * np.pi for k in (1, 3, 14, 4, 5, 6)]:
        for signed in (w, -w):
            assert np.array_equal(table.cos(signed), np.cos(w * edges))
            assert np.array_equal(table.sin(signed), np.sin(w * edges))


def test_sine_against_a_constant_needs_one_cosine():
    edges = jittered_grid(300, 1, C=2.0, seed=3).breakpoints[0]
    table = PhaseTable(edges)
    sine, uniform = _prim("sine_mode", k=3), _prim("uniform")
    exact_cell_integrals(sine, uniform, edges, phases=table)
    exact_cell_integrals(uniform, sine, edges, phases=table)
    assert list(table._cos) == [3 * np.pi] and table._sin == {}


def test_shared_phase_table_matches_a_fresh_table_per_pair():
    edges = jittered_grid(500, 1, C=2.0, seed=13).breakpoints[0]
    psi = _superpose24()
    phi = superpose([(1.0, make_state("sine_mode", k=4)),
                     (0.3j, make_state("complex_exponential", k=3))])
    table = PhaseTable(edges)
    for _, (bf,) in phi.terms:
        for _, (kf,) in psi.terms:
            assert np.array_equal(exact_cell_integrals(bf, kf, edges, phases=table),
                                  exact_cell_integrals(bf, kf, edges))


def test_phase_table_for_other_edges_is_not_used():
    edges = uniform_grid(8).breakpoints[0]
    other = PhaseTable(np.linspace(0.0, 1.0, 9))  # equal values, other array
    f, g = make_state("sine_mode", k=2).terms[0][1][0], make_state("uniform").terms[0][1][0]
    assert np.array_equal(exact_cell_integrals(f, g, edges, phases=other),
                          exact_cell_integrals(f, g, edges))
    assert other._cos == {} and other._sin == {}


_REAL_HAAR = PiecewiseConstant1D((0.0, 0.25, 0.5, 1.0), (1.0, -0.5, 0.75))


@pytest.mark.parametrize("bra,ket,dtype", [
    (("sine_mode", {"k": 1}), ("uniform", {}), np.float64),
    (("uniform", {}), ("sine_mode", {"k": 3}), np.float64),
    (("sine_mode", {"k": 2}), ("sine_mode", {"k": 5}), np.float64),
    (("sine_mode", {"k": 2}), ("sine_mode", {"k": 2}), np.float64),
    (("indicator", {"a": 0.2, "b": 0.7}), ("sine_mode", {"k": 1}), np.float64),
    (("power_singular", {"alpha": 0.3}), ("uniform", {}), np.float64),
    (("sine_mode", {"k": 1}), ("power_singular", {"alpha": 0.3}), np.float64),
    (("power_singular", {"alpha": 0.3}), ("complex_exponential", {"k": 1}),
     np.complex128),
    (("gaussian", {"mu": 0.3, "sigma": 0.5}), ("gaussian", {"mu": 0.0, "sigma": 1.0}),
     np.float64),
    (("gaussian", {"mu": 0.3, "sigma": 0.5}), ("uniform", {}), np.float64),
    (("real_haar", {}), ("sine_mode", {"k": 2}), np.float64),
    (("sine_mode", {"k": 2}), ("real_haar", {}), np.float64),
    (("complex_exponential", {"k": 1}), ("complex_exponential", {"k": 1}), np.float64),
    (("complex_exponential", {"k": 2}), ("uniform", {}), np.complex128),
    (("sine_mode", {"k": 1}), ("complex_exponential", {"k": -1}), np.complex128),
    (("haar_like", {"seed": 4, "pieces": 16}), ("sine_mode", {"k": 1}), np.complex128),
], ids=lambda v: v[0] if isinstance(v, tuple) else np.dtype(v).name)
def test_cell_dtype_follows_the_coefficients(bra, ket, dtype):
    f, g = (_REAL_HAAR if name == "real_haar" else _prim(name, **params)
            for name, params in (bra, ket))
    edges = jittered_grid(64, 1, C=2.0, seed=8).breakpoints[0]
    vals = exact_cell_integrals(f, g, edges)
    assert vals.dtype == dtype
    ref, _ = cell_integrals(f, g, edges, method="numeric")
    assert np.allclose(vals, ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("phi,real", [
    (lambda: make_state("uniform"), True),
    (lambda: make_state("complex_exponential", k=2), False),
])
def test_pair_pass_sums_are_real_when_every_pair_is(phi, real):
    psi = superpose([(0.8, make_state("sine_mode", k=1)),
                     (0.6j, make_state("sine_mode", k=2))])
    level = jittered_grid(100, 1, C=2.0, seed=2)
    _, (ax,) = _pair_data(phi(), psi, level.breakpoints, DEFAULT_CONFIG, keep=True,
                          with_bar=True)
    want = np.float64 if real else np.complex128
    assert ax.gram.dtype == ax.gram_bar.dtype == ax.cells.dtype == want
    r = prob_y1_pure(psi, phi(), level, keep_per_bin=True)
    assert r.per_bin_amplitude.dtype == np.complex128
    assert r.per_bin_mass.dtype == np.float64


def test_a_complex_block_promotes_the_real_sums(monkeypatch):
    """A pair that turns complex after the first block promotes the sums
    already taken; the totals equal the all-complex pass."""
    psi = make_state("sine_mode", k=1)
    phi = make_state("uniform")
    level = ProductGrid(LONG, [_axis(LONG, seed=1)])
    ref = prob_y1_pure(psi, phi, level, keep_per_bin=True)
    ref_bar = bar_norm_squared(psi, phi, level)

    def late_complex(f, g, edges, *args, **kwargs):
        vals, err = cell_integrals(f, g, edges, *args, **kwargs)
        return (vals.astype(complex) if edges[0] > 0.0 else vals), err

    monkeypatch.setattr(quadrature, "cell_integrals", late_complex)
    r = prob_y1_pure(psi, phi, level, keep_per_bin=True)
    assert r.p_y1_raw == pytest.approx(ref.p_y1_raw, rel=1e-14)
    assert np.array_equal(r.per_bin_amplitude, ref.per_bin_amplitude)
    assert bar_norm_squared(psi, phi, level) == pytest.approx(ref_bar, rel=1e-14)
    _, (ax,) = _pair_data(phi, psi, level.breakpoints, DEFAULT_CONFIG, keep=True,
                          with_bar=True)
    assert ax.gram.dtype == ax.gram_bar.dtype == ax.cells.dtype == np.complex128


def test_equal_primitive_pairs_are_integrated_once(monkeypatch):
    """mix^3 against uniform: 8 term pairs share 2 primitive pairs per axis,
    and the 64 psi-psi pairs of the hull mass share 4."""
    psi = tensor_product([_mix(), _mix(), _mix()])
    phi = make_state("uniform", d=3)
    level = jittered_grid(16, 3, C=2.0, seed=6)
    pairs = list(_term_pairs(phi, psi))
    calls = []

    def counting(f, g, edges, *args, **kwargs):
        calls.append((f, g))
        return cell_integrals(f, g, edges, *args, **kwargs)

    monkeypatch.setattr(quadrature, "cell_integrals", counting)
    p = prob_y1_pure(psi, phi, level, keep_per_bin=False).p_y1_raw
    # 3 axes x 2 distinct phi-psi pairs, then 3 axes x 4 distinct psi-psi pairs
    assert len(pairs) == 8 and len(calls) == 3 * 2 + 3 * 4
    # one cell-integral row per term pair, one Gram product per axis
    grams = []
    for k, edges in enumerate(level.breakpoints):
        V = np.array([cell_integrals(bf[k], kf[k], edges)[0] for _, bf, kf in pairs])
        grams.append(V @ V.T)
    assert p == _gram_form(np.array([w for w, _, _ in pairs]), grams)


def _no_pair_pass(*args, **kwargs):
    raise AssertionError("a pair pass ran although the tables were refused")


def test_oversized_tables_raise_before_anything_is_built(monkeypatch):
    psi, phi = make_state("sine_mode", k=1), make_state("uniform")
    small, fits = uniform_grid(64), uniform_grid(32)
    monkeypatch.setattr(measurement, "TABLE_BYTE_LIMIT",
                        41 * measurement._TABLE_BYTES_PER_BIN)  # 41 bins
    assert prob_y1_pure(psi, phi, fits, keep_per_bin=True).per_bin_mass.size == 32
    monkeypatch.setattr(measurement, "_pair_pass", _no_pair_pass)
    for call in (lambda: prob_y1_pure(psi, phi, small, keep_per_bin=True),
                 lambda: joint_distribution(psi, phi, small),
                 lambda: sample_xy(psi, phi, small, count=5),
                 lambda: prob_y1_mixed(make_density([(1.0, psi)]), phi, small,
                                       keep_per_bin=True)):
        with pytest.raises(TableTooLargeError, match="64 bins"):
            call()
    # at the real limit, with nothing able to allocate a table
    level = uniform_grid(1024, d=7)
    psi7 = tensor_product([psi] * 7)
    with pytest.raises(TableTooLargeError):
        prob_y1_pure(psi7, make_state("uniform", d=7), level, keep_per_bin=True)


def test_table_build_peak_stays_within_the_counted_bytes():
    import tracemalloc

    psi = superpose([(0.8, make_state("sine_product", ks=[1, 2])),
                     (0.6j, make_state("sine_product", ks=[2, 1]))])
    phi = make_state("uniform", d=2)
    level = uniform_grid(400, 2)
    counted = level.num_bins * measurement._TABLE_BYTES_PER_BIN
    for call in (lambda: prob_y1_pure(psi, phi, level, keep_per_bin=True),
                 lambda: joint_distribution(psi, phi, level, keep_per_bin=True),
                 lambda: sample_xy(psi, phi, level, count=1000, keep_per_bin=True)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # plus the per-axis cells, block buffers and phases, which do not
        # grow with the bin count
        assert peak <= counted + 2 ** 20


def test_density_table_peak_stays_within_the_counted_bytes():
    import tracemalloc

    rho = make_density([(0.5, make_state("sine_product", ks=[1, 1])),
                        (0.3, make_state("sine_product", ks=[1, 2])),
                        (0.2, make_state("sine_product", ks=[2, 1]))])
    phi = make_state("uniform", d=2)
    level = uniform_grid(300, 2)
    # the sampler builds one term's tables at a time, so it counts as pure
    for per_bin, call in (
            (measurement._MIXED_MASS_BYTES_PER_BIN,
             lambda: prob_y1_mixed(rho, phi, level, keep_per_bin=True)),
            (measurement._DENSITY_TABLE_BYTES_PER_BIN,
             lambda: joint_distribution(rho, phi, level, keep_per_bin=True)),
            (measurement._TABLE_BYTES_PER_BIN,
             lambda: sample_xy(rho, phi, level, count=1000, keep_per_bin=True))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= level.num_bins * per_bin + 2 ** 20


def test_mixed_masses_are_built_without_amplitudes():
    import tracemalloc

    rho = make_density([(0.5, make_state("sine_product", ks=[1, 1])),
                        (0.3, make_state("sine_product", ks=[1, 2])),
                        (0.2, make_state("sine_product", ks=[2, 1]))])
    phi = make_state("uniform", d=2)
    level = uniform_grid(300, 2)
    tracemalloc.start()
    try:
        r = prob_y1_mixed(rho, phi, level, keep_per_bin=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no complex128 amplitude table
    assert peak <= level.num_bins * measurement._MIXED_MASS_BYTES_PER_BIN + 2 ** 20
    assert r.per_bin_amplitude is None
    pure = [(p_l, prob_y1_pure(psi_l, phi, level, keep_per_bin=True))
            for p_l, psi_l in rho.terms]
    want = pure[0][1].per_bin_mass * pure[0][0]
    for p_l, q in pure[1:]:
        want += p_l * q.per_bin_mass
    assert np.array_equal(r.per_bin_mass, want)
    assert r.p_y1_raw == sum(p_l * q.p_y1_raw for p_l, q in pure)
    assert r.mass_total == sum(p_l * q.mass_total for p_l, q in pure)


def test_real_cells_build_masses_in_float64():
    import tracemalloc

    rho = make_density([(0.5, make_state("sine_product", ks=[1, 1])),
                        (0.3, make_state("sine_product", ks=[1, 2])),
                        (0.2, make_state("sine_product", ks=[2, 1]))])
    psi = make_state("sine_product", ks=[1, 2])
    phi = make_state("uniform", d=2)
    level = uniform_grid(600, 2)
    # float64 masses: one output and one term buffer, plus the float64 sum
    # of a density state (and the complex128 amplitudes of a pure state and
    # of the joint table's P(Y=1) sum); complex128 masses need 16 more
    for per_bin, call in (
            (8 + 8 + 8, lambda: prob_y1_mixed(rho, phi, level, keep_per_bin=True)),
            (16 + 8 + 8, lambda: prob_y1_pure(psi, phi, level, keep_per_bin=True)),
            (8 + 8 + 16 + 8 + 8,
             lambda: joint_distribution(rho, phi, level, keep_per_bin=True))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= level.num_bins * per_bin + 2 ** 20
    assert prob_y1_pure(psi, phi, level, keep_per_bin=True).per_bin_mass.dtype == np.float64


def test_num_bins_does_not_overflow_and_guard_holds():
    level = uniform_grid(1024, d=7)
    assert level.num_bins == 1024 ** 7
    psi = tensor_product([make_state("sine_mode", k=1)] * 7)
    r = prob_y1_pure(psi, make_state("uniform", d=7), level, keep_per_bin="auto")
    assert r.per_bin_amplitude is None and r.per_bin_mass is None
    assert r.mass_total == pytest.approx(1.0, abs=1e-12)


def _full_axis_pass(phi, psi, level):
    """Weights and full-length per-axis cell integrals (and their error
    estimates), one call per axis."""
    weights, mats, errs = [], [], []
    for w, bf, kf in _term_pairs(phi, psi):
        weights.append(w)
        vals = [cell_integrals(bf[k], kf[k], edges, DEFAULT_CONFIG)
                for k, edges in enumerate(level.breakpoints)]
        mats.append([v for v, _ in vals])
        errs.append([e for _, e in vals])
    return weights, mats, errs


def _gram_total(weights, mats, axis_weights=None):
    """sum_j |sum_P w_P prod_k M_P,k[j_k]|^2 by one np.dot per pair and axis."""
    P, d = len(weights), len(mats[0])
    H = np.ones((P, P), dtype=complex)
    for k in range(d):
        G = np.empty((P, P), dtype=complex)
        conj = [np.conj(m[k]) for m in mats]
        for a in range(P):
            va = mats[a][k] if axis_weights is None else mats[a][k] * axis_weights[k]
            for b in range(P):
                G[a, b] = np.dot(va, conj[b])
        H *= G
    w = np.asarray(weights)
    return float(np.real(np.einsum("a,ab,b->", w, H, np.conj(w))))


def _per_bin(weights, mats):
    total = None
    for w, m_axes in zip(weights, mats):
        term = m_axes[0]
        for m in m_axes[1:]:
            term = np.multiply.outer(term, m)
        term = w * term.ravel()
        total = term if total is None else total + term
    return total


def _axis(cells, seed):
    """A random partition of [0, 1] into ``cells`` cells."""
    inner = np.sort(np.random.default_rng(seed).random(cells - 1))
    return np.concatenate([[0.0], inner, [1.0]])


LONG = 5 * PAIR_BLOCK // 2  # two full blocks and a half block
_mix = lambda: superpose([(0.8, make_state("sine_mode", k=1)),
                          (0.6j, make_state("sine_mode", k=2))])
BLOCKED_CASES = {
    # name: (psi, phi, cells per axis); P = phi terms x psi terms, and phi
    # carries the 24 terms so the psi-psi mass pass stays small
    "P1_d1": (lambda: make_state("sine_mode", k=1), lambda: make_state("uniform"),
              [LONG]),
    "P24_d1": (lambda: make_state("uniform"), _superpose24, [LONG]),
    # power x sine(k) with k pi above _POWER_SERIES_WMAX takes quadrature
    "power_d1": (lambda: make_state("power_singular", alpha=0.3),
                 lambda: make_state("sine_mode", k=3), [LONG]),
    "P4_d2": (lambda: tensor_product([_mix(), _mix()]),
              lambda: make_state("uniform", d=2), [LONG, 5]),
    "P24_d2_power": (lambda: tensor_product([make_state("power_singular", alpha=0.3),
                                             make_state("sine_mode", k=1)]),
                     lambda: tensor_product([make_state("sine_mode", k=3),
                                             _superpose24()]), [7, LONG]),
    # quadrature, series and trig pairs in one pass
    "P4_d2_power_mixed": (lambda: superpose([
                              (0.7, tensor_product([make_state("power_singular", alpha=0.3),
                                                    make_state("sine_mode", k=1)])),
                              (0.5j, tensor_product([make_state("sine_mode", k=2),
                                                     make_state("power_singular",
                                                                alpha=0.2)]))]),
                          lambda: tensor_product([make_state("sine_mode", k=3),
                                                  make_state("sine_mode", k=1)]),
                          [LONG, 9]),
    "P8_d3": (lambda: tensor_product([_mix(), _mix(), _mix()]),
              lambda: make_state("uniform", d=3), [3, LONG, 2]),
}


# the cases with a quadrature pair, whose error arrays are nonzero
NUMERIC_CASES = {"power_d1", "P24_d2_power", "P4_d2_power_mixed"}


@pytest.mark.parametrize("name", sorted(BLOCKED_CASES))
def test_blocked_pass_matches_full_array_pass(name):
    make_psi, make_phi, cells = BLOCKED_CASES[name]
    psi, phi = make_psi(), make_phi()
    level = ProductGrid(max(cells), [_axis(m, seed=m + k) for k, m in enumerate(cells)])
    w, mats, errs = _full_axis_pass(phi, psi, level)
    inv_len = [1.0 / level.axis_lengths(k) for k in range(level.d)]
    p_ref = _gram_total(w, mats)
    bar_ref = _gram_total(w, mats, axis_weights=inv_len)

    r = prob_y1_pure(psi, phi, level, keep_per_bin=True)
    assert r.p_y1_raw == pytest.approx(p_ref, rel=1e-13)
    assert bar_norm_squared(psi, phi, level) == pytest.approx(bar_ref, rel=1e-13)
    # the per-axis sums behind the error bound
    _, axes = _pair_data(phi, psi, level.breakpoints, DEFAULT_CONFIG)
    sq_ref = [[np.sum(np.abs(m) ** 2) for m in m_axes] for m_axes in mats]
    extra_ref = [[np.sum(2.0 * np.abs(m) * e + e ** 2) for m, e in zip(m_axes, e_axes)]
                 for m_axes, e_axes in zip(mats, errs)]
    assert np.allclose([ax.gram.diagonal().real for ax in axes], np.transpose(sq_ref),
                       rtol=1e-13, atol=0.0)
    assert np.allclose([ax.extra for ax in axes], np.transpose(extra_ref),
                       rtol=1e-13, atol=0.0)
    assert any(ax.extra.any() for ax in axes) == (name in NUMERIC_CASES)
    assert np.array_equal(r.per_bin_amplitude, _per_bin(w, mats))
    w_m, mats_m, _ = _full_axis_pass(psi, psi, level)
    assert np.array_equal(r.per_bin_mass, np.real(_per_bin(w_m, mats_m)))
