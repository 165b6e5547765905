"""One phi-psi cell-integral pass per study row: the shared pass, the
per-axis phase table and the vectorised piece lookup give the same bits as
the separate calls and per-cell loops they replace, and the blocked walk
agrees with a full-array pass."""

import numpy as np
import pytest

from spatialzeno import (
    GridScheme,
    ProductGrid,
    bar_norm_squared,
    convergence_study,
    jittered_grid,
    make_state,
    prob_y1_pure,
    superpose,
    tensor_product,
    uniform_grid,
)
from spatialzeno.measurement import PAIR_BLOCK, _pair_data
from spatialzeno.quadrature import DEFAULT_CONFIG, _term_pairs, cell_integrals
from spatialzeno.states import (
    ONE,
    PhaseTable,
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


def test_negated_frequency_phase_is_bitwise_conjugate():
    edges = jittered_grid(2 ** 20, 1, C=2.0, seed=11).breakpoints[0]
    table = PhaseTable(edges)
    freqs = [k * np.pi for k in (1, 3, 14, 4, 5, 6)]
    for w in freqs:
        assert np.array_equal(table(w), np.exp(1j * w * edges))
        assert np.array_equal(table(-w), np.exp(1j * -w * edges))


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
    assert other._by_freq == {}


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
    "power_d1": (lambda: make_state("power_singular", alpha=0.3),
                 lambda: make_state("sine_mode", k=1), [LONG]),
    "P4_d2": (lambda: tensor_product([_mix(), _mix()]),
              lambda: make_state("uniform", d=2), [LONG, 5]),
    "P24_d2_power": (lambda: tensor_product([make_state("power_singular", alpha=0.3),
                                             make_state("sine_mode", k=1)]),
                     lambda: tensor_product([make_state("sine_mode", k=1),
                                             _superpose24()]), [7, LONG]),
    "P8_d3": (lambda: tensor_product([_mix(), _mix(), _mix()]),
              lambda: make_state("uniform", d=3), [3, LONG, 2]),
}


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
    _, axes = _pair_data(phi, psi, level, DEFAULT_CONFIG)
    sq_ref = [[np.sum(np.abs(m) ** 2) for m in m_axes] for m_axes in mats]
    extra_ref = [[np.sum(2.0 * np.abs(m) * e + e ** 2) for m, e in zip(m_axes, e_axes)]
                 for m_axes, e_axes in zip(mats, errs)]
    assert np.allclose([ax.gram.diagonal().real for ax in axes], np.transpose(sq_ref),
                       rtol=1e-13, atol=0.0)
    assert np.allclose([ax.extra for ax in axes], np.transpose(extra_ref),
                       rtol=1e-13, atol=0.0)
    assert np.array_equal(r.per_bin_amplitude, _per_bin(w, mats))
    w_m, mats_m, _ = _full_axis_pass(psi, psi, level)
    assert np.array_equal(r.per_bin_mass, np.real(_per_bin(w_m, mats_m)))
