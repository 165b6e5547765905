"""Property tests of the measurement invariants on random catalog states.

States are superpositions of tensor products of sine modes (real cells)
or of complex exponentials (complex cells), with real or complex
coefficients, on jittered grids with d <= 2.  Every draw checks per-bin
Cauchy-Schwarz, that the bin masses sum to the total, mixed-state
linearity, and that the per-bin amplitudes and masses agree with a
reference built in complex arithmetic from exp(i w x) antiderivatives.
With d <= 3, the bar chart f_n of f = conj(phi)*psi satisfies the norm
identity and, with its discretization error, the Pythagorean identity
||f_n||^2 + ||f - f_n||^2 = ||f||^2.
The Cauchy-Schwarz, mass-sum and resolution-of-identity checks also draw
products of sine modes and power laws, whose pairs take the power series
(a power law against a power law or a sine mode with k <= 2) or
quadrature (k >= 3).  Resolution of identity (the bins' amplitudes sum to
<phi|psi> and their masses to ||psi||^2) is checked with d <= 3, and every
jittered grid of feasible parameters passes ``validate_grid``.  The
sampler's guided inverse CDF equals ``np.searchsorted`` on CDFs with
zero-mass runs, a single massive bin or geometric masses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spatialzeno import (
    DensityState,
    discretization_error,
    discretize,
    inner_product,
    jittered_grid,
    make_density,
    make_state,
    norm_identity_check,
    prob_y1_mixed,
    prob_y1_pure,
    product_field,
    superpose,
    tensor_product,
    uniform_grid,
    validate_grid,
)
from spatialzeno.quadrature import DEFAULT_CONFIG, _pair_data, _term_pairs
from spatialzeno.states import PairFactor, exact_cell_integrals

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
TOL = 1e-14

FAMILIES = {"sine": (lambda k: make_state("sine_mode", k=k), range(1, 7)),
            "cexp": (lambda k: make_state("complex_exponential", k=k),
                     [k for k in range(-4, 5) if k != 0])}


def _product(family: str, ks) -> object:
    make, _ = FAMILIES[family]
    return tensor_product([make(k) for k in ks]) if len(ks) > 1 else make(ks[0])


@st.composite
def _modes(draw, family: str, d: int, ks=None):
    ks = FAMILIES[family][1] if ks is None else ks
    return tuple(draw(st.sampled_from(list(ks))) for _ in range(d))


_coeff = st.one_of(
    st.floats(0.2, 1.0),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.2, 1.0)))


@st.composite
def _state(draw, family: str, d: int, ks=None):
    """A renormalised superposition of 1-3 distinct product modes (of the
    family's modes, or of ``ks``)."""
    modes = draw(st.lists(_modes(family, d, ks), min_size=1, max_size=3, unique=True))
    return superpose([(draw(_coeff), _product(family, ks)) for ks in modes])


_ALPHAS = (0.05, 0.2, 0.3, 0.45)
_power_or_sine = st.one_of(
    st.sampled_from(_ALPHAS).map(lambda a: make_state("power_singular", alpha=a)),
    st.sampled_from(FAMILIES["sine"][1]).map(lambda k: make_state("sine_mode", k=k)))


@st.composite
def _power_state(draw, d: int):
    """A renormalised superposition of 1-3 products of power laws and sine
    modes, the first with a power law on axis 0."""
    products = draw(st.lists(st.lists(_power_or_sine, min_size=d, max_size=d),
                             min_size=1, max_size=3))
    products[0][0] = make_state("power_singular", alpha=draw(st.sampled_from(_ALPHAS)))
    return superpose([(draw(_coeff), tensor_product(f) if d > 1 else f[0])
                      for f in products])


@st.composite
def _case(draw, families=tuple(sorted(FAMILIES)), max_d=2):
    d = draw(st.integers(1, max_d))
    family = draw(st.sampled_from(families))
    psi = draw(_power_state(d) if family == "power" else _state(family, d))
    phi = draw(st.one_of(_state("sine", d), st.just(make_state("uniform", d=d))))
    n = draw(st.integers(2, 40 if d == 1 else 12))
    level = jittered_grid(n, d, C=2.0, seed=draw(st.integers(0, 2 ** 16)))
    return family, psi, phi, level


def _reference_cells(bra, ket, edges):
    """Cell integrals of conj(bra)*ket from its Fourier terms, in complex
    arithmetic, and the size of the antiderivative they are differences of."""
    anti = np.zeros(edges.size, dtype=complex)
    scale = 0.0
    for c, w in PairFactor(bra, ket).fourier_terms():
        if w == 0.0:
            anti += c * edges
            scale += abs(c) * np.max(np.abs(edges))
        else:
            anti += c / (1j * w) * np.exp(1j * w * edges)
            scale += abs(c) / abs(w)
    return np.diff(anti), scale


def _reference_per_bin(phi, psi, level):
    """Per-bin <phi|P_j psi> and the roundoff scale of the reference."""
    total = np.zeros(level.num_bins, dtype=complex)
    scale = 0.0
    for w, bf, kf in _term_pairs(phi, psi):
        term, size = np.array([w]), abs(w)
        for k, edges in enumerate(level.breakpoints):
            cells, s = _reference_cells(bf[k], kf[k], edges)
            term, size = np.multiply.outer(term, cells).ravel(), size * s
        total += term
        scale += size
    return total, scale


@SETTINGS
@given(_case(families=tuple(sorted(FAMILIES)) + ("power",)))
def test_per_bin_cauchy_schwarz_and_mass_sum(case):
    _, psi, phi, level = case
    r = prob_y1_pure(psi, phi, level, keep_per_bin=True)
    amp2, m = np.abs(r.per_bin_amplitude) ** 2, r.per_bin_mass
    assert np.all(amp2 <= m * phi.norm_squared() * (1.0 + 1e-12) + 1e-15)
    assert np.sum(m) == pytest.approx(r.mass_total, rel=1e-12, abs=0.0)
    assert np.sum(amp2) == pytest.approx(r.p_y1_raw, rel=1e-12, abs=1e-15)


@SETTINGS
@given(_case(families=tuple(sorted(FAMILIES)) + ("power",), max_d=3))
def test_resolution_of_identity(case):
    # the bins tile the cube, so sum_j P_j is the identity
    _, psi, phi, level = case
    r = prob_y1_pure(psi, phi, level, keep_per_bin=True)
    assert np.sum(r.per_bin_amplitude) == pytest.approx(inner_product(phi, psi), abs=1e-12)
    assert np.sum(r.per_bin_mass) == pytest.approx(psi.norm_squared(), abs=1e-12)


@SETTINGS
@given(st.integers(1, 39).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 3),
    st.floats(1.0, 4.0, exclude_min=True).flatmap(lambda C: st.tuples(
        st.just(C), st.one_of(st.none(), st.integers(n, max(n, int(np.floor(C * n))))))),
    st.integers(0, 2 ** 16))))
def test_jittered_edges_stay_within_their_bounds(args):
    n, d, (C, cells_per_axis), seed = args
    report = validate_grid(jittered_grid(n, d, C, seed, cells_per_axis))
    assert report.passed, report.details


@SETTINGS
@given(_case())
def test_real_and_complex_cells_match_a_complex_reference(case):
    family, psi, phi, level = case
    r = prob_y1_pure(psi, phi, level, keep_per_bin=True)
    amp, amp_scale = _reference_per_bin(phi, psi, level)
    mass, mass_scale = _reference_per_bin(psi, psi, level)
    assert np.max(np.abs(r.per_bin_amplitude - amp)) <= TOL * amp_scale
    assert np.max(np.abs(r.per_bin_mass - mass.real)) <= TOL * mass_scale
    # sine pairs are real on every axis; complex exponentials are not
    _, axes = _pair_data(phi, psi, level.breakpoints, DEFAULT_CONFIG, keep=True)
    want = np.float64 if family == "sine" else np.complex128
    assert all(ax.cells.dtype == want and ax.gram.dtype == want for ax in axes)


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    st.sampled_from(sorted(FAMILIES)).flatmap(
        lambda fam: st.lists(_modes(fam, d), min_size=2, max_size=3, unique=True)
        .map(lambda modes: (fam, modes))),
    st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
    _state("sine", d),
    st.integers(2, 24 if d == 1 else 8),
    st.integers(0, 2 ** 16))))
def test_mixed_state_is_linear_in_its_terms(args):
    (family, modes), weights, phi, n, seed = args
    states = [_product(family, ks) for ks in modes]
    p = np.array(weights[:len(states)])
    p /= p.sum()
    rho = make_density(list(zip(p, states)))
    level = jittered_grid(n, phi.d, C=2.0, seed=seed)
    mixed = prob_y1_mixed(rho, phi, level, keep_per_bin=True)
    pure = [prob_y1_pure(s, phi, level, keep_per_bin=True) for s in states]
    assert mixed.p_y1_raw == pytest.approx(
        sum(w * r.p_y1_raw for w, r in zip(p, pure)), rel=TOL, abs=TOL)
    assert mixed.mass_total == pytest.approx(
        sum(w * r.mass_total for w, r in zip(p, pure)), rel=TOL, abs=0.0)
    assert np.allclose(mixed.per_bin_mass, sum(w * r.per_bin_mass for w, r in zip(p, pure)),
                       rtol=TOL, atol=0.0)


@st.composite
def _keep_case(draw):
    """A pure state of ``_case``, or a density of 2-3 orthogonal product
    modes, on a jittered level or the uniform level of the same n."""
    _, psi, phi, level = draw(_case(families=tuple(sorted(FAMILIES)) + ("power",)))
    if draw(st.booleans()):
        level = uniform_grid(level.n, level.d)
    if draw(st.booleans()):
        family = draw(st.sampled_from(sorted(FAMILIES)))
        modes = draw(st.lists(_modes(family, level.d), min_size=2, max_size=3, unique=True))
        weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(modes),
                                         max_size=len(modes))))
        psi = make_density(list(zip(weights / weights.sum(),
                                    [_product(family, ks) for ks in modes])))
    return psi, phi, level


@SETTINGS
@given(_keep_case())
def test_keeping_the_tables_moves_no_scalar(case):
    state, phi, level = case
    prob = prob_y1_mixed if isinstance(state, DensityState) else prob_y1_pure
    kept, dropped = (prob(state, phi, level, keep_per_bin=keep) for keep in (True, False))
    assert kept.per_bin_mass is not None and dropped.per_bin_mass is None
    for name in ("p_y1", "p_y1_raw", "p_y1_error_bound", "mass_total"):
        assert np.float64(getattr(kept, name)).tobytes() == \
            np.float64(getattr(dropped, name)).tobytes(), name


@SETTINGS
@given(_case(max_d=3))
def test_norm_identity(case):
    _, psi, phi, level = case
    lhs, rhs = norm_identity_check(phi, psi, level)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def _norm_squared(f) -> float:
    """||f||^2 over [0, 1)^d from closed-form whole-axis integrals."""
    total = 0.0
    for ca, fa in f.terms:
        for cb, fb in f.terms:
            prod = np.conj(ca) * cb
            for x, y in zip(fa, fb):
                prod *= complex(exact_cell_integrals(x, y, np.array([0.0, 1.0]))[0])
            total += prod.real
    return total


# the error is a tensor Gauss-Legendre sum, exact to roundoff only on cells
# that resolve |f - f_n|^2: modes up to sine(2) and exp(+-2 pi i x) keep its
# frequencies at or below 8 pi, and n >= 12 keeps cells below 1/6
LOW_MODES = {"sine": (1, 2), "cexp": (-1, 1)}


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.sampled_from(sorted(LOW_MODES)).flatmap(lambda fam: _state(fam, d, LOW_MODES[fam])),
    st.one_of(_state("sine", d, LOW_MODES["sine"]), st.just(make_state("uniform", d=d))),
    st.integers(12, 20),
    st.integers(0, 2 ** 16))))
def test_bar_chart_and_its_error_split_the_norm(args):
    psi, phi, n, seed = args
    level = jittered_grid(n, psi.d, C=2.0, seed=seed)
    f = product_field(phi, psi)
    bar = discretize(f, level).norm_squared()
    err = discretization_error(f, level)
    assert bar + err ** 2 == pytest.approx(_norm_squared(f), rel=1e-12, abs=0.0)


@st.composite
def _cdfs(draw):
    """A normalised CDF of 1 to 5,000 bins: random masses with a run of
    zero-mass bins, all mass in one bin, or geometric masses from 1 down to
    1e-300 in either direction."""
    n = draw(st.integers(1, 5000))
    kind = draw(st.sampled_from(["zero_run", "one_bin", "geometric"]))
    if kind == "zero_run":
        masses = np.random.default_rng(draw(st.integers(0, 2 ** 16))).random(n)
        start = draw(st.integers(0, n - 1))
        masses[start:start + draw(st.integers(1, n))] = 0.0
        if not masses.any():
            masses[-1] = 1.0
    elif kind == "one_bin":
        masses = np.zeros(n)
        masses[draw(st.integers(0, n - 1))] = 1.0
    else:
        masses = np.geomspace(1.0, 1e-300, n)
        if draw(st.booleans()):
            masses = masses[::-1].copy()
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    return cdf


@SETTINGS
@given(_cdfs(), st.sampled_from([7, 64, 2 ** 14]))
def test_guided_inverse_cdf_equals_searchsorted(cdf, block):
    # keys at 0, at every CDF entry, one ulp below each, and the largest
    # key below 1; the guide is built `block` entries at a time
    from spatialzeno import measurement

    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf, np.nextafter(cdf, 0.0)])
    saved = measurement.DRAW_BLOCK
    try:
        measurement.DRAW_BLOCK = block
        got = measurement._inverse_cdf(cdf, u)
    finally:
        measurement.DRAW_BLOCK = saved
    assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))
