"""Small calls at kernel cost: the one-cell axis, the kept norm, and R^d
levels whose equal axes are one array.

The one-cell branch of ``quadrature._axis_pass`` (a bin, a norm's domain
box, a hull) must give the blocked walk's numbers bit for bit: the values
below were taken with the blocked walk, as ``float.hex``, and every
breakpoint sha256 of the R^d levels likewise.
"""

import dataclasses
import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from spatialzeno import (
    CATALOG,
    CubeBox,
    CustomGrid,
    GridScheme,
    bin_inner_product,
    inner_product,
    joint_distribution,
    jittered_grid,
    make_density,
    make_state,
    prob_y1_mixed,
    prob_y1_pure,
    rd_study,
    superpose,
    tensor_product,
    uniform_grid,
)
from spatialzeno import measurement, quadrature
from spatialzeno.grids import Bin, Interval


def _states():
    return {"uniform": make_state("uniform"), "sine3": make_state("sine_mode", k=3),
            "cexp2": make_state("complex_exponential", k=2),
            "haar": make_state("haar_like", seed=3, pieces=8),
            "power": make_state("power_singular", alpha=0.3),
            # a real pair and complex pairs: the cells are promoted
            "mix": superpose([(0.8, make_state("sine_mode", k=1)),
                              (0.6j, make_state("complex_exponential", k=1))])}


def _cases():
    s, t = _states(), tensor_product
    return {
        "sine3/uniform": (s["sine3"], s["uniform"]),
        "cexp2/sine3": (s["cexp2"], s["sine3"]),
        "mix/mix": (s["mix"], s["mix"]),
        "haar/sine3": (s["haar"], s["sine3"]),
        # past the power series: numeric cells with a nonzero error
        "power/sine3": (s["power"], s["sine3"]),
        "power/mix": (s["power"], s["mix"]),
        "sp12/uniform2": (make_state("sine_product", ks=[1, 2]), make_state("uniform", d=2)),
        "power.sine1/sine3.uniform": (t([s["power"], make_state("sine_mode", k=1)]),
                                      t([s["sine3"], s["uniform"]])),
        "mix.power/sine3.haar": (t([s["mix"], s["power"]]), t([s["sine3"], s["haar"]])),
        "mix.cexp2.sine3/power.mix.uniform": (t([s["mix"], s["cexp2"], s["sine3"]]),
                                              t([s["power"], s["mix"], s["uniform"]])),
    }


# (bin value, bin error, <phi|psi>, its error on the domain box, mass_total
# on uniform_grid(1, d), mass_total on jittered_grid(2, d, seed=4)); the bin
# is [0.125 + k/4, 0.5 + k/4) on axis k
ONE_CELL_PINS = {'cexp2/sine3': (('-0x1.e6b65d2f07266p-3', '-0x1.779c8c56b7250p-3'),
                 '0x0.0p+0',
                 ('-0x1.8b1c3917ea0b0p-2', '0x0.0p+0'),
                 '0x0.0p+0',
                 '0x1.0000000000001p+0',
                 '0x1.0000000000001p+0'),
 'haar/sine3': (('0x1.8b1a379dcda7fp-4', '0x1.7c597697a54a2p-5'),
                '0x0.0p+0',
                ('0x1.13bd107e41854p-2', '-0x1.278e142b578fap-4'),
                '0x0.0p+0',
                '0x1.0000000000001p+0',
                '0x1.0000000000001p+0'),
 'mix.cexp2.sine3/power.mix.uniform': (('0x1.45b05c3ac96a0p-8', '-0x1.33cf5bb93923ep-7'),
                                       '0x0.0p+0',
                                       ('-0x1.f615957fbb2ffp-8', '0x1.be329398df305p-11'),
                                       '0x0.0p+0',
                                       '0x1.0000000000001p+0',
                                       '0x1.0000000000001p+0'),
 'mix.power/sine3.haar': (('-0x1.77ab3ad076bf2p-6', '0x1.927f0ead3a318p-6'),
                          '0x0.0p+0',
                          ('-0x1.6ff6d82f6900ep-5', '-0x1.1486292596a2fp-4'),
                          '0x0.0p+0',
                          '0x1.0000000000002p+0',
                          '0x1.0000000000002p+0'),
 'mix/mix': (('0x1.668b209aa38f4p-3', '0x0.0p+0'),
             '0x0.0p+0',
             ('0x1.0000000000001p+0', '0x0.0p+0'),
             '0x0.0p+0',
             '0x1.0000000000001p+0',
             '0x1.0000000000001p+0'),
 'power.sine1/sine3.uniform': (('0x1.71bcbfaa870afp-5', '0x0.0p+0'),
                               '0x1.70945ee9058bap-33',
                               ('0x1.1d7b39464bbd0p-2', '0x0.0p+0'),
                               '0x1.30558b217afb5p-30',
                               '0x1.0000000000001p+0',
                               '0x1.0000000000001p+0'),
 'power/mix': (('0x1.257837b772ac5p-3', '-0x1.90afafcbab50bp-5'),
               '0x0.0p+0',
               ('0x1.1034f0be1a28bp-1', '0x1.e3d0b0d319f19p-5'),
               '0x0.0p+0',
               '0x1.0000000000001p+0',
               '0x1.0000000000001p+0'),
 'power/sine3': (('0x1.78d6a677ff388p-4', '0x0.0p+0'),
                 '0x1.77a8948000000p-32',
                 ('0x1.3d170d4c1d447p-2', '0x0.0p+0'),
                 '0x1.5207bed000000p-30',
                 '0x1.0000000000001p+0',
                 '0x1.0000000000001p+0'),
 'sine3/uniform': (('0x1.d6681bc7323f4p-5', '0x0.0p+0'),
                   '0x0.0p+0',
                   ('0x1.334ed7129996cp-2', '0x0.0p+0'),
                   '0x0.0p+0',
                   '0x1.0000000000000p+0',
                   '0x1.0000000000000p+0'),
 'sp12/uniform2': (('-0x1.0f1e8f324058dp-4', '0x0.0p+0'),
                   '0x0.0p+0',
                   ('0x0.0p+0', '0x0.0p+0'),
                   '0x0.0p+0',
                   '0x1.0000000000000p+0',
                   '0x1.0000000000000p+0')}


def _hex(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("case", sorted(ONE_CELL_PINS))
def test_one_cell_axes_keep_the_blocked_walk_bits(case):
    phi, psi = _cases()[case]
    d = phi.d
    cell = Bin(tuple(Interval(0.125 + 0.25 * k, 0.5 + 0.25 * k) for k in range(d)))
    r = bin_inner_product(phi, psi, cell)
    box = [np.array(phi.domain.axis_bounds(k)) for k in range(d)]
    got = (_hex(r.value), r.error.hex(), _hex(inner_product(phi, psi)),
           quadrature._region_integral(phi, psi, box).error.hex(),
           prob_y1_pure(psi, phi, uniform_grid(1, d)).mass_total.hex(),
           prob_y1_pure(psi, phi, jittered_grid(2, d, seed=4)).mass_total.hex())
    assert got == ONE_CELL_PINS[case]


def _no_table(*args, **kwargs):
    raise AssertionError("a one-cell axis built a shared phase table")


def _no_integral(*args, **kwargs):
    raise AssertionError("a region integral ran")


def test_one_cell_axes_build_no_phase_table(monkeypatch):
    monkeypatch.setattr(quadrature, "PhaseTable", _no_table)
    for phi, psi in _cases().values():
        d = phi.d
        inner_product(phi, psi)
        bin_inner_product(phi, psi, Bin((Interval(0.25, 0.5),) * d))
        r = prob_y1_pure(psi, phi, uniform_grid(1, d), keep_per_bin=True)
        assert r.per_bin_mass.shape == (1,)


def test_one_cell_pass_matches_the_blocked_walk():
    # the branch against the blocked walk on the same cell, as the second
    # cell of a two-cell axis whose first cell is its mirror image
    for phi, psi in _cases().values():
        pairs = list(quadrature._term_pairs(phi, psi))
        for k in range(phi.d):
            one = quadrature._axis_pass(pairs, k, np.array([0.25, 0.5]),
                                        quadrature.DEFAULT_CONFIG, True, True, True)
            two = quadrature._axis_pass(pairs, k, np.array([0.0, 0.25, 0.5]),
                                        quadrature.DEFAULT_CONFIG, True, True, False)
            assert one.cells.dtype == two.cells.dtype
            assert one.cells.shape == (len(pairs), 1)
            assert np.array_equal(one.cells[:, 0], two.cells[:, 1])
            # the one-cell Grams are those of the blocked walk on one cell
            V = one.cells
            V_c = V.conj() if np.iscomplexobj(V) else V
            want = np.zeros_like(one.gram)
            want += np.einsum("ai,bi->ab", V, V_c, optimize=False)
            assert np.array_equal(one.gram, want)


def test_a_one_bin_part_is_walked_once_for_its_masses(monkeypatch):
    psi, phi = make_state("sine_mode", k=2), make_state("uniform")
    level = CustomGrid(3, [Bin((Interval(0.0, 0.25),)), Bin((Interval(0.25, 0.6),)),
                           Bin((Interval(0.6, 1.0),))])
    want = [float(np.real(bin_inner_product(psi, psi, b).value)) for b in level.bins()]
    walks = []
    pair_data = quadrature._pair_data

    def counting(*args, **kwargs):
        walks.append(args[2])
        return pair_data(*args, **kwargs)

    for module in (quadrature, measurement):
        monkeypatch.setattr(module, "_pair_data", counting)
    r = prob_y1_pure(psi, phi, level, keep_per_bin=True)
    # per part: one phi-psi walk and one psi-psi hull walk, whose cells
    # are the part's masses
    assert len(walks) == 2 * 3
    assert r.per_bin_mass.tolist() == want


def _catalog_states():
    params = {"uniform": {"d": 2}, "sine_mode": {"k": 3}, "sine_product": {"ks": [1, 2, 3]},
              "complex_exponential": {"k": -2}, "indicator": {"a": 0.2, "b": 0.7},
              "power_singular": {"alpha": 0.3}, "haar_like": {"seed": 5},
              "gaussian": {"mu": [0.3, -1.0], "sigma": [0.8, 1.5]},
              "superpose": {"terms": [(0.6, make_state("sine_mode", k=1)),
                                      (0.8j, make_state("sine_mode", k=2))]}}
    assert sorted(params) == sorted(CATALOG)
    out = {name: make_state(name, **p) for name, p in params.items()}
    out["superpose real"] = superpose([(1.0, make_state("sine_mode", k=1)),
                                       (-0.5, make_state("power_singular", alpha=0.2))])
    out["tensor_product"] = tensor_product([out["superpose"], out["haar_like"]])
    return out


def _integrated(psi):
    return float(np.real(inner_product(psi, psi)))


@pytest.mark.parametrize("name", sorted(_catalog_states()))
def test_a_checked_state_keeps_its_norm_bit_for_bit(name, monkeypatch):
    psi = _catalog_states()[name]
    want = _integrated(psi)
    monkeypatch.setattr(quadrature, "_region_cells", _no_integral)
    assert psi.norm_squared() == want  # read, not integrated


def test_density_terms_keep_their_norms(monkeypatch):
    rho = make_density([(0.5, make_state("sine_mode", k=1)),
                        (0.3, superpose([(1.0, make_state("sine_mode", k=2)),
                                         (1.0j, make_state("sine_mode", k=3))]))])
    want = [_integrated(psi) for _, psi in rho.terms]
    monkeypatch.setattr(quadrature, "_region_cells", _no_integral)
    assert [psi.norm_squared() for _, psi in rho.terms] == want


def test_unchecked_and_derived_states_integrate_their_own_norms():
    psi = _catalog_states()["superpose"]
    unchecked = dataclasses.replace(psi, check_norm=False)
    relabelled = dataclasses.replace(psi, label="again")
    collapsed = psi.restrict(Bin((Interval(0.0, 0.5),)), 1.5)
    euclidean = psi.as_euclidean()
    for state in (unchecked, collapsed, euclidean):
        assert state._norm_sq is None
        assert state.norm_squared() == _integrated(state)
    # a replace that checks keeps the norm it checked itself
    assert relabelled._norm_sq == _integrated(relabelled)
    assert collapsed.norm_squared() != psi.norm_squared()


def test_the_kept_norm_is_no_part_of_eq_hash_repr_or_pickle():
    psi = make_state("uniform")
    assert repr(psi) == (
        "WaveFunction(domain=Domain(kind='unit_cube', d=1), terms=(((1+0j), (Trig1D(terms=(((1+0j), 0.0),), support=(0.0, 1.0), envelope=(inf, 0.0)),)),), label='uniform(d=1)', check_norm=True)")
    unchecked = dataclasses.replace(psi, check_norm=False)
    assert unchecked == dataclasses.replace(psi, check_norm=False)
    assert psi == make_state("uniform") and hash(psi) == hash(make_state("uniform"))
    for state in (psi, _catalog_states()["superpose"], unchecked):
        back = pickle.loads(pickle.dumps(state))
        assert back == state and hash(back) == hash(state) and repr(back) == repr(state)
        assert back.norm_squared() == state.norm_squared()


def test_rd_study_reads_the_checked_norm(monkeypatch):
    g = make_state("gaussian", mu=[0.0, 0.0], sigma=[1.0, 1.0])
    want = rd_study(g, g, GridScheme("uniform", d=2), [2, 4, 8], 1 - 1e-8)
    calls = []
    region_cells = quadrature._region_cells

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return region_cells(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_region_cells", counting)
    record, tail = rd_study(g, g, GridScheme("uniform", d=2), [2, 4, 8], 1 - 1e-8)
    assert calls == []  # no ||phi||^2 integral, no hull
    assert tail == want[1]
    assert [(r.p_y1, r.error_bound) for r in record.rows] == \
        [(r.p_y1, r.error_bound) for r in want[0].rows]


def test_closed_forms_build_no_error_sums(monkeypatch):
    def no_sums(*args, **kwargs):
        raise AssertionError("error sums built for closed forms")

    psi, phi = make_state("sine_product", ks=[1, 2]), make_state("uniform", d=2)
    want = prob_y1_pure(psi, phi, jittered_grid(8, 2, seed=1), keep_per_bin=False)
    monkeypatch.setattr(measurement, "_error_bound", no_sums)
    r = prob_y1_pure(psi, phi, jittered_grid(8, 2, seed=1), keep_per_bin=False)
    assert (r.p_y1, r.p_y1_error_bound) == (want.p_y1, want.p_y1_error_bound)
    # a numeric pair reports errors, and its sums are built
    with pytest.raises(AssertionError, match="error sums"):
        prob_y1_pure(make_state("power_singular", alpha=0.3), make_state("sine_mode", k=3),
                     uniform_grid(4), keep_per_bin=False)


# sha256 (first 16 hex digits) of every breakpoint array, part by part,
# of R^d levels over cube boxes and a cube list (scheme seed 9)
LEVEL_SHA = {'jittered box (1, 2) n=1': ['9fa4a5b5772de47d', '8170f04b926103a9'],
 'jittered box (1, 2) n=3': ['c41883491a43d08e', 'adb16a87de2ac550'],
 'jittered box (1, 2) n=4': ['961e637617920eb6', '054e3c4714456fe0'],
 'jittered box (2, 2) n=1': ['8170f04b926103a9', '8170f04b926103a9'],
 'jittered box (2, 2) n=3': ['f2ecb557344a042e', 'adb16a87de2ac550'],
 'jittered box (2, 2) n=4': ['2e3503bff318265d', '054e3c4714456fe0'],
 'jittered box (3, 3, 3) n=1': ['930e7e163d94b787', '930e7e163d94b787', '930e7e163d94b787'],
 'jittered box (3, 3, 3) n=3': ['c630c15626cb0c53', 'f7b4dc8e42584dc9', 'a6f4054b9d3eb049'],
 'jittered box (3, 3, 3) n=4': ['6e3fb35546022b94', 'a2bc22a47189c2a6', '8d5e057826bdcab0'],
 'jittered list n=3': ['6405fbaaf9f60355',
                       'fdc2353cfa16c21e',
                       '47e3c2c7b66cf451',
                       '3ba3529191f1d675',
                       '29003d2bbaff5175',
                       'fdc2353cfa16c21e'],
 'uniform box (1, 2) n=1': ['fb1aa2ca369460d4', 'e6b8b965cc8e918e'],
 'uniform box (1, 2) n=3': ['e86c90179d552ba6', '441cb41c9228ce92'],
 'uniform box (1, 2) n=4': ['ba5ed02c65ab8cf4', 'e7eca065d5b9b833'],
 'uniform box (2, 2) n=1': ['e6b8b965cc8e918e', 'e6b8b965cc8e918e'],
 'uniform box (2, 2) n=3': ['441cb41c9228ce92', '441cb41c9228ce92'],
 'uniform box (2, 2) n=4': ['e7eca065d5b9b833', 'e7eca065d5b9b833'],
 'uniform box (3, 3, 3) n=1': ['4058c845a7113330', '4058c845a7113330', '4058c845a7113330'],
 'uniform box (3, 3, 3) n=3': ['7007f741e6137f07', '7007f741e6137f07', '7007f741e6137f07'],
 'uniform box (3, 3, 3) n=4': ['2868c20ae4a229f8', '2868c20ae4a229f8', '2868c20ae4a229f8'],
 'uniform list n=3': ['8988e87e5e60a9ca',
                      '8988e87e5e60a9ca',
                      '8b9591ad8d1d779f',
                      'e3c9dd77178742f4',
                      '289d043e51aa6e1c',
                      '8988e87e5e60a9ca']}


def _level(key):
    kind, rest = key.split(" ", 1)
    n = int(rest.rsplit("n=", 1)[1])
    if rest.startswith("list"):
        cubes, d = [(0.0, 0.0), (2.0, -1.0), (-3.0, 0.0)], 2
    else:
        hw = tuple(int(c) for c in rest[rest.index("(") + 1:rest.index(")")].split(","))
        cubes, d = CubeBox(hw), len(hw)
    return GridScheme(kind, d=d, seed=9).with_cubes(cubes).level(n)


@pytest.mark.parametrize("key", sorted(LEVEL_SHA))
def test_rd_level_breakpoints_keep_their_bits(key):
    level = _level(key)
    got = [hashlib.sha256(np.ascontiguousarray(bp).tobytes()).hexdigest()[:16]
           for part in level.parts for bp in part.breakpoints]
    assert got == LEVEL_SHA[key]
    for part in level.parts:
        assert all(not bp.flags.writeable for bp in part.breakpoints)


def test_equal_uniform_box_axes_are_one_array():
    for hw in ((2, 2), (3, 3, 3)):
        level = GridScheme("uniform", d=len(hw)).with_cubes(CubeBox(hw)).level(4)
        (part,) = level.parts
        assert all(bp is part.breakpoints[0] for bp in part.breakpoints)
    # unequal half-widths, and jittered axes, stay separate arrays
    (part,) = GridScheme("uniform", d=2).with_cubes(CubeBox((1, 2))).level(4).parts
    assert part.breakpoints[0] is not part.breakpoints[1]
    (part,) = GridScheme("jittered", d=2, seed=9).with_cubes(CubeBox((2, 2))).level(4).parts
    assert part.breakpoints[0] is not part.breakpoints[1]
    assert not np.array_equal(part.breakpoints[0], part.breakpoints[1])


def _peak(call) -> int:
    call()  # rules and caches of a first call are not the call's own
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _superpose(ks):
    return superpose([(complex(0.3 + 0.2 * i, 0.1 * i), make_state("sine_mode", k=k))
                      for i, k in enumerate(ks)])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_table_guard_count_bounds_small_levels(d):
    # the count bounds the peak from one bin up: the per-bin and per-cell
    # terms, and the call's own objects
    phi = make_state("uniform", d=d)
    pure = make_state("sine_product", ks=[1, 2, 3][:d])
    rho = make_density([(0.6, make_state("sine_product", ks=[1] * d)),
                        (0.4, make_state("sine_product", ks=[2] * d))])
    several = tensor_product([_superpose([1, 2, 5])] * d) if d > 1 else _superpose(range(1, 9))
    for n in range(1, 17):
        level = uniform_grid(n, d)
        for state, call in ((pure, prob_y1_pure), (rho, prob_y1_mixed),
                            (several, prob_y1_pure), (rho, joint_distribution)):
            counted = measurement._table_bytes(level, measurement._TABLE_BYTES_PER_BIN,
                                               measurement._kept_tables(state, phi))
            kwargs = {} if call is joint_distribution else {"keep_per_bin": True}
            peak = _peak(lambda: call(state, phi, level, **kwargs))
            assert peak <= counted, (n, call.__name__, peak - counted)
