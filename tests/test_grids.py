"""Grid construction, validation, and point location."""

import itertools

import numpy as np
import pytest

from spatialzeno import (
    Bin,
    ConcatenatedGrid,
    CubeBox,
    GridScheme,
    InfeasibleGridError,
    Interval,
    OutOfDomainError,
    OverlappingCubesError,
    CustomGrid,
    jittered_grid,
    locate_bin,
    make_state,
    rd_grid,
    uniform_grid,
    validate_grid,
)
from spatialzeno.grids import ProductGrid
from spatialzeno.measurement import _pair_pass, _should_keep
from spatialzeno.quadrature import DEFAULT_CONFIG


def test_interval_rejects_empty_and_infinite():
    with pytest.raises(ValueError):
        Interval(0.5, 0.5)
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(0.0, np.inf)


def test_uniform_grid_1d_bins():
    g = uniform_grid(2, 1)
    assert g.num_bins == 2
    assert g.bin(0).edges == (Interval(0.0, 0.5),)
    assert g.bin(1).edges == (Interval(0.5, 1.0),)


def test_uniform_grid_identity_case():
    g = uniform_grid(1, 3)
    assert g.num_bins == 1
    assert g.bin(0).volume == pytest.approx(1.0, abs=0)


def test_uniform_grid_3x3():
    g = uniform_grid(3, 2)
    assert g.num_bins == 9
    vols = g.volumes()
    assert np.allclose(vols, 1.0 / 9.0)
    for j in range(9):
        for e in g.bin(j).edges:
            assert e.length == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("n,d", [(4, 1), (3, 2), (2, 3), (17, 1)])
def test_uniform_grid_validates(n, d):
    report = validate_grid(uniform_grid(n, d))
    assert report.passed, report.details


def test_jittered_lengths_within_bounds():
    g = jittered_grid(2, 1, C=2.0, seed=7)
    lengths = g.axis_lengths(0)
    assert np.all(lengths >= 0.25 - 1e-12)
    assert np.all(lengths <= 0.5 + 1e-12)
    assert lengths.sum() == pytest.approx(1.0, abs=1e-12)


def test_jittered_deterministic():
    a = jittered_grid(4, 1, C=1.5, seed=0)
    b = jittered_grid(4, 1, C=1.5, seed=0)
    assert np.array_equal(a.breakpoints[0], b.breakpoints[0])
    c = jittered_grid(4, 1, C=1.5, seed=1)
    assert not np.array_equal(a.breakpoints[0], c.breakpoints[0])


def test_jittered_infeasible_cell_count():
    # three lengths in [1/2.4, 1/2] sum to at least 1.25, never 1
    with pytest.raises(InfeasibleGridError):
        jittered_grid(2, 1, C=1.2, cells_per_axis=3)


def test_jittered_feasible_forced_count():
    g = jittered_grid(2, 1, C=1.2, cells_per_axis=2)
    assert g.num_bins == 2


def test_jittered_pure_function_of_args():
    for n in (2, 8, 64):
        for seed in (0, 5):
            a = jittered_grid(n, 2, C=2.0, seed=seed)
            b = jittered_grid(n, 2, C=2.0, seed=seed)
            for k in range(2):
                assert np.array_equal(a.breakpoints[k], b.breakpoints[k])


@pytest.mark.parametrize("n", [2, 5, 16, 128])
def test_jittered_validates(n):
    report = validate_grid(jittered_grid(n, 1, C=2.0, seed=n))
    assert report.passed, report.details


def test_validate_flags_oversized_edge():
    bins = [Bin((Interval(0.0, 0.4),)), Bin((Interval(0.4, 1.0),))]
    report = validate_grid(CustomGrid(2, bins, ratio_bound=2.0))
    assert not report.checks["edge_lengths"]


def test_validate_flags_overlap():
    bins = [Bin((Interval(0.0, 0.5),)), Bin((Interval(0.4, 1.0),))]
    report = validate_grid(CustomGrid(2, bins, ratio_bound=2.0))
    assert not report.checks["disjoint"]


def test_validate_flags_coverage_gap():
    bins = [Bin((Interval(0.0, 0.5),)), Bin((Interval(0.75, 1.0),))]
    report = validate_grid(CustomGrid(2, bins, ratio_bound=2.0))
    assert not report.checks["coverage"]
    assert report.checks["disjoint"] and report.checks["edge_lengths"]


def test_validate_flags_bin_outside_domain():
    # the volumes add up to the domain's, but [0.75, 1) is left out
    bins = [Bin((Interval(-0.25, 0.25),)), Bin((Interval(0.25, 0.75),))]
    report = validate_grid(CustomGrid(2, bins, ratio_bound=2.0))
    assert not report.checks["coverage"]
    assert report.checks["disjoint"] and report.checks["edge_lengths"]
    shifted = CustomGrid(2, bins, ratio_bound=2.0, domain_bounds=[(-0.25, 0.75)])
    assert validate_grid(shifted).passed


def test_custom_grid_locate_many_equals_a_membership_scan():
    base = jittered_grid(3, 2, C=2.0, seed=5)
    bins = [base.bin(j) for j in np.random.default_rng(2).permutation(base.num_bins)]
    level = CustomGrid(3, bins, ratio_bound=2.0)
    assert list(level.bins()) == bins and level.num_bins == len(bins)
    pts = np.random.default_rng(3).random((500, 2))
    pts[:len(bins)] = [b.lower for b in bins]  # every bin's lower corner
    scan = [next(j for j, b in enumerate(bins) if b.contains(pt)) for pt in pts]
    assert level.locate_many(pts).tolist() == scan
    with pytest.raises(OutOfDomainError):
        level.locate_many(np.array([[0.5, 1.0]]))


def test_locate_bin_half_open_convention():
    g = uniform_grid(2, 1)
    assert locate_bin(g, 0.5) == 1
    assert locate_bin(g, 0.0) == 0
    assert locate_bin(g, 0.4999999) == 0


def test_locate_bin_2d():
    g = uniform_grid(3, 2)
    j = locate_bin(g, (0.99, 0.01))
    b = g.bin(j)
    assert b.edges[0].lo == pytest.approx(2.0 / 3.0)
    assert b.edges[1].lo == 0.0


def test_locate_out_of_domain():
    g = uniform_grid(2, 1)
    with pytest.raises(OutOfDomainError):
        locate_bin(g, 1.0)
    with pytest.raises(OutOfDomainError):
        locate_bin(g, -0.1)


def test_locate_then_membership_is_identity():
    rng = np.random.default_rng(123)
    for level in (uniform_grid(7, 2), jittered_grid(5, 2, C=2.0, seed=9)):
        pts = rng.random((10_000, 2))
        idx = level.locate_many(pts)
        # spot-check a sample bin-by-bin; vectorised lookup equals bin membership
        for j in rng.choice(len(pts), size=200, replace=False):
            assert level.bin(int(idx[j])).contains(pts[j])


def test_volume_sums_to_domain_volume():
    for level in (uniform_grid(9, 2), jittered_grid(6, 2, C=3.0, seed=4),
                  jittered_grid(10, 1, C=1.5, seed=2)):
        assert level.volumes().sum() == pytest.approx(level.domain_volume, abs=1e-12)


def test_volume_bounds():
    for n in (2, 9, 33):
        level = jittered_grid(n, 2, C=2.0, seed=n)
        assert level.max_bin_volume <= n ** (-2) + 1e-12
        assert level.min_bin_volume >= (2.0 * n) ** (-2) - 1e-12
    # a multi-part level takes the extremes over its parts' bins
    custom = CustomGrid(2, [Bin((Interval(0.0, 0.25),)), Bin((Interval(0.25, 1.0),))])
    gapped = GridScheme("rd_translated_cubes", d=2, cubes=((0.0, 0.0), (2.0, 1.0)),
                        sub_kind="jittered", seed=1).level(3)
    assert len(custom.parts) == 2 and len(gapped.parts) == 2
    for level in (jittered_grid(9, 2, C=2.0, seed=9), custom, gapped):
        assert level.max_bin_volume == level.volumes().max()
        assert level.min_bin_volume == level.volumes().min()


def test_rd_grid_two_cubes():
    scheme = GridScheme("rd_translated_cubes", d=1, cubes=((0.0,), (1.0,)))
    level = rd_grid(scheme, 2, scheme.cubes)
    assert level.num_bins == 4
    los = [level.bin(j).edges[0].lo for j in range(4)]
    assert los == pytest.approx([0.0, 0.5, 1.0, 1.5])
    assert level.index_ranges == ((0, 4),)  # adjacent cubes form one box part


def test_rd_grid_box_bins_are_sorted_whatever_the_list_order():
    scheme = GridScheme("rd_translated_cubes", d=1, cubes=((1.0,), (0.0,)))
    level = rd_grid(scheme, 2, scheme.cubes)
    los = [level.bin(j).edges[0].lo for j in range(4)]
    assert los == pytest.approx([0.0, 0.5, 1.0, 1.5])  # not [1, 1.5, 0, 0.5]
    assert level.index_ranges == ((0, 4),)


def test_rd_grid_gapped_cubes_keep_one_part_each():
    scheme = GridScheme("rd_translated_cubes", d=1, cubes=((0.0,), (2.0,)))
    level = rd_grid(scheme, 2, scheme.cubes)
    los = [level.bin(j).edges[0].lo for j in range(4)]
    assert los == pytest.approx([0.0, 0.5, 2.0, 2.5])
    assert level.index_ranges == ((0, 2), (2, 4))


def test_rd_grid_single_shifted_cube():
    scheme = GridScheme("rd_translated_cubes", d=1, cubes=((-0.5,),))
    level = rd_grid(scheme, 1, scheme.cubes)
    assert level.num_bins == 1
    assert level.bin(0).edges[0].lo == -0.5
    assert level.bin(0).edges[0].hi == 0.5


def test_rd_grid_overlap_error():
    scheme = GridScheme("rd_translated_cubes", d=1, cubes=((0.0,), (0.5,)))
    with pytest.raises(OverlappingCubesError):
        rd_grid(scheme, 2, scheme.cubes)


@pytest.mark.parametrize("cubes", [
    ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)),  # repeated corner
    ((0.0, 0.0), (0.5, 0.9)),  # off-lattice corners
    ((0.0, 0.0, 0.0), (3.0, 0.0, 0.0), (2.5, -0.5, 0.999)),
])
def test_rd_grid_overlap_error_outside_boxes(cubes):
    scheme = GridScheme("rd_translated_cubes", d=len(cubes[0]), cubes=cubes)
    with pytest.raises(OverlappingCubesError):
        rd_grid(scheme, 2, scheme.cubes)


def _box_cubes(k, d):
    return [tuple(float(c) for c in corner)
            for corner in itertools.product(range(-k, k), repeat=d)]


def _corner_set(level):
    return sorted((b.lower, b.upper) for b in level.bins())


@pytest.mark.parametrize("d,k,n", [(2, 1, 3), (2, 2, 2), (3, 1, 2)])
@pytest.mark.parametrize("sub", ["uniform", "jittered"])
def test_rd_box_is_one_product_part_equal_to_the_cube_union(d, k, n, sub):
    base = GridScheme(sub, d=d, ratio_bound=2.0, seed=9)
    cubes = _box_cubes(k, d)
    scheme = base.with_cubes(cubes)
    box = scheme.level(n)
    # the same cubes, one part per cube, each cube's grid built alone
    union = ConcatenatedGrid(n, [rd_grid(scheme, n, [c]).parts[0] for c in cubes],
                             cubes, ratio_bound=2.0)
    assert len(box.parts) == 1 and len(union.parts) == len(cubes)
    assert box.num_bins == union.num_bins
    assert _corner_set(box) == _corner_set(union)
    for level in (box, union):
        assert validate_grid(level).passed
        assert level.domain_volume == len(cubes)
        assert level.volumes().sum() == pytest.approx(len(cubes), rel=1e-13)
    g = make_state("gaussian", mu=[0.3, -0.2, 0.1][:d], sigma=[0.8, 1.1, 0.6][:d])
    phi = make_state("gaussian", mu=[0.0] * d, sigma=[1.0] * d)
    rb = _pair_pass(g, phi, box, DEFAULT_CONFIG, keep=False, with_bar=True)
    ru = _pair_pass(g, phi, union, DEFAULT_CONFIG, keep=False, with_bar=True)
    assert rb.p_y1 == pytest.approx(ru.p_y1, rel=1e-13)
    assert rb.bar_norm_sq == pytest.approx(ru.bar_norm_sq, rel=1e-13)


def test_jittered_cube_alone_matches_its_box_segment():
    base = GridScheme("jittered", d=2, ratio_bound=2.0, seed=4)
    box = base.with_cubes(_box_cubes(2, 2)).level(5).parts[0]
    m = box.shape[0] // 4
    for cubes in ([(1.0, -2.0)], [(1.0, -2.0), (5.0, 5.0)]):  # a box, and not a box
        alone = base.with_cubes(cubes).level(5).parts[0]
        # cube (1, -2): fourth segment on axis 0, first on axis 1
        assert np.array_equal(alone.breakpoints[0], box.breakpoints[0][3 * m:4 * m + 1])
        assert np.array_equal(alone.breakpoints[1], box.breakpoints[1][:m + 1])


def test_cube_box_is_a_lazy_sequence_of_corners_in_c_order():
    box = CubeBox((2, 1, 3))
    want = [tuple(float(a) for a in c)
            for c in itertools.product(range(-2, 2), range(-1, 1), range(-3, 3))]
    assert list(box) == want
    assert len(box) == 48 and box.d == 3
    assert [box[i] for i in range(-48, 48)] == want + want
    assert all(type(a) is float for a in box[5])
    for i in (48, -49):
        with pytest.raises(IndexError):
            box[i]
    for sl in (slice(None), slice(3, 17), slice(-5, None), slice(None, None, -7),
               slice(40, 2, -3), slice(50, 60)):
        assert box[sl] == tuple(want[sl])
    assert box[np.int64(-1)] == want[-1]
    assert [ax.tolist() for ax in box.axes] == [[-2, -1, 0, 1], [-1, 0], [-3, -2, -1, 0, 1, 2]]
    assert box == CubeBox([np.int64(2), 1, 3]) and hash(box) == hash(CubeBox((2, 1, 3)))
    assert box != CubeBox((2, 1, 2)) and len({box, CubeBox((2, 1, 3))}) == 1
    assert box != want and box != tuple(want)
    for bad in ((), (0,), (2, -1)):
        with pytest.raises(ValueError):
            CubeBox(bad)
    with pytest.raises(TypeError):
        CubeBox((1.5,))


@pytest.mark.parametrize("half_widths", [(3,), (2, 1), (1, 2, 1)])
@pytest.mark.parametrize("sub", ["uniform", "jittered"])
def test_cube_box_level_equals_the_shuffled_explicit_list(half_widths, sub):
    d = len(half_widths)
    box = CubeBox(half_widths)
    base = GridScheme(sub, d=d, ratio_bound=2.0, seed=17)
    held = base.with_cubes(box)
    assert held.cubes is box
    corners = list(box)
    np.random.default_rng(2).shuffle(corners)
    listed = base.with_cubes(corners)
    assert held.describe() == listed.describe()
    for n in (1, 3, 4):
        a, b = held.level(n), rd_grid(listed, n, listed.cubes)
        assert len(a.parts) == len(b.parts) == 1
        assert a.num_cubes == b.num_cubes == len(box)
        for x, y in zip(a.parts[0].breakpoints, b.parts[0].breakpoints):
            assert x.tobytes() == y.tobytes()


def test_cubes_of_another_dimension_are_rejected():
    base = GridScheme("uniform", d=2)
    for cubes in (CubeBox((1,)), CubeBox((1, 1, 1)), [(0.0, 0.0), (1.0,)], [(0.0,)]):
        with pytest.raises(ValueError, match="dimension"):
            base.with_cubes(cubes)
    for scheme, cubes in ((GridScheme("rd_translated_cubes", d=1, cubes=((0.0, 0.0),)),
                           ((0.0, 0.0),)),
                          (GridScheme("rd_translated_cubes", d=2), CubeBox((1,)))):
        with pytest.raises(ValueError, match="dimension"):
            rd_grid(scheme, 2, cubes)


def test_validate_concatenated_checks_cube_list():
    part = uniform_grid(2, 2)
    level = ConcatenatedGrid(2, [part], [(0.0, 0.0), (1.0, 0.0)])  # 2 cubes, 1 covered
    report = validate_grid(level)
    assert not report.checks["coverage"] and report.checks["disjoint"]
    level = ConcatenatedGrid(2, [part, part], [(0.0, 0.0), (0.5, 0.0)])
    report = validate_grid(level)
    assert not report.checks["disjoint"] and "overlap" in report.details["disjoint"]


def test_concatenated_num_bins_does_not_wrap():
    part = uniform_grid(1448, 6)
    shifted = ProductGrid(1448, [part.breakpoints[0] + 1.0] + list(part.breakpoints[1:]))
    level = ConcatenatedGrid(1448, [part, shifted], [(0.0,) * 6, (1.0,) + (0.0,) * 5])
    assert level.num_bins == 2 * 1448 ** 6
    assert not _should_keep(level, "auto")


def test_rd_grid_locate_and_validate():
    scheme = GridScheme("rd_translated_cubes", d=1, cubes=((-1.0,), (0.0,), (2.0,)))
    level = rd_grid(scheme, 3, scheme.cubes)
    assert validate_grid(level).passed
    assert level.bin(locate_bin(level, -0.2)).contains(-0.2)
    assert level.bin(locate_bin(level, 2.9)).contains(2.9)
    with pytest.raises(OutOfDomainError):
        locate_bin(level, 1.5)  # gap between cubes


def test_scheme_levels_are_valid_for_every_n():
    for scheme in (GridScheme("uniform", d=2),
                   GridScheme("jittered", d=2, ratio_bound=2.0, seed=3)):
        for n in (1, 2, 3, 10, 31):
            assert validate_grid(scheme.level(n)).passed
