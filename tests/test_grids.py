"""Grid construction, validation, and point location."""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from spatialzeno import grids
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


def _breakpoints_digest(levels) -> str:
    h = hashlib.sha256()
    for level in levels:
        for part in level.parts:
            for bp in part.breakpoints:
                h.update(np.ascontiguousarray(bp, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("C, digest", [
    (1.5, "6856eb72487ce2e7e7eec092b186441a6a82bb7e04c1618796879d61f8a1e890"),
    (2.0, "cb03e6bef3c6cd00c31d60716c0c3d432701388539a94717c645ab8cf480f488"),
    (3.0, "52c818ff9e9ee532444646cdcf2da0221a58bfa7e8ee0c8c6a5af891815d05ac"),
])
def test_jittered_breakpoints_pinned(C, digest):
    # seeds 0-4, n = 2 .. 2^16 at the default cell count
    levels = (jittered_grid(2 ** e, C=C, seed=s) for s in range(5) for e in range(1, 17))
    assert _breakpoints_digest(levels) == digest


def test_jittered_breakpoints_pinned_clip_path():
    # m = n cells at C = 1.01 push lengths over 1/n on every level, so the
    # clip-and-redistribute pass runs
    levels = (jittered_grid(2 ** e, C=1.01, seed=s, cells_per_axis=2 ** e)
              for s in range(5) for e in range(1, 17))
    assert _breakpoints_digest(levels) == (
        "6f54e5ec51e34f054e6cb0ff371bbaf1d5b9b636139045b62ac832c6e99e11f5")


def test_jittered_breakpoints_pinned_2d_and_cube_box():
    assert _breakpoints_digest([jittered_grid(96, d=2, C=2.0, seed=3)]) == (
        "64502da450182bab7e7d0fd89b5d6afbc058a802c07076d049bab78e8603e8f5")
    box = GridScheme("jittered", d=2, seed=4).with_cubes(CubeBox((3, 3))).level(8)
    assert _breakpoints_digest([box]) == (
        "93869330033a5257ceeeff40a949c3fc0e686f2da231faa05d0120fa800b90ed")


def test_box_and_cube_list_breakpoints_pinned():
    # a jittered box whose forced cell count (m = 10 for n = 9 at C = 1.3)
    # sends all 10 of its axis segments through the clip pass
    clip = GridScheme("jittered", d=2, ratio_bound=1.3, seed=6,
                      cells_per_axis=10).with_cubes(CubeBox((2, 3))).level(9)
    assert _breakpoints_digest([clip]) == (
        "fe528566eac230119bfa4402564ca7f98372e75968d45f959f79060e5164defc")
    # an explicit jittered list that is not a box: one part per cube
    listed = GridScheme("jittered", d=2, seed=8).with_cubes(
        [(0.0, 0.0), (2.0, -1.0), (-3.0, 5.0), (-1.0, 0.0)]).level(5)
    assert len(listed.parts) == 4
    assert _breakpoints_digest([listed]) == (
        "eabdb195eaca110559799dd4679576eb1f125b1612bd0df29ecfd4132b165c73")
    uniform = GridScheme("uniform", d=3).with_cubes(CubeBox((2, 1, 3))).level(7)
    assert _breakpoints_digest([uniform]) == (
        "d2ec668d4ca7e96a96d5b440c409b7eb9b7bfcf94d0a328727ddbb71a7f48092")


def test_jittered_level_build_holds_one_breakpoint_array():
    # the uniforms are drawn into the breakpoint array and turned into
    # lengths and edges there; the rows to clip are found by their maxima
    # and the strictly-increasing check runs block by block, so neither
    # makes a 1 B/cell mask (1.5 MiB here)
    tracemalloc.start()
    try:
        g = jittered_grid(2 ** 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= g.breakpoints[0].nbytes + 2 ** 20, peak - g.breakpoints[0].nbytes


@pytest.mark.parametrize("at", [1, grids._CHECK_BLOCK - 1, grids._CHECK_BLOCK,
                                grids._CHECK_BLOCK + 1, 2 * grids._CHECK_BLOCK + 1])
def test_strict_increase_is_checked_across_blocks(at):
    bp = np.linspace(0.0, 1.0, 2 * grids._CHECK_BLOCK + 3)
    ProductGrid(1, [bp])
    bp[at] = bp[at - 1]
    with pytest.raises(ValueError, match="strictly increasing"):
        ProductGrid(1, [bp])


def test_product_grid_leaves_the_callers_array_writeable():
    a = np.array([0.0, 0.5, 1.0])
    g = ProductGrid(1, [a])
    assert a.flags.writeable and not g.breakpoints[0].flags.writeable
    a[1] = 0.3
    assert g.breakpoints[0].tolist() == [0.0, 0.5, 1.0]
    # a read-only array is kept as it is, not copied
    a.setflags(write=False)
    assert ProductGrid(1, [a]).breakpoints[0] is a


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
        assert level.volumes().sum() == pytest.approx(len(cubes), rel=1e-13, abs=0.0)
    g = make_state("gaussian", mu=[0.3, -0.2, 0.1][:d], sigma=[0.8, 1.1, 0.6][:d])
    phi = make_state("gaussian", mu=[0.0] * d, sigma=[1.0] * d)
    rb = _pair_pass(g, phi, box, DEFAULT_CONFIG, keep=False, with_bar=True)
    ru = _pair_pass(g, phi, union, DEFAULT_CONFIG, keep=False, with_bar=True)
    assert rb.p_y1 == pytest.approx(ru.p_y1, rel=1e-13, abs=0.0)
    assert rb.bar_norm_sq == pytest.approx(ru.bar_norm_sq, rel=1e-13, abs=0.0)


def test_jittered_cube_alone_matches_its_box_segment():
    base = GridScheme("jittered", d=2, ratio_bound=2.0, seed=4)
    box = base.with_cubes(_box_cubes(2, 2)).level(5).parts[0]
    m = box.shape[0] // 4
    for cubes in ([(1.0, -2.0)], [(1.0, -2.0), (5.0, 5.0)]):  # a box, and not a box
        alone = base.with_cubes(cubes).level(5).parts[0]
        # cube (1, -2): fourth segment on axis 0, first on axis 1
        assert np.array_equal(alone.breakpoints[0], box.breakpoints[0][3 * m:4 * m + 1])
        assert np.array_equal(alone.breakpoints[1], box.breakpoints[1][:m + 1])


def _segments(part: ProductGrid, k: int, m: int) -> dict:
    """Axis k of a part as {cube coordinate a: its segment's m + 1 breakpoints}."""
    bp = part.breakpoints[k]
    lo = part.domain_bounds[k][0]
    return {lo + i: bp[i * m:(i + 1) * m + 1] for i in range((bp.size - 1) // m)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.integers(0, 2 ** 32), st.integers(1, 12),
    st.floats(1.0, 3.0, exclude_min=True),
    st.tuples(*[st.integers(1, 3)] * d), st.booleans(),
    st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6))))
def test_jittered_cube_rows_do_not_depend_on_the_list(args):
    seed, n, C, half_widths, force, picks = args
    # a forced count of n or n + 1 cells pushes lengths over 1/n: the clip path
    m = min(n + 1, int(np.floor(C * n))) if force else None
    scheme = GridScheme("jittered", d=len(half_widths), ratio_bound=C, seed=seed,
                        cells_per_axis=m)
    box = CubeBox(half_widths)
    held = scheme.with_cubes(box).level(n).parts[0]
    m = held.shape[0] // (2 * half_widths[0])
    # an explicit sub-list of the box: a smaller box, or one part per cube
    sub = sorted({box[i % len(box)] for i in picks})
    listed = scheme.with_cubes(sub).level(n)
    for k in range(len(half_widths)):
        whole = _segments(held, k, m)
        for part in listed.parts:
            for a, seg in _segments(part, k, m).items():
                assert seg.tobytes() == whole[a].tobytes()
        for a, seg in whole.items():
            assert seg[0] == a and seg[-1] == a + 1.0
            gaps = np.diff(seg)
            assert gaps.min() >= 1.0 / (C * n) - 1e-12 and gaps.max() <= 1.0 / n + 1e-12


@pytest.mark.parametrize("n, d, C, seed, cells", [(8, 2, 2.0, 4, None), (9, 3, 1.3, 6, 10),
                                                  (1, 1, 2.5, 0, None)])
def test_origin_cube_has_the_unit_cube_jittered_axes(n, d, C, seed, cells):
    unit = jittered_grid(n, d, C=C, seed=seed, cells_per_axis=cells)
    m = unit.shape[0]
    scheme = GridScheme("jittered", d=d, ratio_bound=C, seed=seed, cells_per_axis=cells)
    box = scheme.with_cubes(CubeBox((2,) * d)).level(n).parts[0]
    for corner in ((0.0,) * d, (-0.0,) * d):
        alone = scheme.with_cubes([corner]).level(n).parts[0]
        for k in range(d):
            assert alone.breakpoints[k].tobytes() == unit.breakpoints[k].tobytes()
            # the origin is the third of the box's four segments
            assert box.breakpoints[k][2 * m:3 * m + 1].tobytes() == \
                unit.breakpoints[k].tobytes()


@pytest.mark.parametrize("seed, message", [(-1, "seed must be a non-negative integer"),
                                           (2.5, "seed must be an integer")])
def test_bad_seeds_raise_before_any_level_is_built(seed, message):
    for make in (lambda: GridScheme("jittered", seed=seed),
                 lambda: GridScheme("uniform", d=2, seed=seed),
                 lambda: GridScheme("rd_translated_cubes", cubes=((0.0,),),
                                    sub_kind="jittered", seed=seed),
                 lambda: jittered_grid(4, seed=seed)):
        with pytest.raises(ValueError, match=message):
            make()
    # an integral float is its integer twin, as in a config
    assert GridScheme("jittered", seed=3.0).level(5).breakpoints[0].tobytes() == \
        jittered_grid(5, seed=3).breakpoints[0].tobytes()


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
    with pytest.raises(ValueError, match="dimension"):
        GridScheme("rd_translated_cubes", d=1, cubes=((0.0, 0.0),))
    with pytest.raises(ValueError, match="dimension"):
        rd_grid(GridScheme("rd_translated_cubes", d=2), 2, CubeBox((1,)))


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


def _no_level(monkeypatch):
    """Building a product part or drawing a jittered axis now fails with
    an AssertionError, so an error that comes after one shows."""
    def no_build(*args, **kwargs):
        raise AssertionError("a level was built before its integers were read")

    monkeypatch.setattr(grids, "ProductGrid", no_build)
    monkeypatch.setattr(grids, "_jitter_axis", no_build)


@pytest.mark.parametrize("build, name", [
    (lambda: ProductGrid(8.5, [[0.0, 1.0]]), "n"),
    (lambda: uniform_grid(8.5), "n"),
    (lambda: uniform_grid(4, d=2.5), "d"),
    (lambda: jittered_grid(8.5), "n"),
    (lambda: jittered_grid(4, d=2.5), "d"),
    (lambda: jittered_grid(16, cells_per_axis=20.7), "cells_per_axis"),
    (lambda: GridScheme("uniform").level(8.5), "n"),
    (lambda: GridScheme("jittered", seed=1).level(8.5), "n"),
    (lambda: GridScheme("rd_translated_cubes", cubes=((0.0,),)).level(8.5), "n"),
    (lambda: GridScheme("uniform", d=1.5), "d"),
    (lambda: GridScheme("jittered", cells_per_axis=20.7), "cells_per_axis"),
])
def test_non_integral_integers_raise_before_any_level_is_built(monkeypatch, build, name):
    _no_level(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got \d+\.\d+$"):
        build()


def test_integral_float_integers_are_their_integer_twins():
    def same(a, b):
        return all(x.tobytes() == y.tobytes() for x, y in zip(a.breakpoints, b.breakpoints))

    level = uniform_grid(4.0, d=2.0)
    assert (type(level.n), type(level.d)) == (int, int)
    assert same(level, uniform_grid(4, d=2))
    assert same(jittered_grid(16.0, d=2.0, seed=3.0, cells_per_axis=20.0),
                jittered_grid(16, d=2, seed=3, cells_per_axis=20))
    scheme = GridScheme("jittered", d=2.0, seed=3.0, cells_per_axis=6.0)
    twin = GridScheme("jittered", d=2, seed=3, cells_per_axis=6)
    # json.dumps writes 2.0 for a float, so equal text means int fields
    assert json.dumps(scheme.describe()) == json.dumps(twin.describe())
    assert same(scheme.level(4.0), twin.level(4))


@pytest.mark.parametrize("build, message", [
    (lambda: ProductGrid(0, [[0.0, 1.0]]), "resolution index n must be >= 1"),
    (lambda: ProductGrid(1, [[0.0, 1.0]], ratio_bound=1.0), "ratio bound C must exceed 1"),
    (lambda: ProductGrid(1, []), "need at least one axis"),
    (lambda: ProductGrid(1, [[0.0]]), "each axis needs at least two breakpoints"),
    (lambda: ProductGrid(1, [[0.0, 0.5, 0.5, 1.0]]), "breakpoints must be strictly increasing"),
    (lambda: CustomGrid(1, []), "need at least one bin"),
    (lambda: CustomGrid(1, [Bin((Interval(0.0, 1.0),)), Bin((Interval(0.0, 1.0),) * 2)]),
     "all bins must share the same dimension"),
    (lambda: GridScheme("hexagonal"), "unknown grid kind 'hexagonal'"),
    (lambda: GridScheme("rd_translated_cubes").level(4), "rd scheme needs a cube list"),
    (lambda: rd_grid(GridScheme("uniform"), 2, []), "need at least one cube"),
    (lambda: rd_grid(GridScheme("uniform", d=2), 2, [(0.0, 0.0), (1.0,)]),
     "all cubes must share the same dimension"),
    (lambda: rd_grid(GridScheme("uniform"), 2, [0.0, 1.0]),
     "all cubes must share the same dimension"),
    (lambda: rd_grid(GridScheme("uniform"), 2, [(np.nan,)]), "cube corners must be finite"),
    (lambda: rd_grid(GridScheme("uniform"), 2, [(0.0,), (np.inf,)]),
     "cube corners must be finite"),
])
def test_grid_validation_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert info.type is ValueError and str(info.value) == message


_NON_REALS = [np.nan, np.inf, -np.inf, "2", None]


@pytest.mark.parametrize("C", _NON_REALS, ids=repr)
@pytest.mark.parametrize("build", [
    lambda C: uniform_grid(4, ratio_bound=C),
    lambda C: ProductGrid(4, [np.arange(5) / 4], ratio_bound=C),
    lambda C: jittered_grid(4, C=C),
    lambda C: CustomGrid(1, [Bin((Interval(0.0, 1.0),))], ratio_bound=C),
], ids=["uniform_grid", "ProductGrid", "jittered_grid", "CustomGrid"])
def test_a_ratio_bound_that_is_not_a_finite_real_raises(build, C):
    with pytest.raises(ValueError, match=r"^ratio bound C must be a finite real number, got "):
        build(C)


@pytest.mark.parametrize("C", _NON_REALS, ids=repr)
@pytest.mark.parametrize("kind", grids.GRID_KINDS)
def test_a_scheme_reads_its_ratio_bound_before_any_level_is_built(monkeypatch, kind, C):
    _no_level(monkeypatch)
    with pytest.raises(ValueError, match=r"^ratio bound C must be a finite real number, got "):
        GridScheme(kind, ratio_bound=C)


@pytest.mark.parametrize("build, message", [
    (lambda: GridScheme("uniform", d=0), "d must be >= 1, got 0"),
    (lambda: GridScheme("jittered", ratio_bound=1.0), "ratio bound C must exceed 1"),
    (lambda: GridScheme("rd_translated_cubes", sub_kind="hex", cubes=((0.0,),)),
     "unknown per-cube scheme 'hex'"),
    (lambda: GridScheme("jittered", sub_kind="jittered"),
     "sub_kind is for rd schemes; a jittered scheme got sub_kind='jittered'"),
    (lambda: GridScheme("uniform", sub_kind="jittered"),
     "sub_kind is for rd schemes; a uniform scheme got sub_kind='jittered'"),
    (lambda: GridScheme("rd_translated_cubes", d=2, cubes=((0.0,),)),
     "cubes of dimension 1 for a scheme with d=2"),
    (lambda: GridScheme("rd_translated_cubes", d=2, cubes=CubeBox((1,))),
     "cubes of dimension 1 for a scheme with d=2"),
    (lambda: GridScheme("rd_translated_cubes", cubes=((0.0,), (np.nan,))),
     "cube corners must be finite"),
    (lambda: GridScheme("rd_translated_cubes", cubes=(("0.5",),)),
     "cube corners must be real numbers, got [['0.5']]"),
    (lambda: GridScheme("rd_translated_cubes", cubes=()), "need at least one cube"),
    (lambda: GridScheme("uniform").with_cubes([(np.nan,)]), "cube corners must be finite"),
    (lambda: GridScheme("uniform", d=2).with_cubes([(0.0, 0.0), (1.0,)]),
     "all cubes must share the same dimension"),
])
def test_a_scheme_checks_its_fields_on_construction(monkeypatch, build, message):
    _no_level(monkeypatch)
    with pytest.raises(ValueError) as info:
        build()
    assert info.type is ValueError and str(info.value) == message


def test_a_scheme_describes_a_seed_only_where_its_cells_are_jittered():
    cubes = ((0.0,),)
    for scheme, jittered in [
            (GridScheme("uniform"), False), (GridScheme("jittered"), True),
            (GridScheme("rd_translated_cubes", cubes=cubes), False),
            (GridScheme("rd_translated_cubes", cubes=cubes, sub_kind="jittered"), True),
            (GridScheme("jittered").with_cubes(cubes), True)]:
        described = scheme.describe()
        assert ("seed" in described) is jittered
        assert ("cells_per_axis" in described) is jittered


def test_a_scheme_without_cubes_is_valid_until_a_level_is_asked_for():
    scheme = GridScheme("rd_translated_cubes", sub_kind="jittered")
    assert scheme.cubes is None and scheme.describe()["num_cubes"] == 0
    with pytest.raises(ValueError, match="^rd scheme needs a cube list$"):
        scheme.level(4)


def test_a_listed_scheme_is_hashable_and_equals_its_tuple_twin():
    twin = GridScheme("rd_translated_cubes", cubes=((0.0,), (1.0,)))
    for cubes in ([[0.0], [1.0]], [[0], [1]], np.array([[0.0], [1.0]])):
        scheme = GridScheme("rd_translated_cubes", cubes=cubes)
        assert scheme == twin and hash(scheme) == hash(twin)
        assert [type(a) for c in scheme.cubes for a in c] == [float, float]
    box = CubeBox((1, 2))
    assert GridScheme("jittered", d=2).with_cubes(box).cubes is box


def test_an_integral_ratio_bound_is_its_float_twin():
    for kind in ("uniform", "jittered"):
        scheme, twin = GridScheme(kind, ratio_bound=2), GridScheme(kind, ratio_bound=2.0)
        # json.dumps writes 2 for an int and 2.0 for a float
        assert json.dumps(scheme.describe()) == json.dumps(twin.describe())
        assert type(scheme.ratio_bound) is float
        a, b = scheme.level(8), twin.level(8)
        assert a.breakpoints[0].tobytes() == b.breakpoints[0].tobytes()
    a, b = jittered_grid(8, C=3), jittered_grid(8, C=3.0)
    assert a.ratio_bound == 3.0 and a.breakpoints[0].tobytes() == b.breakpoints[0].tobytes()


def test_with_cubes_keeps_the_per_cube_kind():
    for base, sub in ((GridScheme("jittered", seed=4), "jittered"),
                      (GridScheme("uniform"), "uniform"),
                      (GridScheme("rd_translated_cubes", sub_kind="jittered"), "jittered")):
        scheme = base.with_cubes([(0.0,), (2.0,)])
        assert (scheme.kind, scheme.sub_kind, scheme.seed) == ("rd_translated_cubes", sub,
                                                               base.seed)
        assert scheme.cubes == ((0.0,), (2.0,))


@pytest.mark.parametrize("build, message", [
    (lambda: Interval("0", 1.0), "lo must be a finite real number, got '0'"),
    (lambda: Interval(0.0, np.inf), "hi must be a finite real number, got inf"),
    (lambda: CustomGrid(1, [Bin((Interval(0.0, 1.0),))], domain_bounds=[("0", 1.0)]),
     "domain_bounds must be a finite real number, got '0'"),
])
def test_real_grid_parameters_are_read_once(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert info.type is ValueError and str(info.value) == message


def test_an_interval_stores_its_ends_as_floats():
    cell = Interval(np.float32(0.25), 1)
    assert (cell.lo, cell.hi) == (0.25, 1.0)
    assert (type(cell.lo), type(cell.hi)) == (float, float)


_ONE_BIN = CustomGrid(1, [Bin((Interval(0.0, 1.0),))])


@pytest.mark.parametrize("call, error, message", [
    (lambda: Bin(()), ValueError, "a bin needs at least one axis"),
    (lambda: Bin((Interval(0.0, 1.0),)).contains((0.5, 0.5)), ValueError,
     "point has 2 coordinates, bin has 1"),
    (lambda: uniform_grid(4).locate((0.5, 0.5)), ValueError,
     "point has 2 coordinates, grid has 1"),
    (lambda: uniform_grid(4).locate_many(np.zeros((3, 2))), ValueError,
     "points have 2 coordinates, grid has 1"),
    (lambda: _ONE_BIN.locate_many(np.zeros((3, 2))), ValueError,
     "points have 2 coordinates, grid has 1"),
    (lambda: grids.GridLevel(4, []), ValueError, "need at least one part"),
    (lambda: _ONE_BIN.bin(9), IndexError, "9"),
    (lambda: uniform_grid(0), ValueError, "need n >= 1 and d >= 1"),
    (lambda: jittered_grid(0), ValueError, "need n >= 1 and d >= 1"),
    (lambda: rd_grid(GridScheme("uniform"), 0, [(0.0,)]), ValueError,
     "resolution index n must be >= 1"),
    (lambda: rd_grid(GridScheme("uniform", d=2), 2,
                     [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]),
     OverlappingCubesError,
     "cubes at (0.0, 0.0) and (0.0, 0.0) overlap (corner distance < 1 on every axis)"),
])
def test_grid_errors_no_other_test_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message
