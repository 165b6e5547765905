"""What the traced run wraps, and the per-layer metrics it derives.

The layers are spatialzeno's modules.  ``FUNCTIONS`` names each wrapped
function by the module (or class) that defines it; ``targets()`` finds
every module attribute bound to that same function object, so the
wrapper sits wherever callers look the name up.  A function missing at
some later commit is an error: its layer's metrics would otherwise read 0
and look like a gain.  Update ``FUNCTIONS`` when the library's API moves.
"""

from __future__ import annotations

import statistics

import spatialzeno as sz
from spatialzeno import analysis, cli, discretizer, grids, measurement, quadrature, states

MODULES = (sz, states, grids, quadrature, measurement, discretizer, analysis, cli)


def _cells(args, kwargs, out):
    return {"cells": len(args[2]) - 1}


def _level(args, kwargs, out):
    return {"bins": out.num_bins, "parts": len(getattr(out, "parts", (out,)))}


def _per_bin_nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays if a is not None)


def _prob_y1(args, kwargs, out):
    attrs = {"table_bytes": _per_bin_nbytes(out.per_bin_amplitude, out.per_bin_mass)}
    if isinstance(args[0], states.WaveFunction):
        attrs["term_pairs"] = len(args[0].terms) * len(args[1].terms)
    return attrs


def _joint(args, kwargs, out):
    return {"table_bytes": _per_bin_nbytes(out.p_y1_bins, out.p_y0_bins)}


def _nodes(args, kwargs, out):
    level = args[1]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg", quadrature.DEFAULT_CONFIG)
    return {"nodes": level.num_bins * cfg.points_per_axis_per_bin ** level.d}


# (defining module or class, attribute, span name, counters)
FUNCTIONS = [
    (states, "make_state", "states.construct", None),
    (states, "superpose", "states.construct", None),
    (states, "tensor_product", "states.construct", None),
    (states, "make_density", "states.construct", None),
    (states, "product_field", "states.construct", None),
    (states, "exact_cell_integrals", "states.exact_cells", _cells),
    (quadrature, "cell_integrals", "quadrature.cell_integrals", None),
    (quadrature, "numeric_cell_integrals", "quadrature.numeric", _cells),
    (quadrature, "bin_inner_product", "quadrature.bin_inner_product", None),
    (grids.GridScheme, "level", "grids.level", _level),
    (grids, "rd_grid", "grids.rd_grid", None),
    (measurement, "prob_y1_pure", "measurement.prob_y1", _prob_y1),
    (measurement, "prob_y1_mixed", "measurement.prob_y1", _prob_y1),
    (measurement, "bar_norm_squared", "measurement.bar_norm", None),
    (measurement, "sample_xy", "measurement.sample", None),
    (measurement, "joint_distribution", "measurement.joint", _joint),
    (discretizer, "discretize", "discretizer.discretize", None),
    (discretizer, "discretization_error", "discretizer.error", _nodes),
    (discretizer, "norm_identity_check", "discretizer.norm_identity", None),
    (analysis, "convergence_study", "analysis.study", None),
    (analysis, "rd_study", "analysis.study", None),
    (cli, "main", "cli.run", None),
]


def targets():
    """(owner, attribute, span name, counters) for every binding."""
    found, missing = [], []
    for home, attr, span, counters in FUNCTIONS:
        fn = vars(home).get(attr)
        if fn is None:
            missing.append(f"{getattr(home, '__name__', home)}.{attr}")
            continue
        owners = [home] if isinstance(home, type) else \
            [m for m in MODULES if vars(m).get(attr) is fn]
        found.extend((owner, attr, span, counters) for owner in owners)
    if missing:
        raise LookupError("traced functions not found: " + ", ".join(missing))
    return found


def _get(summary, name, key, sub=None):
    rec = summary.get(name)
    if rec is None:
        return 0.0
    value = rec[key] if sub is None else rec[key].get(sub, 0.0)
    return float(value)


def _exact_ratio(s):
    calls = _get(s, "quadrature.cell_integrals", "calls")
    numeric = _get(s, "quadrature.cell_integrals", "with_child", "quadrature.numeric")
    return (calls - numeric) / calls if calls else 0.0


def _table_bytes(s):
    return (_get(s, "measurement.prob_y1", "attrs", "table_bytes")
            + _get(s, "measurement.joint", "attrs", "table_bytes"))


def _incl(name):
    return lambda s: _get(s, name, "incl_s")


def _self(name):
    return lambda s: _get(s, name, "self_s")


def _calls(name):
    return lambda s: _get(s, name, "calls")


def _outer(name, attr):
    return lambda s: _get(s, name, "outer_attrs", attr)


def _all(name, attr):
    return lambda s: _get(s, name, "attrs", attr)


# per-pass metrics from a traced pass: (name, unit, better, extractor)
PASS_METRICS = [
    ("states.exact_cells_s", "s", "lower", _incl("states.exact_cells")),
    ("states.exact_cells.calls", "count", "lower", _calls("states.exact_cells")),
    ("states.exact_cells.cells", "count", "lower", _outer("states.exact_cells", "cells")),
    ("states.construct.self_s", "s", "lower", _self("states.construct")),
    ("quadrature.cell_integrals.calls", "count", "lower", _calls("quadrature.cell_integrals")),
    ("quadrature.cell_integrals.self_s", "s", "lower", _self("quadrature.cell_integrals")),
    ("quadrature.exact_ratio", "ratio", "higher", _exact_ratio),
    ("quadrature.numeric_s", "s", "lower", _incl("quadrature.numeric")),
    ("quadrature.numeric.calls", "count", "lower", _calls("quadrature.numeric")),
    ("quadrature.numeric.cells", "count", "lower", _outer("quadrature.numeric", "cells")),
    ("quadrature.bin_inner_product_s", "s", "lower", _incl("quadrature.bin_inner_product")),
    ("quadrature.bin_inner_product.calls", "count", "lower",
     _calls("quadrature.bin_inner_product")),
    ("quadrature.bin_inner_product.self_s", "s", "lower",
     _self("quadrature.bin_inner_product")),
    ("grids.level_s", "s", "lower", _incl("grids.level")),
    ("grids.level.self_s", "s", "lower", _self("grids.level")),
    ("grids.rd_grid_s", "s", "lower", _incl("grids.rd_grid")),
    ("grids.levels", "count", "lower", _calls("grids.level")),
    ("grids.bins", "count", "lower", _outer("grids.level", "bins")),
    ("grids.parts", "count", "lower", _outer("grids.level", "parts")),
    ("measurement.prob_y1_s", "s", "lower", _incl("measurement.prob_y1")),
    ("measurement.prob_y1.self_s", "s", "lower", _self("measurement.prob_y1")),
    ("measurement.prob_y1.calls", "count", "lower", _calls("measurement.prob_y1")),
    ("measurement.term_pairs", "count", "lower", _all("measurement.prob_y1", "term_pairs")),
    ("measurement.bar_norm_s", "s", "lower", _incl("measurement.bar_norm")),
    ("measurement.bar_norm.self_s", "s", "lower", _self("measurement.bar_norm")),
    ("measurement.sample_s", "s", "lower", _incl("measurement.sample")),
    ("measurement.sample.self_s", "s", "lower", _self("measurement.sample")),
    ("measurement.joint_s", "s", "lower", _incl("measurement.joint")),
    ("measurement.joint.self_s", "s", "lower", _self("measurement.joint")),
    ("measurement.table_bytes", "B", "lower", _table_bytes),
    ("discretizer.discretize_s", "s", "lower", _incl("discretizer.discretize")),
    ("discretizer.discretize.self_s", "s", "lower", _self("discretizer.discretize")),
    ("discretizer.error_s", "s", "lower", _incl("discretizer.error")),
    ("discretizer.error.self_s", "s", "lower", _self("discretizer.error")),
    ("discretizer.norm_identity.self_s", "s", "lower", _self("discretizer.norm_identity")),
    ("discretizer.nodes", "count", "lower", _outer("discretizer.error", "nodes")),
    ("analysis.study_s", "s", "lower", _incl("analysis.study")),
    ("analysis.study.self_s", "s", "lower", _self("analysis.study")),
    ("cli.run_s", "s", "lower", _incl("cli.run")),
    ("cli.self_s", "s", "lower", _self("cli.run")),
]

# metrics the worker adds itself: (name, unit, better)
OTHER_METRICS = [
    ("states.construct_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.uncovered_frac", "ratio", "lower"),
]


def pass_metrics(summaries) -> dict:
    """Median over traced passes of every per-pass metric."""
    return {name: statistics.median(fn(s) for s in summaries)
            for name, _, _, fn in PASS_METRICS}


def with_units(values: dict) -> dict:
    """Every per-layer metric as {"value", "unit"}, in declaration order."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in PASS_METRICS + OTHER_METRICS}
