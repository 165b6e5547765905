"""Config-driven experiment runner with machine-readable CSV/JSON output.

Subcommands::

    spatialzeno run <config.json>       run one experiment
    spatialzeno validate <config.json>  schema check only
    spatialzeno capabilities            stable JSON feature report

Flags: ``--output-dir``, ``--format csv|json|both``.  Exit codes:
0 success, 2 unreadable/unparsable config, 3 schema violation, 4 compute
failure.  Every output file embeds the schema version and a hash of the
config, and identical configs reproduce byte-identical outputs for one
numpy build and SIMD level, on any BLAS kernel and thread count (every
computation runs in one Python thread, no sum that reaches an output is
a BLAS product, and volatile timings are never serialized).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from . import __version__
from .analysis import convergence_study, rd_study
from .discretizer import discretize, discretization_error
from .grids import GRID_KINDS, GridScheme
from .measurement import joint_distribution, prob_y1_mixed, prob_y1_pure, sample_xy
from .quadrature import QuadratureConfig
from .states import (CATALOG, CatalogEntry, _SEED, make_density, make_state,
                     product_field, superpose)

SCHEMA_VERSION = "1"

EXPERIMENTS = ("probability", "convergence", "sample", "discretize", "joint", "rd_study")

# rows per block of the CSV writer
CSV_BLOCK = 2 ** 12

EXIT_CONFIG_PARSE = 2
EXIT_SCHEMA = 3
EXIT_COMPUTE = 4

_NUM = {"type": "number"}
_INT = {"type": "integer"}

_STATE_REF = {"$ref": "#/$defs/state"}


def _state_form(name: str, entry: CatalogEntry) -> dict:
    """The config object of one catalog entry, from its parameter schemas;
    a superpose term is a ``coeff`` [re, im] pair and a nested state."""
    params = dict(entry.params)
    if name == "superpose":
        params["terms"] = {**params["terms"], "items": {
            "type": "object", "additionalProperties": False,
            "required": ["coeff", "state"],
            "properties": {"coeff": {"type": "array", "items": _NUM,
                                     "minItems": 2, "maxItems": 2},
                           "state": _STATE_REF}}}
    return {"type": "object", "additionalProperties": False,
            "required": ["catalog", *entry.required],
            "properties": {"catalog": {"const": name}, **params}}


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "experiment", "d", "grid"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"enum": list(EXPERIMENTS)},
        "d": {"type": "integer", "minimum": 1},
        "psi": _STATE_REF,
        "density": {
            "type": "object",
            "additionalProperties": False,
            "required": ["terms"],
            "properties": {
                "terms": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["weight", "state"],
                        "properties": {"weight": {"type": "number", "minimum": 0},
                                       "state": _STATE_REF},
                    },
                },
                "renormalize": {"type": "boolean"},
            },
        },
        "phi": _STATE_REF,
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(GRID_KINDS)},
                "C": {"type": "number", "exclusiveMinimum": 1},
                "seed": _SEED,
                "cells_per_axis": {"type": ["integer", "null"]},
                "cubes": {"type": "array", "minItems": 1,
                          "items": {"type": "array", "items": _NUM, "minItems": 1}},
                "sub_kind": {"enum": ["uniform", "jittered"]},
            },
        },
        "n": {"type": "integer", "minimum": 1},
        "n_list": {"type": "array", "minItems": 3,
                   "items": {"type": "integer", "minimum": 1}},
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "points_per_axis_per_bin": {"type": "integer", "minimum": 2},
                "abs_tol": {"type": "number", "exclusiveMinimum": 0},
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "subdivision_limit": {"type": "integer", "minimum": 0},
            },
        },
        "seed": _SEED,
        "count": {"type": "integer", "minimum": 1},
        "mass_target": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "fit_window": {"type": "array", "items": _INT, "minItems": 2, "maxItems": 2},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "stem": {"type": "string"},
                "format": {"enum": ["csv", "json", "both"]},
            },
        },
    },
    "allOf": [
        {"oneOf": [{"required": ["psi"], "not": {"required": ["density"]}},
                   {"required": ["density"], "not": {"required": ["psi"]}}]},
        {"if": {"properties": {"experiment": {"const": "probability"}}},
         "then": {"required": ["phi", "n"]}},
        {"if": {"properties": {"experiment": {"const": "convergence"}}},
         "then": {"required": ["phi", "n_list"]}},
        {"if": {"properties": {"experiment": {"const": "sample"}}},
         "then": {"required": ["phi", "n", "count", "seed"]}},
        {"if": {"properties": {"experiment": {"const": "joint"}}},
         "then": {"required": ["phi", "n"]}},
        # discretize reads a pure psi: a density has no bar chart of conj(phi) psi
        {"if": {"properties": {"experiment": {"const": "discretize"}}},
         "then": {"required": ["n", "psi"]}},
        {"if": {"properties": {"experiment": {"const": "rd_study"}}},
         "then": {"required": ["phi", "n_list", "mass_target"]}},
    ],
    "$defs": {"state": {"oneOf": [_state_form(name, entry)
                                  for name, entry in CATALOG.items()]}},
}


# CONFIG_SCHEMA is a constant, so it is checked against the 2020-12
# metaschema once, by the test suite, not on every run
_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


class CliError(Exception):
    def __init__(self, code: int, error_kind: str, message: str, **extra):
        super().__init__(message)
        self.code = code
        self.payload = {"error": {"kind": error_kind, "message": message, **extra}}


def build_state(spec: dict):
    spec = dict(spec)
    tag = spec.pop("catalog")
    if tag == "superpose":
        terms = [(complex(t["coeff"][0], t["coeff"][1]), build_state(t["state"]))
                 for t in spec.pop("terms")]
        return superpose(terms)
    return make_state(tag, **spec)


def build_density(spec: dict):
    terms = [(t["weight"], build_state(t["state"])) for t in spec["terms"]]
    return make_density(terms, renormalize=spec.get("renormalize", False))


def build_scheme(spec: dict, d: int) -> GridScheme:
    kind = spec["kind"]
    kwargs = dict(kind=kind, d=d, ratio_bound=spec.get("C", 2.0),
                  seed=spec.get("seed", 0), cells_per_axis=spec.get("cells_per_axis"))
    if kind == "rd_translated_cubes":
        kwargs["cubes"] = spec["cubes"]
        kwargs["sub_kind"] = spec.get("sub_kind", "uniform")
    return GridScheme(**kwargs)


def build_quadrature(spec: dict | None) -> QuadratureConfig:
    return QuadratureConfig(**(spec or {}))


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _state_or_density(config: dict):
    if "density" in config:
        return build_density(config["density"]), True
    return build_state(config["psi"]), False


# The CSV field kernel.  Fields are fixed-width uint8 rows padded with
# spaces, which never occur in a CSV value and are deleted once per block.
_PAD = 32
# 10^j for |j| <= _POW10 as a double-double; 2^27 + 1 splits a double into
# 26-bit halves for Dekker's exact product
_POW10, _SPLITTER = 300, 134217729.0
# the |v| the double-double product decides; outside it, %.17g itself
_EXACT_MIN, _EXACT_MAX = 1e-280, 1e280
# a scaled fraction this close to 1/2 is left to %.17g: a tie rounds to even
_TIE = 1e-6


@functools.cache
def _pow10():
    """10^j for |j| <= _POW10 as hi + lo, and hi's 26-bit halves; built on
    first use, as is ``_words``."""
    exact = [Fraction(10) ** j for j in range(-_POW10, _POW10 + 1)]
    hi = np.array([float(x) for x in exact])
    lo = np.array([float(x - Fraction(h)) for x, h in zip(exact, hi.tolist())])
    c = _SPLITTER * hi
    hi_hi = c - (c - hi)
    return hi, lo, hi_hi, hi - hi_hi


@functools.cache
def _words():
    """The 10^4 four-digit ASCII words as uint32 in seven variants: rows
    0-4 with the last m digits blanked (row 0 is ``%04d``), row 5 ``%4d``
    with 0 blank, row 6 ``%4d``; each word's trailing zero count (4 for 0);
    and the ``e%+03d`` suffix of each exponent |j| <= _POW10 in 8 bytes,
    blank where ``%g`` writes fixed notation."""
    w = np.arange(10 ** 4, dtype=np.uint16)
    words = np.empty((7, 10 ** 4, 4), np.uint8)
    zeros = np.zeros(10 ** 4, np.uint8)
    for c, place in enumerate((1000, 100, 10, 1)):
        words[:, :, c] = 48 + w // place % 10
        words[5:, w < place, c] = _PAD
        zeros += w % (10 * place) == 0
    for m in range(1, 5):
        words[m, :, 4 - m:] = _PAD
    words[6, 0, 3] = 48
    suffix = [b"" if -4 <= j < 17 else b"e%+03d" % j for j in range(-_POW10, _POW10 + 1)]
    return words.view(np.uint32).ravel(), zeros, _ascii(suffix, 8).view(np.uint64).ravel()


def _ascii(strings, width: int | None = None) -> np.ndarray:
    """Byte strings as a (len, width) uint8 matrix padded with spaces."""
    a = np.array(strings, dtype=f"S{width}" if width else "S")
    a = a.view(np.uint8).reshape(len(strings), a.itemsize)
    return np.where(a == 0, np.uint8(_PAD), a)


def _decimal17(v: np.ndarray):
    """(N, X, undecided) for float64 ``v``: |v| = N 10^(X-16) to 17
    significant digits as ``%.17g`` rounds it, N in [1e16, 1e17), and
    N = X = 0 for a zero.

    For 1e-280 <= |v| <= 1e280, k = floor(log10 |v|) is read from log10
    and corrected against 10^k exactly, and N = round(|v| 10^(16-k)) comes
    from Dekker's two-product of |v| and hi(10^(16-k)) plus
    |v| lo(10^(16-k)), exact to about 1e-14 in N; N = 10^17 carries into
    X.  ``undecided`` marks the values this does not decide: not finite,
    |v| outside that range (subnormals included), or a scaled fraction
    within 1e-6 of 1/2, exact ties among them."""
    hi, lo, hi_hi, hi_lo = _pow10()
    a = np.abs(v)
    zero = a == 0
    undecided = ~(zero | ((a >= _EXACT_MIN) & (a <= _EXACT_MAX)))
    a[undecided | zero] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    # log10 may round across a power of ten either way; a >= 10^k iff
    # a > hi(10^k), or a == hi(10^k) and lo(10^k) <= 0
    j = k + _POW10
    k -= (a < hi[j]) | ((a == hi[j]) & (lo[j] > 0))
    j = k + 1 + _POW10
    k += (a > hi[j]) | ((a == hi[j]) & (lo[j] <= 0))
    # p + t = a 10^(16-k) in [1e16, 1e17), where p = fl(a hi) >= 2^53 is
    # an integer and t = (a hi - p) + a lo
    j = 16 - k + _POW10
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi[j]
    t = (((a_hi * hi_hi[j] - p) + a_hi * hi_lo[j] + a_lo * hi_hi[j])
         + a_lo * hi_lo[j]) + a * lo[j]
    whole = np.floor(t)
    frac = t - whole
    undecided |= np.abs(frac - 0.5) < _TIE
    big = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = big == 10 ** 17
    big[carry] = 10 ** 16
    k += carry
    big[zero] = 0
    k[zero] = 0
    return big, k, undecided


def _float_fields(v: np.ndarray) -> np.ndarray:
    """``%.17g`` of each float64 of ``v`` as padded fields: the digits of
    ``_decimal17`` in ``%g``'s layout, fixed notation for -4 <= X < 17,
    else ``d.ddd`` and ``e%+03d``, trailing zeros and a bare point
    dropped; the rows are grouped by the point's position.  ``'%.17g' % v``
    fills the field of a value ``_decimal17`` leaves undecided."""
    words, zeros, suffix = _words()
    n = len(v)
    big, x, fall = _decimal17(v)
    fixed = (x >= -4) & (x < 17)
    # digits shown: the significant ones, at least the integer part's
    lead = big // 10 ** 16
    r = big - lead * 10 ** 16
    groups = []
    for e in (10 ** 12, 10 ** 8, 10 ** 4):
        q = r // e
        groups.append(q)
        r -= q * e
    groups.append(r)
    tz = zeros[groups[3]]
    for i in (2, 1, 0):
        tz += np.where(tz == 4 * (3 - i), zeros[groups[i]], 0)
    shown = np.maximum(np.where(big == 0, 0, 17 - tz),
                       np.where(fixed & (x >= 0), x + 1, 1))
    # the 17 digit slots, blanked past the shown ones, as d[:, 0:17]
    slots = np.empty((n, 20), np.uint8)
    slots[:, 3] = 48 + lead
    slot_words = slots[:, 4:].view(np.uint32)
    for i in range(4):
        blank = np.minimum(np.maximum(5 + 4 * i - shown, 0), 4)
        slot_words[:, i] = np.take(words, blank * 10 ** 4 + groups[i], mode="clip")
    d = slots[:, 3:]
    # the point goes before digit slot at - 4, at 1..4 after "0." and zeros
    at = np.where(fixed, 5 + x, 5)
    count = np.bincount(at, minlength=22)
    mantissa = 22 if count[:5].any() else 18
    exponent = not fixed.all()
    width = 1 + mantissa + 5 * exponent
    if fall.any():
        spelled = _ascii(["%.17g" % y for y in v[fall].tolist()])
        width = max(width, spelled.shape[1])
    out = np.full((n, width), _PAD, np.uint8)
    out[:, 0] = np.where(np.signbit(v), 45, _PAD)
    for q in np.flatnonzero(count):
        rows = slice(None) if count[q] == n else np.flatnonzero(at == q)
        if q >= 5:
            i = q - 4
            out[rows, 1:1 + i] = d[rows, :i]
            if i < 17:
                out[rows, 1 + i] = np.where(d[rows, i] == _PAD, _PAD, 46)
                out[rows, 2 + i:19] = d[rows, i:]
        else:
            out[rows, 1:7 - q] = 48
            out[rows, 2] = 46
            out[rows, 7 - q:24 - q] = d[rows]
    if exponent:
        sfx = np.take(suffix, x + _POW10, mode="clip").view(np.uint8).reshape(n, 8)
        out[:, 1 + mantissa:6 + mantissa] = sfx[:, :5]
    if fall.any():
        out[fall] = _PAD
        out[fall, :spelled.shape[1]] = spelled
    return out


def _int_fields(v: np.ndarray, digits: int, signed: bool) -> np.ndarray:
    """``%s`` of int64 ``v`` with |v| < 10^digits as padded fields, one
    sign column when ``signed``: four-digit words right to left, a word
    with no digits left of it written without leading zeros."""
    words = _words()[0]
    n, size = len(v), -(-digits // 4)
    out = np.empty((n, 4 * size), np.uint8)
    out_words = out.view(np.uint32)
    r = np.abs(v)
    for i in reversed(range(size)):
        q = r // 10 ** 4
        variant = np.where(q == 0, 6 if i == size - 1 else 5, 0)
        out_words[:, i] = np.take(words, variant * 10 ** 4 + r - q * 10 ** 4, mode="clip")
        r = q
    out = out[:, 4 * size - digits:]
    if not signed:
        return out
    return np.hstack([np.where(v < 0, 45, _PAD).astype(np.uint8)[:, None], out])


def _str_fields(v: np.ndarray) -> np.ndarray:
    """``%s`` of each value, one Python ``str`` each."""
    return _ascii([str(x).encode() for x in v.tolist()])


def _column_fields(a: np.ndarray):
    """(values, field writer) of one CSV column."""
    if a.dtype.kind == "f":
        return a.astype(np.float64, copy=False), _float_fields
    if a.dtype.kind in "iu" and a.size:
        low, high = int(a.min()), int(a.max())
        if -10 ** 16 < low and high < 10 ** 16:
            return a.astype(np.int64, copy=False), functools.partial(
                _int_fields, digits=len(str(max(-low, high))), signed=low < 0)
    return a, _str_fields


def _csv_lines(header: list[str], columns: list, chash: str) -> Iterator[str]:
    """CSV text of one sequence of values per header field, yielded as the
    header lines and then one string per block: float columns with 17
    significant digits (``%.17g``, the digits of ``f"{x:.17g}"``), other
    columns (integers) with ``%s``.

    Each block of CSV_BLOCK rows is one uint8 matrix: each column's
    padded fields (``_float_fields``; ``_int_fields`` for an integer
    column with every |v| < 10^16), the commas and the newline side by
    side, written out with the pads deleted.  ``%`` formats only what the
    kernel does not decide: in a float column the values ``_float_fields``
    names (not finite, |v| outside [1e-280, 1e280], or a scaled fraction
    within 1e-6 of 1/2); every value of any other column with ``%s``, such
    as Python ints beyond int64 or integers of 10^16 and more."""
    arrays = [np.asarray(c) for c in columns]
    writers = [_column_fields(a) for a in arrays]
    rows = len(arrays[0])
    yield f"# schema_version={SCHEMA_VERSION} config_hash={chash}\n{','.join(header)}\n"
    for s in range(0, rows, CSV_BLOCK):
        n = min(CSV_BLOCK, rows - s)
        comma = np.full((n, 1), 44, np.uint8)
        row = np.hstack([f for a, fields in writers for f in (fields(a[s:s + n]), comma)])
        row[:, -1] = 10
        yield row.tobytes().translate(None, b" ").decode("ascii")


def _run_experiment(config: dict) -> tuple[str, float, dict, Iterator[str]]:
    """Returns (key name, key scalar, json payload, csv text blocks)."""
    chash = config_hash(config)
    experiment = config["experiment"]
    scheme = build_scheme(config["grid"], config["d"])
    d = scheme.d
    cfg = build_quadrature(config.get("quadrature"))
    state, is_density = _state_or_density(config)
    phi = build_state(config["phi"]) if "phi" in config else None
    payload: dict = {"schema_version": SCHEMA_VERSION, "config_hash": chash,
                     "experiment": experiment}

    if experiment == "probability":
        level = scheme.level(config["n"])
        r = (prob_y1_mixed if is_density else prob_y1_pure)(
            state, phi, level, cfg, keep_per_bin=False)
        payload["result"] = {"n": r.n, "num_bins": r.num_bins, "p_y1": r.p_y1,
                             "error_bound": r.p_y1_error_bound,
                             "mass_total": r.mass_total}
        csv = _csv_lines(["n", "num_bins", "p_y1", "error_bound", "scaled_p"],
                         [[r.n], [r.num_bins], [r.p_y1], [r.p_y1_error_bound],
                          [float(r.n ** d * r.p_y1)]], chash)
        return "p_y1", r.p_y1, payload, csv

    if experiment in ("convergence", "rd_study"):
        n_list = config["n_list"]
        if experiment == "rd_study":
            record, tail = rd_study(state, phi, scheme, n_list,
                                    config["mass_target"], cfg,
                                    fit_window=config.get("fit_window"))
            payload["tail_budget"] = {"num_cubes": len(tail.cubes),
                                      "captured_mass": tail.captured_mass,
                                      "tail_bound": tail.tail_bound}
        else:
            record = convergence_study(state, phi, scheme, n_list, cfg,
                                       fit_window=config.get("fit_window"))
        payload["result"] = {
            "scheme": record.scheme, "state": record.state_label,
            "phi": record.phi_label, "fitted_rate": record.fitted_rate,
            "fitted_constant": record.fitted_constant,
            "fit_residual": record.fit_residual,
            "fit_window": list(record.fit_window),
            "rows": [{"n": r.n, "num_bins": r.num_bins, "p_y1": r.p_y1,
                      "error_bound": r.error_bound,
                      "bar_norm_sq": r.bar_norm_sq} for r in record.rows],
        }
        csv = _csv_lines(
            ["n", "num_bins", "p_y1", "error_bound", "scaled_p"],
            list(zip(*[(r.n, r.num_bins, r.p_y1, r.error_bound,
                        float(r.n ** d * r.p_y1)) for r in record.rows])), chash)
        return "fitted_rate", record.fitted_rate, payload, csv

    if experiment == "sample":
        level = scheme.level(config["n"])
        batch = sample_xy(state, phi, level, cfg, count=config["count"],
                          seed=config["seed"])
        emp = float(batch.y.mean())
        payload["result"] = {"n": level.n, "count": batch.count,
                             "seed": batch.seed, "empirical_p_y1": emp}
        csv = _csv_lines(["index", "x_bin", "y"],
                         [np.arange(batch.count), batch.x, batch.y], chash)
        return "empirical_p_y1", emp, payload, csv

    if experiment == "joint":
        level = scheme.level(config["n"])
        jd = joint_distribution(state, phi, level, cfg)
        payload["result"] = {"n": level.n, "p_y1": jd.p_y1, "total": jd.total}
        csv = _csv_lines(["bin", "p_x_and_y1", "p_x_and_y0"],
                         [np.arange(jd.p_y1_bins.size), jd.p_y1_bins,
                          jd.p_y0_bins], chash)
        return "p_y1", jd.p_y1, payload, csv

    if experiment == "discretize":
        level = scheme.level(config["n"])
        target = product_field(phi, state) if phi is not None else state
        disc = discretize(target, level, cfg)
        err = discretization_error(target, level, cfg)
        payload["result"] = {"n": level.n, "num_bins": level.num_bins,
                             "l2_error": err, "norm_sq": disc.norm_squared()}
        csv = _csv_lines(["bin", "average_re", "average_im", "volume"],
                         [np.arange(disc.averages.size), disc.averages.real,
                          disc.averages.imag,
                          np.asarray(level.volumes(), dtype=float)], chash)
        return "l2_error", err, payload, csv

    raise CliError(EXIT_COMPUTE, "compute-failure", f"unhandled experiment {experiment!r}")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(EXIT_CONFIG_PARSE, "config-parse",
                       f"cannot read config {path!r}: {e}")
    try:
        config = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(EXIT_CONFIG_PARSE, "config-parse",
                       f"config {path!r} is not valid JSON: {e}")
    return config


def validate_config(config: dict) -> None:
    error = best_match(_VALIDATOR.iter_errors(config))
    if error is None:
        return
    field = ".".join(str(p) for p in error.absolute_path) or "<root>"
    missing = None
    if error.validator == "required":
        present = error.instance.keys() if isinstance(error.instance, dict) else ()
        missing = [f for f in error.validator_value if f not in present]
    raise CliError(EXIT_SCHEMA, "schema-violation", error.message,
                   field=missing[0] if missing else field)


def version_and_capabilities() -> dict:
    """Stable feature report for tooling; byte-identical across calls."""
    return {
        "package": "spatialzeno",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "catalog": sorted(CATALOG),
        "grid_kinds": sorted(GRID_KINDS),
        "experiments": sorted(EXPERIMENTS),
    }


def run(config_path: str, output_dir: str | None = None,
        fmt: str | None = None) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        config = load_config(config_path)
        validate_config(config)
        out_spec = config.get("output", {})
        directory = Path(output_dir or out_spec.get("dir", "."))
        stem = out_spec.get("stem", config["experiment"])
        chosen = fmt or out_spec.get("format", "both")
        try:
            key, value, payload, csv_blocks = _run_experiment(config)
            # RFC 8259 JSON has no NaN or Infinity: such a result is a failure,
            # found before any file is written
            json_text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except CliError:
            raise
        except Exception as e:
            raise CliError(EXIT_COMPUTE, "compute-failure", f"{type(e).__name__}: {e}")
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        if chosen in ("csv", "both"):
            p = directory / f"{stem}.csv"
            with p.open("w") as f:
                f.writelines(csv_blocks)  # each block written as it is made
            paths.append(str(p))
        if chosen in ("json", "both"):
            p = directory / f"{stem}.json"
            p.write_text(json_text + "\n")
            paths.append(str(p))
        print(f"{config['experiment']} {key}={value!r} -> {','.join(paths)}")
        return 0
    except CliError as e:
        print(json.dumps(e.payload, sort_keys=True))
        return e.code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spatialzeno",
        description="Coarse position measurement + rank-one projection experiments")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--format", choices=["csv", "json", "both"], default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="schema-check a config")
    p_val.add_argument("config")
    sub.add_parser("capabilities", help="print the feature report")

    args = parser.parse_args(argv)
    if args.command == "capabilities":
        print(json.dumps(version_and_capabilities(), sort_keys=True, indent=2))
        return 0
    if args.command == "validate":
        try:
            validate_config(load_config(args.config))
        except CliError as e:
            print(json.dumps(e.payload, sort_keys=True))
            return e.code
        print(f"valid {args.config}")
        return 0
    return run(args.config, output_dir=args.output_dir, fmt=args.format)


if __name__ == "__main__":
    sys.exit(main())
