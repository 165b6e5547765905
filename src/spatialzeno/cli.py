"""Config-driven experiment runner with machine-readable CSV/JSON output.

Subcommands::

    spatialzeno run <config.json>       run one experiment
    spatialzeno validate <config.json>  schema check only
    spatialzeno capabilities            stable JSON feature report

Flags: ``--output-dir``, ``--format csv|json|both``.  Exit codes:
0 success, 2 unreadable/unparsable config, 3 schema violation, 4 compute
failure.  Every output file embeds the schema version and a hash of the
config, and identical configs reproduce byte-identical outputs at a fixed
BLAS thread count (every computation runs in one Python thread, and
volatile timings are never serialized; a BLAS product split over threads,
such as the one-term bar Gram's dot product, can change in its last bit
with the thread count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

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

# rows per ``%`` format of the CSV writer
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


def _csv_lines(header: list[str], columns: list, chash: str) -> str:
    """CSV text from one sequence of values per header field: float columns
    with 17 significant digits (``%.17g``, the digits of ``f"{x:.17g}"``),
    other columns (integers) with ``%s``.  Each block of CSV_BLOCK rows is
    one ``%`` format, the row format once per row applied to the block's
    values row by row, so the boxed values never outnumber one block's."""
    arrays = [np.asarray(c) for c in columns]
    row = ",".join("%.17g" if a.dtype.kind == "f" else "%s" for a in arrays) + "\n"
    rows, k = len(arrays[0]), len(arrays)
    pieces = [f"# schema_version={SCHEMA_VERSION} config_hash={chash}\n",
              ",".join(header) + "\n"]
    for s in range(0, rows, CSV_BLOCK):
        n = min(CSV_BLOCK, rows - s)
        values = [None] * (n * k)
        for j, a in enumerate(arrays):
            values[j::k] = a[s:s + n].tolist()
        pieces.append((row * n) % tuple(values))
    return "".join(pieces)


def _run_experiment(config: dict) -> tuple[str, float, dict, str]:
    """Returns (key name, key scalar, json payload, csv text body)."""
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
            key, value, payload, csv_text = _run_experiment(config)
            # RFC 8259 JSON has no NaN or Infinity: such a result is a failure
            json_text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except CliError:
            raise
        except Exception as e:
            raise CliError(EXIT_COMPUTE, "compute-failure", f"{type(e).__name__}: {e}")
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        if chosen in ("csv", "both"):
            p = directory / f"{stem}.csv"
            p.write_text(csv_text)
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
