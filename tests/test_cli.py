"""Config-driven runner: schema validation, outputs, exit codes, determinism."""

import hashlib
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spatialzeno import make_state
from spatialzeno.cli import (
    CONFIG_SCHEMA,
    EXIT_COMPUTE,
    EXIT_CONFIG_PARSE,
    EXIT_SCHEMA,
    build_state,
    main,
    version_and_capabilities,
)
from spatialzeno.states import CATALOG


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def base_probability_config(**overrides):
    config = {
        "schema_version": "1",
        "experiment": "probability",
        "d": 1,
        "psi": {"catalog": "uniform"},
        "phi": {"catalog": "uniform"},
        "grid": {"kind": "uniform"},
        "n": 10,
    }
    config.update(overrides)
    return config


def test_probability_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", base_probability_config(
        output={"stem": "prob"}))
    code = main(["--output-dir", str(tmp_path), "run", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "p_y1=0.1" in out
    csv_text = (tmp_path / "prob.csv").read_text()
    assert csv_text.startswith("# schema_version=1 config_hash=")
    row = csv_text.splitlines()[2].split(",")
    assert float(row[2]) == pytest.approx(0.1, abs=1e-15)
    payload = json.loads((tmp_path / "prob.json").read_text())
    assert payload["result"]["p_y1"] == pytest.approx(0.1, abs=1e-15)
    assert payload["config_hash"]


def test_convergence_run_has_rows_and_rate(tmp_path, capsys):
    config = {
        "schema_version": "1",
        "experiment": "convergence",
        "d": 1,
        "psi": {"catalog": "sine_mode", "k": 1},
        "phi": {"catalog": "sine_mode", "k": 1},
        "grid": {"kind": "uniform"},
        "n_list": [2 ** k for k in range(1, 11)],
        "output": {"stem": "conv"},
    }
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == 0
    lines = (tmp_path / "conv.csv").read_text().splitlines()
    assert lines[1] == "n,num_bins,p_y1,error_bound,scaled_p"
    assert len(lines) == 12  # hash comment + header + 10 rows
    payload = json.loads((tmp_path / "conv.json").read_text())
    assert payload["result"]["fitted_rate"] == pytest.approx(1.0, abs=0.1)


def test_missing_phi_exits_3_and_names_field(tmp_path, capsys):
    config = base_probability_config()
    del config["phi"]
    cfg = write_config(tmp_path, "bad.json", config)
    assert main(["run", cfg]) == EXIT_SCHEMA
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "schema-violation"
    assert err["error"]["field"] == "phi"


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json",
                       base_probability_config(extra_knob=3))
    assert main(["run", cfg]) == EXIT_SCHEMA


def test_unparsable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_CONFIG_PARSE
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "config-parse"


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == EXIT_CONFIG_PARSE


def test_compute_failure_exits_4(tmp_path, capsys):
    # schema-valid but semantically impossible: 3 cells at n=2 with C=1.2
    config = base_probability_config(
        grid={"kind": "jittered", "C": 1.2, "seed": 0, "cells_per_axis": 3},
        n=2)
    cfg = write_config(tmp_path, "bad.json", config)
    assert main(["run", cfg]) == EXIT_COMPUTE
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "compute-failure"


def test_validate_subcommand(tmp_path, capsys):
    good = write_config(tmp_path, "good.json", base_probability_config())
    assert main(["validate", good]) == 0
    bad = write_config(tmp_path, "bad.json", base_probability_config(n=0))
    assert main(["validate", bad]) == EXIT_SCHEMA


def test_capabilities_report():
    report = version_and_capabilities()
    assert "power_singular" in report["catalog"]
    assert report["schema_version"] == "1"
    a = json.dumps(version_and_capabilities(), sort_keys=True)
    b = json.dumps(version_and_capabilities(), sort_keys=True)
    assert a == b


@pytest.mark.parametrize("overrides, field", [
    ({"grid": {"kind": "jittered", "seed": -3}}, "grid.seed"),
    ({"experiment": "sample", "count": 10, "seed": -1}, "seed"),
    ({"psi": {"catalog": "haar_like", "seed": -1}}, "psi"),
])
def test_negative_seeds_are_schema_violations(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, "neg.json", base_probability_config(**overrides))
    for command in (["validate", cfg], ["--output-dir", str(tmp_path), "run", cfg]):
        assert main(command) == EXIT_SCHEMA
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "schema-violation" and err["field"] == field


def test_config_schema_is_pinned():
    # the catalog feeds the schema, so a catalog change that alters it shows
    text = json.dumps(CONFIG_SCHEMA, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "59f8ff6ecdaba58d00a7f98564a9e8e37404f606396f31d6ffa760b8d9cc90f2")


@pytest.mark.parametrize("mu, sigma", [(0.0, float("nan")), (float("nan"), 1.0),
                                       (0.0, float("inf"))])
def test_non_finite_gaussian_config_exits_4(tmp_path, capsys, mu, sigma):
    g = {"catalog": "gaussian", "mu": mu, "sigma": sigma}
    cfg = write_config(tmp_path, "g.json", base_probability_config(
        psi=g, phi=g, output={"stem": "out"}))
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == EXIT_COMPUTE
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "compute-failure"
    assert "finite" in err["error"]["message"]
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("overrides", [
    {"grid": {"kind": "uniform", "C": float("nan")}},
    {"grid": {"kind": "uniform", "C": float("inf")}},
    {"grid": {"kind": "jittered", "C": float("nan"), "seed": 1}},
    {"grid": {"kind": "jittered", "C": float("inf"), "seed": 1}},
    {"experiment": "convergence", "n_list": [4, 8, 16], "n": None,
     "grid": {"kind": "uniform", "C": float("nan")}},
    {"psi": None, "density": {"terms": [
        {"weight": float("nan"), "state": {"catalog": "sine_mode", "k": 1}},
        {"weight": 0.5, "state": {"catalog": "sine_mode", "k": 2}}]}},
], ids=["uniform-C-nan", "uniform-C-inf", "jittered-C-nan", "jittered-C-inf",
        "convergence-C-nan", "density-weight-nan"])
def test_a_non_finite_real_in_a_config_exits_4(tmp_path, capsys, overrides):
    # the schema's bounds let NaN and Infinity through (comparisons with NaN
    # are false), so the library's reader names them
    config = base_probability_config(output={"stem": "out"}, **overrides)
    config = {k: v for k, v in config.items() if v is not None}
    cfg = write_config(tmp_path, "c.json", config)
    assert main(["validate", cfg]) == 0
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == EXIT_COMPUTE
    err = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
    assert err["kind"] == "compute-failure" and "finite" in err["message"]
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
def test_a_non_finite_result_exits_4_and_writes_no_file(tmp_path, capsys, monkeypatch, fmt):
    # RFC 8259 JSON has no NaN: the payload is serialized strictly before
    # either file is written
    from spatialzeno import cli
    measure = cli.prob_y1_pure

    def nan_p_y1(*args, **kwargs):
        r = measure(*args, **kwargs)
        return types.SimpleNamespace(n=r.n, num_bins=r.num_bins, p_y1=float("nan"),
                                     p_y1_error_bound=r.p_y1_error_bound,
                                     mass_total=r.mass_total)

    monkeypatch.setattr(cli, "prob_y1_pure", nan_p_y1)
    cfg = write_config(tmp_path, "p.json", base_probability_config(
        output={"stem": "out", "format": fmt}))
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == EXIT_COMPUTE
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "compute-failure" and "JSON compliant" in err["message"]
    assert not list(tmp_path.glob("out.*"))


def test_capabilities_stdout_byte_identical(capsys):
    main(["capabilities"])
    first = capsys.readouterr().out
    main(["capabilities"])
    second = capsys.readouterr().out
    assert first == second


def test_identical_config_reproduces_outputs_byte_for_byte(tmp_path):
    config = {
        "schema_version": "1",
        "experiment": "sample",
        "d": 1,
        "psi": {"catalog": "sine_mode", "k": 1},
        "phi": {"catalog": "sine_mode", "k": 1},
        "grid": {"kind": "jittered", "C": 2.0, "seed": 5},
        "n": 16,
        "count": 2000,
        "seed": 77,
    }
    cfg = write_config(tmp_path, "s.json", config)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--output-dir", str(out_a), "run", cfg]) == 0
    assert main(["--output-dir", str(out_b), "run", cfg]) == 0
    assert (out_a / "sample.csv").read_bytes() == (out_b / "sample.csv").read_bytes()
    assert (out_a / "sample.json").read_bytes() == (out_b / "sample.json").read_bytes()


_JITTERED = {"kind": "jittered", "C": 2.0, "seed": 2, "cells_per_axis": 10}
_INTEGER_TWINS = {
    # name: (integer config, the same integers written as floats)
    "sample": (dict(base_probability_config(), experiment="sample", n=8, count=100,
                    seed=3, phi={"catalog": "sine_mode", "k": 1}),
               {"d": 1.0, "n": 8.0, "count": 100.0, "seed": 3.0}),
    "jittered": (base_probability_config(n=8, grid=dict(_JITTERED)),
                 {"d": 1.0, "n": 8.0, "grid": dict(_JITTERED, seed=2.0,
                                                    cells_per_axis=10.0)}),
    "convergence": (dict(base_probability_config(), experiment="convergence",
                         psi={"catalog": "sine_mode", "k": 1}, n_list=[2, 4, 8, 16],
                         fit_window=[4, 16]),
                    {"n_list": [2.0, 4.0, 8.0, 16.0], "fit_window": [4.0, 16.0]}),
}


@pytest.mark.parametrize("name", sorted(_INTEGER_TWINS))
def test_integral_floats_run_as_their_integer_twin(tmp_path, name):
    """JSON schema's integer admits 8.0; such a config runs and writes the
    integer config's CSV rows and JSON payload (only the config hash
    differs)."""
    config, floats = _INTEGER_TWINS[name]
    outputs = []
    for tag, cfg in (("int", config), ("float", dict(config, **floats))):
        path = write_config(tmp_path, f"{tag}.json", cfg)
        assert main(["--output-dir", str(tmp_path / tag), "run", path]) == 0
        (csv,) = (tmp_path / tag).glob("*.csv")
        (payload,) = (tmp_path / tag).glob("*.json")
        payload = json.loads(payload.read_text())
        del payload["config_hash"]
        outputs.append((csv.read_text().splitlines()[1:], json.dumps(payload)))
    assert outputs[0] == outputs[1]


def test_joint_experiment_table(tmp_path):
    config = {
        "schema_version": "1",
        "experiment": "joint",
        "d": 1,
        "psi": {"catalog": "uniform"},
        "phi": {"catalog": "uniform"},
        "grid": {"kind": "uniform"},
        "n": 2,
        "output": {"stem": "joint", "format": "csv"},
    }
    cfg = write_config(tmp_path, "j.json", config)
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == 0
    lines = (tmp_path / "joint.csv").read_text().splitlines()
    assert not (tmp_path / "joint.json").exists()
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 2
    for row in rows:
        assert float(row[1]) == pytest.approx(0.25, abs=1e-15)
        assert float(row[2]) == pytest.approx(0.25, abs=1e-15)


def test_discretize_experiment(tmp_path, capsys):
    config = {
        "schema_version": "1",
        "experiment": "discretize",
        "d": 1,
        "psi": {"catalog": "sine_mode", "k": 1},
        "grid": {"kind": "uniform"},
        "n": 2,
        "output": {"stem": "disc"},
    }
    cfg = write_config(tmp_path, "d.json", config)
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == 0
    lines = (tmp_path / "disc.csv").read_text().splitlines()
    assert lines[1] == "bin,average_re,average_im,volume"
    avg = float(lines[2].split(",")[1])
    assert avg == pytest.approx(2.0 * np.sqrt(2.0) / np.pi, abs=1e-12)


def test_integral_float_quadrature_fields_run_as_their_integer_twin(tmp_path):
    """The schema's integer admits 8.0 in the quadrature block too; the
    discretization error reads its Gauss-Legendre order."""
    outputs = []
    for tag, value in (("int", 8), ("float", 8.0)):
        config = {"schema_version": "1", "experiment": "discretize", "d": 1,
                  "psi": {"catalog": "sine_mode", "k": 1}, "grid": {"kind": "uniform"},
                  "n": 4, "quadrature": {"points_per_axis_per_bin": value,
                                         "subdivision_limit": value},
                  "output": {"stem": "disc", "format": "both"}}
        path = write_config(tmp_path, f"{tag}.json", config)
        assert main(["--output-dir", str(tmp_path / tag), "run", path]) == 0
        payload = json.loads((tmp_path / tag / "disc.json").read_text())
        del payload["config_hash"]
        outputs.append(((tmp_path / tag / "disc.csv").read_text().splitlines()[1:], payload))
    assert outputs[0] == outputs[1]

@pytest.mark.parametrize("phi", [None, {"catalog": "uniform"}])
def test_discretize_with_a_density_is_a_schema_violation(tmp_path, capsys, phi):
    config = {
        "schema_version": "1",
        "experiment": "discretize",
        "d": 1,
        "density": {"terms": [{"weight": 1.0, "state": {"catalog": "sine_mode", "k": 1}}]},
        "grid": {"kind": "uniform"},
        "n": 2,
    }
    if phi is not None:
        config["phi"] = phi
    cfg = write_config(tmp_path, "d.json", config)
    for command in (["validate", cfg], ["--output-dir", str(tmp_path), "run", cfg]):
        assert main(command) == EXIT_SCHEMA
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "schema-violation"
        assert err["field"] == "psi" and "psi" in err["message"]
    assert not list(tmp_path.glob("discretize.*"))


def test_probability_on_an_explicit_cube_list(tmp_path):
    from spatialzeno import GridScheme, prob_y1_pure

    gauss = {"catalog": "gaussian", "mu": 0.0, "sigma": 1.0}
    config = base_probability_config(
        psi=gauss, phi=gauss, n=4,
        grid={"kind": "rd_translated_cubes", "cubes": [[-1], [0], [2]],
              "sub_kind": "jittered", "seed": 3},
        output={"stem": "cubes", "format": "json"})
    cfg = write_config(tmp_path, "cubes.json", config)
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == 0
    payload = json.loads((tmp_path / "cubes.json").read_text())
    g = make_state("gaussian", mu=0.0, sigma=1.0)
    scheme = GridScheme("rd_translated_cubes", d=1, cubes=((-1.0,), (0.0,), (2.0,)),
                        sub_kind="jittered", seed=3)
    assert payload["result"]["p_y1"] == prob_y1_pure(g, g, scheme.level(4)).p_y1


def test_rd_study_experiment(tmp_path):
    config = {
        "schema_version": "1",
        "experiment": "rd_study",
        "d": 1,
        "psi": {"catalog": "gaussian", "mu": 0.0, "sigma": 1.0},
        "phi": {"catalog": "gaussian", "mu": 0.0, "sigma": 1.0},
        "grid": {"kind": "uniform"},
        "n_list": [4, 8, 16, 32],
        "mass_target": 0.9999999,
        "output": {"stem": "rd", "format": "json"},
    }
    cfg = write_config(tmp_path, "rd.json", config)
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == 0
    payload = json.loads((tmp_path / "rd.json").read_text())
    assert payload["tail_budget"]["tail_bound"] <= 1e-7
    assert payload["result"]["fitted_rate"] == pytest.approx(1.0, abs=0.1)


def test_rd_study_with_repeated_resolution_exits_4(tmp_path, capsys):
    config = {
        "schema_version": "1",
        "experiment": "rd_study",
        "d": 1,
        "psi": {"catalog": "gaussian", "mu": 0.0, "sigma": 1.0},
        "phi": {"catalog": "gaussian", "mu": 0.0, "sigma": 1.0},
        "grid": {"kind": "uniform"},
        "n_list": [4, 4, 8, 16],
        "mass_target": 0.9999999,
    }
    cfg = write_config(tmp_path, "rd.json", config)
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == EXIT_COMPUTE
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["kind"] == "compute-failure"
    assert "strictly increasing" in err["error"]["message"]
    assert not list(tmp_path.glob("rd_study.*"))


def test_rd_study_with_a_state_of_another_dimension_exits_4(tmp_path, capsys):
    gauss = {"catalog": "gaussian", "mu": 0.0, "sigma": 1.0}
    config = {"schema_version": "1", "experiment": "rd_study", "d": 2,
              "psi": gauss, "phi": gauss, "grid": {"kind": "uniform"},
              "n_list": [4, 8, 16], "mass_target": 0.9999999}
    cfg = write_config(tmp_path, "rd.json", config)
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == EXIT_COMPUTE
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "compute-failure"
    assert "state dimension does not match the grid" in err["message"]
    assert not list(tmp_path.glob("rd_study.*"))


def test_density_config(tmp_path, capsys):
    config = {
        "schema_version": "1",
        "experiment": "probability",
        "d": 1,
        "density": {"terms": [
            {"weight": 0.5, "state": {"catalog": "sine_mode", "k": 1}},
            {"weight": 0.5, "state": {"catalog": "sine_mode", "k": 2}},
        ]},
        "phi": {"catalog": "sine_mode", "k": 1},
        "grid": {"kind": "uniform"},
        "n": 1,
    }
    cfg = write_config(tmp_path, "rho.json", config)
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == 0
    assert "p_y1=0.5" in capsys.readouterr().out


def test_superpose_config_nests(tmp_path):
    config = base_probability_config(psi={
        "catalog": "superpose",
        "terms": [
            {"coeff": [0.8, 0.0], "state": {"catalog": "sine_mode", "k": 1}},
            {"coeff": [0.0, 0.6], "state": {
                "catalog": "superpose",
                "terms": [{"coeff": [1.0, 0.0],
                           "state": {"catalog": "sine_mode", "k": 2}}]}},
        ]})
    cfg = write_config(tmp_path, "sup.json", config)
    assert main(["--output-dir", str(tmp_path), "run", cfg]) == 0


# per catalog entry: its config parameters and the make_state parameters
# of the same state
CATALOG_EXAMPLES = {
    "uniform": ({"d": 2}, {"d": 2}),
    "sine_mode": ({"k": 3}, {"k": 3}),
    "sine_product": ({"ks": [1, 2]}, {"ks": [1, 2]}),
    "complex_exponential": ({"k": -2}, {"k": -2}),
    "indicator": ({"a": 0.25, "b": 0.5}, {"a": 0.25, "b": 0.5}),
    "power_singular": ({"alpha": 0.3}, {"alpha": 0.3}),
    "gaussian": ({"mu": [0.0, 1.0], "sigma": [2.0, 0.5]},
                 {"mu": [0.0, 1.0], "sigma": [2.0, 0.5]}),
    "haar_like": ({"seed": 5, "pieces": 4}, {"seed": 5, "pieces": 4}),
    "superpose": (
        {"terms": [{"coeff": [0.8, 0.0], "state": {"catalog": "sine_mode", "k": 1}},
                   {"coeff": [0.0, 0.6], "state": {"catalog": "haar_like", "seed": 2}}]},
        {"terms": [(0.8 + 0.0j, make_state("sine_mode", k=1)),
                   (0.6j, make_state("haar_like", seed=2))]}),
}


def test_every_catalog_entry_has_an_example():
    assert set(CATALOG_EXAMPLES) == set(CATALOG)


@pytest.mark.parametrize("name", sorted(CATALOG_EXAMPLES))
def test_catalog_config_round_trip(name):
    from jsonschema import Draft202012Validator

    spec_params, params = CATALOG_EXAMPLES[name]
    spec = {"catalog": name, **spec_params}
    Draft202012Validator(CONFIG_SCHEMA).validate(base_probability_config(psi=spec))
    built, want = build_state(spec), make_state(name, **params)
    assert built == want and built.label == want.label


def test_psi_and_density_mutually_exclusive(tmp_path):
    config = base_probability_config(density={"terms": [
        {"weight": 1.0, "state": {"catalog": "uniform"}}]})
    cfg = write_config(tmp_path, "both.json", config)
    assert main(["run", cfg]) == EXIT_SCHEMA


def test_config_schema_is_valid_2020_12():
    # validate_config no longer checks the schema against the metaschema
    from jsonschema import Draft202012Validator

    from spatialzeno.cli import CONFIG_SCHEMA

    Draft202012Validator.check_schema(CONFIG_SCHEMA)


def _jsonschema_error(config):
    """(message, field) the way validate_config reported jsonschema.validate's error."""
    import jsonschema

    from spatialzeno.cli import CONFIG_SCHEMA

    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as e:
        field = ".".join(str(p) for p in e.absolute_path) or "<root>"
        if e.validator == "required":
            present = e.instance.keys() if isinstance(e.instance, dict) else ()
            missing = [f for f in e.validator_value if f not in present]
            field = missing[0] if missing else field
        return e.message, field
    return None


@pytest.mark.parametrize("overrides, drop", [
    ({"n": 0, "extra_knob": 1}, ()),
    ({"n": -3, "grid": {"kind": "hexagonal", "C": 0.5}}, ("phi",)),
    ({"d": 0, "psi": {"catalog": "sine_mode", "k": 0},
      "quadrature": {"points_per_axis_per_bin": 1, "abs_tol": -1.0}}, ()),
    ({"experiment": "sample", "schema_version": "2"}, ("phi", "psi")),
    ({"density": {"terms": []}, "output": {"format": "xml"}}, ()),
    ({"experiment": "discretize", "n": 0, "density": {"terms": [
        {"weight": 1.0, "state": {"catalog": "uniform"}}]}}, ("psi",)),
])
def test_schema_errors_match_jsonschema_validate(overrides, drop):
    from jsonschema import Draft202012Validator

    from spatialzeno.cli import CONFIG_SCHEMA, CliError, validate_config

    config = base_probability_config(**overrides)
    for key in drop:
        del config[key]
    expected = _jsonschema_error(config)
    assert expected is not None
    assert len(list(Draft202012Validator(CONFIG_SCHEMA).iter_errors(config))) > 1
    with pytest.raises(CliError) as info:
        validate_config(config)
    err = info.value.payload["error"]
    assert (err["message"], err["field"]) == expected
    assert info.value.code == EXIT_SCHEMA


def _csv_rows_reference(header, rows, chash):
    """The row-by-row CSV formatter the column writer replaced."""
    from spatialzeno.cli import SCHEMA_VERSION

    lines = [f"# schema_version={SCHEMA_VERSION} config_hash={chash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def test_csv_columns_match_row_formatter():
    from spatialzeno.cli import _csv_lines

    rng = np.random.default_rng(3)
    floats = np.concatenate([[-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1,
                              1.0 / 3.0, 2.0 ** 60, np.nextafter(1.0, 2.0)],
                             rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)])
    ints = rng.integers(-2 ** 62, 2 ** 62, floats.size)
    small = rng.integers(0, 2, floats.size).astype(np.int8)
    index = np.arange(floats.size)
    header = ["index", "big", "small", "value", "value_im"]
    got = "".join(_csv_lines(header, [index, ints, small, floats, floats[::-1].copy()], "abc"))
    rows = [[i, int(a), int(b), float(x), float(y)]
            for i, a, b, x, y in zip(index, ints, small, floats, floats[::-1])]
    assert got == _csv_rows_reference(header, rows, "abc")
    assert "-0," in got and "4.9406564584124654e-324" in got and "1e+300" in got
    # lists of Python scalars, as the study experiments pass them, with an
    # integer column beyond int64
    cols = [[4, 8], [2 ** 70, 3], [0.25, -0.0], [5e-324, 1e300]]
    assert "".join(_csv_lines(["n", "num_bins", "p", "q"], cols, "h")) == _csv_rows_reference(
        ["n", "num_bins", "p", "q"], [list(r) for r in zip(*cols)], "h")


def test_csv_writer_pins_special_values_and_empty_tables():
    from spatialzeno.cli import _csv_lines

    header = ["i8", "i64", "x", "y"]
    cols = [np.array([-128, 0, 127, 5], dtype=np.int8),
            np.array([-2 ** 63, 0, 2 ** 63 - 1, 7], dtype=np.int64),
            np.array([np.nan, np.inf, -np.inf, -0.0]),
            np.array([5e-324, 1e300, 0.1, 1.0])]
    got = "".join(_csv_lines(header, cols, "h"))
    assert got == ("# schema_version=1 config_hash=h\n"
                   "i8,i64,x,y\n"
                   "-128,-9223372036854775808,nan,4.9406564584124654e-324\n"
                   "0,0,inf,1.0000000000000001e+300\n"
                   "127,9223372036854775807,-inf,0.10000000000000001\n"
                   "5,7,-0,1\n")
    rows = [[int(a), int(b), float(x), float(y)] for a, b, x, y in zip(*cols)]
    assert got == _csv_rows_reference(header, rows, "h")
    empty = [np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int64),
             np.zeros(0), np.zeros(0)]
    assert "".join(_csv_lines(header, empty, "h")) == _csv_rows_reference(header, [], "h") == (
        "# schema_version=1 config_hash=h\ni8,i64,x,y\n")


def test_csv_writer_blocks_equal_one_block(monkeypatch):
    from spatialzeno import cli

    B = cli.CSV_BLOCK
    values = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 2.0 ** 60])
    for rows in (0, 1, B - 1, B, B + 1):
        cols = [np.arange(rows), np.resize(np.array([-1, 0, 2 ** 62], dtype=np.int64), rows),
                np.resize(values, rows), np.resize(values[::-1], rows)]
        header = ["index", "int", "x", "y"]
        blocks = "".join(cli._csv_lines(header, cols, "h"))
        with monkeypatch.context() as m:
            m.setattr(cli, "CSV_BLOCK", 10 ** 9)
            whole = "".join(cli._csv_lines(header, cols, "h"))
        assert blocks == whole
        assert blocks.count("\n") == rows + 2
    for token in (",-0,", ",nan,", ",inf,", ",-inf,", ",4611686018427387904,"):
        assert token in blocks


def test_csv_is_written_block_by_block(tmp_path, monkeypatch):
    import tracemalloc

    from spatialzeno import cli

    header = ["bin", "a", "b"]
    rows = 64 * cli.CSV_BLOCK
    columns = [np.arange(rows), np.linspace(0.0, 1.0, rows), np.geomspace(1e-300, 1.0, rows)]
    monkeypatch.setattr(cli, "_run_experiment", lambda config: (
        "p_y1", 0.5, {"schema_version": "1"}, cli._csv_lines(header, columns, "h")))
    path = write_config(tmp_path, "c.json", base_probability_config(
        output={"stem": "t", "format": "csv"}))
    tracemalloc.start()
    try:
        assert cli.run(path, str(tmp_path / "out")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "out" / "t.csv").read_text()
    assert text == "".join(cli._csv_lines(header, columns, "h"))
    # the working memory of one block of 64 at a time, never the whole text
    assert peak < len(text) / 4


def _csv_of_columns(columns):
    """(kernel, row-by-row reference) CSV text of one column list."""
    from spatialzeno.cli import _csv_lines

    header = [f"c{j}" for j in range(len(columns))]
    rows = [list(r) for r in zip(*[np.asarray(c).tolist() for c in columns])]
    return "".join(_csv_lines(header, columns, "h")), _csv_rows_reference(header, rows, "h")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2 ** 64 - 1), st.floats(),
                          st.integers(-10 ** 16 + 1, 10 ** 16 - 1),
                          st.integers(-2 ** 63, 2 ** 63 - 1)), min_size=1, max_size=60))
def test_csv_kernel_matches_the_row_formatter_on_random_bit_patterns(rows):
    bits, floats, small, big = zip(*rows)
    columns = [np.array(bits, dtype=np.uint64).view(np.float64), np.array(floats),
               np.array(small, dtype=np.int64), np.array(big, dtype=np.int64)]
    got, want = _csv_of_columns(columns)
    assert got == want


def test_csv_kernel_matches_the_row_formatter_at_its_switch_points():
    powers = [10.0 ** k for k in range(-300, 301)]
    near = [np.nextafter(x, toward) for x in powers for toward in (-np.inf, np.inf)]
    edges = [y for x in (1e-280, 1e280) for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
    # odd m/4 with m near 2^53: |v| 10^(16-k) ends in exactly 1/2, a tie
    ties = [m / 4 for m in range(2 ** 53 - 41, 2 ** 53, 2)] + [2251799813685247.75]
    # exponents -5, -4, 16 and 17, where %g switches notation, and a carry
    # of the 17 digits into the exponent
    switch = [1.2345e-5, 9.999999999999999e-5, 1e-4, 1.5e-4, 0.00012345678901234567,
              1e16, 1.2345678901234567e16, 9.999999999999998e16, 1e17, 1.5e17,
              np.nextafter(1e17, 0.0), 123.0, 1e15 + 0.5, 0.1, 1.0 / 3.0]
    values = np.array(powers + near + edges + ties + switch)
    for v in (values, -values):
        got, want = _csv_of_columns([np.arange(v.size), v, v[::-1].copy()])
        assert got == want
    for column in (np.zeros(5), np.full(5, -0.0), np.full(5, 0.1), np.full(5, 1e-300),
                   np.full(5, 2.0 ** 60), np.full(5, np.nan)):
        got, want = _csv_of_columns([column])
        assert got == want
    assert _csv_of_columns([np.zeros(3)])[0].endswith("c0\n0\n0\n0\n")


def test_csv_kernel_writes_every_integer_dtype_and_object_columns():
    for dtype in (np.int8, np.uint8, np.int16, np.uint32, np.int64, np.uint64):
        info = np.iinfo(dtype)
        column = np.array([v for v in (info.min, -10001, -1, 0, 1, 9, 10, 99, 100, 9999,
                                       10000, info.max) if info.min <= v <= info.max],
                          dtype=dtype)
        got, want = _csv_of_columns([column, column[::-1].copy()])
        assert got == want
    edges = np.array([-10 ** 16 + 1, -10 ** 16, 10 ** 16 - 1, 10 ** 16, 0], dtype=np.int64)
    for column in (edges[[0, 2, 4]], edges, np.array([7, 7, 7]), np.array([True, False])):
        got, want = _csv_of_columns([column])
        assert got == want
    objects = np.array([2 ** 70, -3, 2 ** 64, 0], dtype=object)
    got, want = _csv_of_columns([objects, [4, 5, 6, 7]])
    assert got == want and "1180591620717411303424" in got


def test_csv_kernel_leaves_only_the_listed_values_to_percent():
    from spatialzeno.cli import _decimal17

    decided = [0.0, -0.0, 0.1, 0.5, 1.5, 1e-280, 1e280, -1e280, 1e16, 1e17, 2.0 ** 60]
    undecided = [np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                 np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf), 1e300,
                 2251799813685247.75, -2251799813685247.25]
    big, exponent, fall = _decimal17(np.array(decided + undecided))
    assert fall.tolist() == [False] * len(decided) + [True] * len(undecided)
    assert big[:3].tolist() == [0, 0, 10000000000000001]
    assert exponent[:3].tolist() == [0, 0, -1]


_PINNED_CONFIGS = {
    "sample": {"schema_version": "1", "experiment": "sample", "d": 1,
               "density": {"terms": [
                   {"weight": 0.3, "state": {"catalog": "sine_mode", "k": 2}},
                   {"weight": 0.7, "state": {"catalog": "sine_mode", "k": 5}}]},
               "phi": {"catalog": "sine_mode", "k": 1},
               "grid": {"kind": "jittered", "C": 2.0, "seed": 3},
               "n": 24, "count": 3000, "seed": 9, "output": {"stem": "sample"}},
    "joint": {"schema_version": "1", "experiment": "joint", "d": 2,
              "psi": {"catalog": "sine_product", "ks": [2, 3]},
              "phi": {"catalog": "uniform", "d": 2},
              "grid": {"kind": "jittered", "C": 2.0, "seed": 4},
              "n": 6, "output": {"stem": "joint"}},
    "discretize": {"schema_version": "1", "experiment": "discretize", "d": 1,
                   "psi": {"catalog": "power_singular", "alpha": 0.3},
                   "phi": {"catalog": "complex_exponential", "k": 2},
                   "grid": {"kind": "jittered", "C": 1.5, "seed": 6},
                   "n": 40, "output": {"stem": "disc"}},
}
# sha256 of each file those configs write, as the row-by-row CSV writer wrote
# them; the sample's are the draws of the density's mixed joint table, and
# the discretize pair's sums are np.add.reduce and einsum, not BLAS products
_PINNED_DIGESTS = {
    "sample.csv": "d2d31a5d5ebe7f113e20f91197bd5a28313897c31d1cc4c9bcdc5798a4f5f020",
    "sample.json": "09731758f03ce7159c47aa7d62a11d2d3131f17b76d77bb56d995c57cd87b4c3",
    "joint.csv": "1ca400d09ee518198674cd4212fd5c347c4abbba380abbf18db25152a9dc9e9b",
    "joint.json": "58cfc0ffdedca012487c5b3decf699ddbcc583930c11c57da50c02038cdeae26",
    "disc.csv": "dbde6bd3f7a719404c3cf714bab4cc2245d37205e3f8c49861b7d8b289278e26",
    "disc.json": "765c89dc190151df2541a4a9c7b8a81ddc2773073b303228f22eb263bf02b619",
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_cli_output_bytes_pinned(tmp_path, name):
    config = _PINNED_CONFIGS[name]
    path = write_config(tmp_path, "c.json", config)
    assert main(["--output-dir", str(tmp_path / "out"), "run", path]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "out").iterdir()}
    stem = config["output"]["stem"]
    assert got == {f: _PINNED_DIGESTS[f] for f in (f"{stem}.csv", f"{stem}.json")}
