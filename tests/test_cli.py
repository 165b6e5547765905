"""Config-driven runner: schema validation, outputs, exit codes, determinism."""

import hashlib
import json

import numpy as np
import pytest

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


def test_config_schema_is_pinned():
    # the catalog feeds the schema, so a catalog change that alters it shows
    text = json.dumps(CONFIG_SCHEMA, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6b898c8fe25b79ca46f19d4a4c576f3e395a8a388ffeeedaf8eba7e96eec3d13")


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
    got = _csv_lines(header, [index, ints, small, floats, floats[::-1].copy()], "abc")
    rows = [[i, int(a), int(b), float(x), float(y)]
            for i, a, b, x, y in zip(index, ints, small, floats, floats[::-1])]
    assert got == _csv_rows_reference(header, rows, "abc")
    assert "-0," in got and "4.9406564584124654e-324" in got and "1e+300" in got
    # lists of Python scalars, as the study experiments pass them, with an
    # integer column beyond int64
    cols = [[4, 8], [2 ** 70, 3], [0.25, -0.0], [5e-324, 1e300]]
    assert _csv_lines(["n", "num_bins", "p", "q"], cols, "h") == _csv_rows_reference(
        ["n", "num_bins", "p", "q"], [list(r) for r in zip(*cols)], "h")


def test_csv_writer_pins_special_values_and_empty_tables():
    from spatialzeno.cli import _csv_lines

    header = ["i8", "i64", "x", "y"]
    cols = [np.array([-128, 0, 127, 5], dtype=np.int8),
            np.array([-2 ** 63, 0, 2 ** 63 - 1, 7], dtype=np.int64),
            np.array([np.nan, np.inf, -np.inf, -0.0]),
            np.array([5e-324, 1e300, 0.1, 1.0])]
    got = _csv_lines(header, cols, "h")
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
    assert _csv_lines(header, empty, "h") == _csv_rows_reference(header, [], "h") == (
        "# schema_version=1 config_hash=h\ni8,i64,x,y\n")
