"""What a fresh process loads: numpy on import, scipy.special on the first
Gaussian cell or Gauss-Jacobi rule, jsonschema on the first config check;
and ``superpose``'s single pair table against the two-pass reference."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spatialzeno
from spatialzeno import (
    SeparableFunction,
    WaveFunction,
    inner_product,
    make_state,
    superpose,
    tensor_product,
)
from spatialzeno import quadrature

SRC = str(Path(spatialzeno.__file__).resolve().parent.parent)

_LOADED = """
import sys
def loaded(*names):
    return [n for n in names if n in sys.modules]
"""


def _fresh(code: str):
    """The JSON value that ``code`` prints last, run in a new interpreter
    that imports this checkout's spatialzeno."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _LOADED + code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_numpy_but_not_scipy_or_jsonschema():
    assert _fresh("import json, spatialzeno\n"
                  "print(json.dumps(loaded('numpy', 'scipy', 'jsonschema')))") == ["numpy"]
    assert _fresh("import json, spatialzeno.cli\n"
                  "print(json.dumps(loaded('numpy', 'scipy', 'jsonschema')))") == ["numpy"]


def test_capabilities_load_no_jsonschema():
    got = _fresh("import contextlib, io, json\n"
                 "from spatialzeno import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = cli.main(['capabilities'])\n"
                 "print(json.dumps([code, loaded('scipy', 'jsonschema')]))")
    assert got == [0, []]


@pytest.mark.parametrize("name", ["sample", "joint"])
def test_pinned_sine_runs_load_no_scipy(tmp_path, name):
    from test_cli import _PINNED_CONFIGS

    path = tmp_path / "c.json"
    path.write_text(json.dumps(_PINNED_CONFIGS[name]))
    argv = ["--output-dir", str(tmp_path / "out"), "run", str(path)]
    got = _fresh("import contextlib, io, json\n"
                 "from spatialzeno import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = cli.main({argv!r})\n"
                 "print(json.dumps([code, loaded('scipy', 'jsonschema')]))")
    assert got == [0, ["jsonschema"]]


def test_validate_config_loads_jsonschema():
    config = {"schema_version": "1", "experiment": "probability", "d": 1,
              "grid": {"kind": "uniform"}, "psi": {"catalog": "sine_mode", "k": 1},
              "phi": {"catalog": "uniform"}, "n": 4}
    got = _fresh("import json\n"
                 "from spatialzeno import cli\n"
                 "before = loaded('jsonschema')\n"
                 f"cli.validate_config({config!r})\n"
                 "try:\n"
                 "    cli.validate_config({'experiment': 'probability'})\n"
                 "except cli.CliError as e:\n"
                 "    error = e.payload\n"
                 "print(json.dumps([before, loaded('jsonschema', 'scipy'), error]))")
    assert got[:2] == [[], ["jsonschema"]]
    assert got[2]["error"]["kind"] == "schema-violation"


def test_gaussian_cells_load_scipy_special_and_keep_their_values():
    got = _fresh("import json\n"
                 "from spatialzeno import GridScheme, make_state, prob_y1_pure\n"
                 "before = loaded('scipy.special')\n"
                 "psi = make_state('gaussian', mu=0.2, sigma=0.8)\n"
                 "phi = make_state('gaussian', mu=-0.1, sigma=1.3)\n"
                 "level = GridScheme('jittered', d=1, seed=3).with_cubes(\n"
                 "    [(-2.0,), (-1.0,), (0.0,), (1.0,)]).level(8)\n"
                 "r = prob_y1_pure(psi, phi, level)\n"
                 "print(json.dumps([before, loaded('scipy.special'),\n"
                 "                  r.p_y1.hex(), r.mass_total.hex()]))")
    # the values from before lazy loading, when states imported
    # scipy.special on import
    assert got == [[], ["scipy.special"], "0x1.62af21ce5fdc6p-6", "0x1.f83726802ec5ep-1"]


def test_gauss_jacobi_rule_loads_scipy_special_and_keeps_its_values():
    # power x exp(4 pi i x): |w| b = 4 pi is past the power series, so the
    # cell at 0 takes a Gauss-Jacobi rule
    got = _fresh("import json\n"
                 "from spatialzeno import make_state, prob_y1_pure, uniform_grid\n"
                 "psi = make_state('power_singular', alpha=0.3)\n"
                 "phi = make_state('complex_exponential', k=2)\n"
                 "before = loaded('scipy.special')\n"
                 "r = prob_y1_pure(psi, phi, uniform_grid(8))\n"
                 "print(json.dumps([before, loaded('scipy.special'),\n"
                 "                  r.p_y1.hex(), r.p_y1_error_bound.hex()]))")
    assert got == [[], ["scipy.special"], "0x1.7b1bfb915eee1p-4", "0x1.c0504cdd04816p-35"]


def _two_pass(terms) -> WaveFunction:
    """superpose as two pair tables: ||raw||^2 by inner_product, then the
    normalised state's own check in WaveFunction.__post_init__."""
    domain = terms[0][1].domain
    flat = [(complex(coeff) * c, f) for coeff, wf in terms for c, f in wf.terms]
    raw = SeparableFunction(domain, tuple(flat))
    nsq = float(np.real(inner_product(raw, raw)))
    if nsq <= 0.0:
        raise ValueError("combination has zero norm")
    scale = 1.0 / np.sqrt(nsq)
    label = " + ".join(f"({c})*{wf.label}" for c, wf in terms)
    return WaveFunction(domain, tuple((c * scale, f) for c, f in flat),
                        label=f"superpose[{label}]")


def _modes(ks):
    return [make_state("sine_mode", k=k) for k in ks]


SUPERPOSITIONS = {
    "real_24_modes": lambda: list(zip(np.random.default_rng(1).standard_normal(24).tolist(),
                                      _modes(range(1, 25)))),
    "complex_modes": lambda: [(complex(a, b), s) for (a, b), s in zip(
        np.random.default_rng(2).standard_normal((5, 2)).tolist(), _modes([1, 3, 4, 7, 9]))],
    "haar_and_power": lambda: [(0.3, make_state("haar_like", seed=3, pieces=16)),
                               (0.7j, make_state("power_singular", alpha=0.3)),
                               (-0.2, make_state("sine_mode", k=40))],
    "nested": lambda: [(0.6, superpose([(1.0, make_state("complex_exponential", k=2)),
                                        (0.5j, make_state("uniform"))])),
                       (0.8 - 0.1j, make_state("indicator", a=0.25, b=0.5))],
    "2d_real": lambda: [(1.0, make_state("sine_product", ks=[1, 2])),
                        (0.4, make_state("sine_product", ks=[2, 2])),
                        (-0.3, make_state("uniform", d=2))],
    "2d_complex": lambda: [(0.5 + 0.5j, tensor_product(
                               [make_state("haar_like", seed=5), make_state("sine_mode", k=2)])),
                           (1.0, tensor_product(
                               [make_state("power_singular", alpha=0.2),
                                make_state("complex_exponential", k=-1)]))],
}


@pytest.mark.parametrize("case", sorted(SUPERPOSITIONS))
def test_superpose_matches_the_two_pass_reference(case, monkeypatch):
    terms = SUPERPOSITIONS[case]()
    want = _two_pass(terms)
    walks = []
    pair_data = quadrature._pair_data
    monkeypatch.setattr(quadrature, "_pair_data",
                        lambda *a, **kw: walks.append(a[2]) or pair_data(*a, **kw))
    got = superpose(terms)
    assert len(walks) == 1  # one pair table, on the domain box
    assert got == want and got.label == want.label and got.check_norm
    assert [(type(c), repr(c), f) for c, f in got.terms] == [
        (type(c), repr(c), f) for c, f in want.terms]


@pytest.mark.parametrize("eps,message", [
    (1e-7, r"\|\|psi\|\|\^2 = 1\.015625, not 1"),
    (1e-9, "combination has zero norm"),
])
def test_nearly_cancelling_superpose_raises_as_before(eps, message):
    s = make_state("sine_mode", k=1)
    terms = [(1.0, s), (-(1.0 - eps), s)]
    with pytest.raises(ValueError, match=message) as want:
        _two_pass(terms)
    with pytest.raises(ValueError, match=message) as got:
        superpose(terms)
    assert str(got.value) == str(want.value)
