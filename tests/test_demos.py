"""Every demo, and the README library tour, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # figures, when matplotlib is installed, go to a scratch directory; the
    # pytest warning filters do not reach the subprocess, so numpy overflow
    # and invalid-value warnings are made errors here too
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", tour.split("\n## ", 1)[0], re.S)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, "README.md (Library tour)", "exec"), namespace)
    assert namespace["tail"].tail_bound <= 1e-8
    assert abs(namespace["rec"].fitted_rate - 1.0) < 0.1
    assert not list(tmp_path.iterdir())
