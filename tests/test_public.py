import re
from pathlib import Path

import hyperch

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in hyperch.__all__ if not hasattr(hyperch, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # the example's own sizes: an n = 50 run to t = 0.05, about 1 s
    assert "build_grid(50)" in code and "t_end=0.05" in code
    exec(compile(code, str(README), "exec"), {})
    e_modified, mass_bulk = (float(v) for v in capsys.readouterr().out.split())
    assert e_modified > 0.0
    assert abs(mass_bulk) < 1e-8


# a case-2 run draws its data without numpy.random and loads no scipy, so
# a run of any case loads numpy alone (one fresh interpreter, conftest's
# fresh_runs, also serves the linalg and operators footprint tests)
def test_runs_load_numpy_alone(fresh_runs):
    assert fresh_runs.loaded("case-2 run", "scipy") == []
    assert fresh_runs.loaded("case-2 run", "numpy.random") == []
    assert fresh_runs.files["case-2 run"] >= {"diag.csv", "final.vtk", "effective.cfg"}
