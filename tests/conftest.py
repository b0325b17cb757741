import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# one fresh interpreter (the test process has imported scipy and
# numpy.random): the import, an n = 8 case-1 run with a snapshot, a case-2
# run, both Poisson references, the matrix builders and the benchmark's
# expansions, recording after each which scipy and numpy.random modules are
# loaded, and the references' residuals against the matrix builders
FRESH_RUNS = """
import json
import sys
import numpy as np

loaded = {}


def record(when):
    loaded[when] = sorted(m for m in sys.modules
                          if m.split(".")[0] == "scipy" or m.startswith("numpy.random"))


import hyperch
from hyperch import cli, operators
record("import")
assert cli.main(["run", "n=8", "beta1=0.1", "beta2=0.1", "t_end=0.0005",
                 "snapshot_times=0.0002", "output_dir=" + sys.argv[1]]) == 0
record("case-1 run")
assert cli.main(["run", "n=8", "case=2", "seed=3", "t_end=0.0005",
                 "output_dir=" + sys.argv[2]]) == 0
record("case-2 run")
g = hyperch.build_grid(8)
rng = np.random.default_rng(5)
w, v = rng.standard_normal(g.n_int), rng.standard_normal(g.n_loop)
p = hyperch.solve_poisson_neumann_zeromean(w, g, tol=1e-10)
q = hyperch.solve_poisson_loop_zeromean(v, g, tol=1e-10)
record("Poisson references")
residuals = []
for lap, x, rhs in [(operators.neumann_laplacian_matrix(8), p, w - w.mean()),
                    (operators.loop_laplacian_matrix(8), q, v - v.mean())]:
    residuals.append([float(np.abs(lap @ x - rhs).max()), float(np.abs(rhs).max())])
record("matrix builders")
fac = hyperch.assemble_system(g, hyperch.ModelParams.with_defaults(g.h)).direct()
expanded = [int(fac.a.nnz), int(fac._lu.L.nnz + fac._lu.U.nnz)]
record("expansions")
print(json.dumps({"loaded": loaded, "residuals": residuals, "expanded": expanded}))
"""


class FreshRuns:
    """The fresh interpreter's record and the two runs' output files."""

    def __init__(self, record, files):
        self.modules = record["loaded"]
        self.residuals = record["residuals"]
        self.expanded = record["expanded"]
        self.files = files

    def loaded(self, when, prefix):
        """Modules under the dotted ``prefix`` loaded by the point ``when``."""
        parts = prefix.split(".")
        return [m for m in self.modules[when] if m.split(".")[: len(parts)] == parts]


@pytest.fixture(scope="session")
def fresh_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh_runs")
    one, two = out / "case1", out / "case2"
    done = subprocess.run([sys.executable, "-c", FRESH_RUNS, str(one), str(two)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return FreshRuns(json.loads(done.stdout.splitlines()[-1]),
                     {"case-1 run": {f.name for f in one.iterdir()},
                      "case-2 run": {f.name for f in two.iterdir()}})
