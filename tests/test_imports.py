import json
import os
import subprocess
import sys
from pathlib import Path

import sparsedyn

SRC = str(Path(sparsedyn.__file__).resolve().parents[1])

# Runs in a fresh interpreter: importing the CLI loads neither scipy nor the
# integrator, and generating Lorenz data then simulating a model loads no
# scipy module at all.
PROBE = """
import json, sys
import numpy as np
import sparsedyn.cli
from sparsedyn import (BenchmarkSpec, FiniteDifference, FittedModel, Lorenz,
                       canonical_library, generate, simulate)

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

after_import = loaded("scipy") + loaded("sparsedyn.integrate")
system = Lorenz(t_span=0.5)
dataset, truth = generate(BenchmarkSpec(system=system))
model = FittedModel(coefficients=truth, library=canonical_library(system),
                    diff=FiniteDifference(), target_names=("q0_t", "q1_t", "q2_t"))
t = dataset.grid.time_axis[:50]
sim = simulate(model, dataset.states[0], t)
print(json.dumps({
    "after_import": after_import,
    "scipy_after_use": loaded("scipy"),
    "samples": dataset.states.shape[0],
    "sim_error": float(np.abs(sim.states - dataset.states[:50]).max()),
}))
"""


def test_cli_generate_and_simulate_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["after_import"] == []
    assert result["scipy_after_use"] == []
    assert result["samples"] > 50
    assert result["sim_error"] < 1e-4
