"""Smoke tests of the README's experiments in ``scripts/``: each runs in a
fresh interpreter, exits 0 and prints the model it identified."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsedyn

from equation_text import parse_equation

SRC = str(Path(sparsedyn.__file__).resolve().parents[1])
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

LORENZ_SUPPORT = {
    "q0_t": {"q0", "q1"},
    "q1_t": {"q0", "q1", "q0 q2"},
    "q2_t": {"q2", "q0 q1"},
}


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def supports(stdout: str) -> dict[str, set[str]]:
    """Target -> term names of every equation line printed."""
    found = {}
    for line in stdout.splitlines():
        if " = " in line and line.strip().split(" ")[0].endswith("_t"):
            target, terms = parse_equation(line.strip())
            found.setdefault(target, set(terms))
    return found


def test_ks_discovery_prints_the_true_support():
    out = run_script("run_ks_discovery.py")
    assert "active terms:     ['q0 q0_x', 'q0_xx', 'q0_xxxx']" in out
    assert supports(out)["q0_t"] == {"q0 q0_x", "q0_xx", "q0_xxxx"}


@pytest.mark.parametrize("args", [(), ("--noise", "0.01", "--ensemble")],
                         ids=["noiseless", "ensemble"])
def test_lorenz_discovery_prints_the_true_support(args):
    out = run_script("run_lorenz_discovery.py", *args)
    assert supports(out) == LORENZ_SUPPORT


def test_lorenz_weak_form_at_ten_percent_noise():
    # at 10% noise the weak form keeps every true term of q0_t and q2_t but
    # drops q1 from q1_t and adds small terms to q2_t; the script reports
    # its coefficient error against the truth
    out = run_script("run_lorenz_discovery.py", "--noise", "0.10", "--weak")
    found = supports(out)
    assert found["q0_t"] == LORENZ_SUPPORT["q0_t"]
    assert found["q2_t"] >= LORENZ_SUPPORT["q2_t"]
    (error_line,) = [line for line in out.splitlines() if "coefficient error" in line]
    assert float(error_line.split(":")[1]) < 0.2


def test_implicit_discovery_explains_both_derivatives():
    out = run_script("run_implicit_discovery.py")
    lines = out.splitlines()
    ranked = [line.split() for line in lines if "residual" in line and line.startswith("  q")]
    assert [r[0] for r in ranked] == ["q0_t:", "q1_t:"]
    assert all(float(r[2]) < 1e-6 for r in ranked)
    # the explicit Van der Pol equation of q1_t, mixed with q0_t = q1
    assert supports(out)["q1_t"] == {"q0_t", "q0", "q1", "q0^2 q1"}
