"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The tracer tests use a fake package and run in well under a second.  The
traced-run tests run every workload twice with ``--trace 1`` (about four
minutes on two cores) and check that the count metrics repeat exactly,
that the top-level spans cover the timed phase, and the layer claims the
benchmark's README makes.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COUNTS = ("system.newton_iters", "system.factor_calls", "system.lu_fill_nnz",
          "scalar.rayleigh_iters", "domain.laplacian_calls")


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class FakeLU:
    L = types.SimpleNamespace(nnz=7)
    U = types.SimpleNamespace(nnz=5)

    def solve(self, rhs):
        return rhs


@pytest.fixture
def fakepkg():
    """fakepkg.system.solve -> fakepkg.kernel.newton -> splu(...).solve(...),
    with splu bound by name at import, as seglv binds scipy's."""
    linalg = types.SimpleNamespace(splu=lambda matrix: FakeLU())
    tracer = tracing.Tracer(clock=FakeClock())
    tracing.install_scipy(tracer, linalg)

    pkg = types.ModuleType("fakepkg")
    kernel = types.ModuleType("fakepkg.kernel")
    system = types.ModuleType("fakepkg.system")
    kernel.splu = linalg.splu

    def newton(x):
        return kernel.splu(x).solve(x)

    def solve(x):
        return kernel.newton(x) + 1

    newton.__module__ = kernel.__name__
    solve.__module__ = system.__name__
    kernel.newton = newton
    system.solve = solve
    system.newton = newton  # a second binding, as "from .kernel import newton"
    pkg.solve = solve
    modules = {"fakepkg": pkg, "fakepkg.kernel": kernel, "fakepkg.system": system}
    sys.modules.update(modules)
    try:
        tracing.install_package(tracer, "fakepkg")
        yield tracer, modules
    finally:
        for name in modules:
            del sys.modules[name]


def test_install_rebinds_every_binding(fakepkg):
    tracer, modules = fakepkg
    assert modules["fakepkg.system"].newton is modules["fakepkg.kernel"].newton
    assert modules["fakepkg"].solve is modules["fakepkg.system"].solve
    assert modules["fakepkg"].solve.__wrapped__.__name__ == "solve"


def test_inactive_tracer_records_nothing(fakepkg):
    tracer, modules = fakepkg
    assert modules["fakepkg"].solve(1) == 2
    assert tracer.spans == []


def test_factorization_in_a_new_module_counts_for_the_calling_layer(fakepkg):
    tracer, modules = fakepkg
    tracer.active = True
    tracer.phase = "run"
    assert modules["fakepkg"].solve(1) == 2
    names = [s.name for s in tracer.spans]
    assert names == ["scipy.splu", "trace.fill", "scipy.lu_solve",
                     "kernel.newton", "system.solve"]
    splu = tracer.spans[0]
    assert splu.parent.name == "kernel.newton"
    assert splu.owner() == "system"
    assert splu.counts == {"fill_nnz": 12}

    m = layers.layer_metrics(tracer.spans, traced_wall=10.0, untraced_wall=9.0)
    assert m["system.factor_calls"] == 1
    assert m["system.lu_solve_calls"] == 1
    assert m["system.lu_fill_nnz"] == 12
    assert m["scalar.factor_calls"] == 0
    # fake clock: every reading advances 1 s, so each leaf span lasts 1 s
    assert m["system.factor_s"] == 1.0
    assert m["trace.self_s"] == 1.0
    top = tracer.spans[-1].duration
    parts = (m["system.factor_s"] + m["system.lu_solve_s"] + m["trace.self_s"]
             + m["system.self_s"] + m["other.self_s"])
    assert parts == top
    assert m["trace.coverage"] == top / 10.0
    assert m["trace.overhead_s"] == 1.0


def test_empty_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chain3_ramp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module", params=["chain3_ramp", "chain3_probe", "chain3_spectral"])
def two_traced_runs(request):
    return request.param, traced_run(request.param, 3), traced_run(request.param, 3)


def test_traced_runs(two_traced_runs):
    workload, first, second = two_traced_runs
    declared = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(first) == sorted(declared)
    for name in COUNTS:
        assert first[name] == second[name], name
    for run in (first, second):
        assert 0.99 <= run["trace.coverage"] <= 1.0 + 1e-9
        assert math.isfinite(run["trace.overhead_s"])
        if workload == "chain3_spectral":
            assert run["system.factor_calls"] == 0
            assert run["scalar.factor_calls"] > 0
        else:
            others = [v for k, v in run.items()
                      if k.endswith("self_s") or k in ("scalar.factor_s", "sparse.other_s")
                      or k.endswith("lu_solve_s") or k.endswith("krylov_s")]
            assert run["system.factor_s"] > max(others)
        if workload == "chain3_probe":
            assert run["system.factor_calls_per_trial"] > 0
