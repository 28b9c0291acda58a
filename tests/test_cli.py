import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seglv as sg
from seglv.cli import main
from seglv.errors import PipelineError
from seglv.runner import run
from conftest import count_calls

BASE_CONFIG = {
    "domain": {
        "bbox": [-1.25, -1.25, 4.25, 1.25],
        "h": 0.125,
        "balls": [{"center": [0.0, 0.0], "radius": 1.0, "species_index": 0},
                  {"center": [3.0, 0.0], "radius": 1.0, "species_index": 1}],
        "corridors": [{"from_ball": 0, "to_ball": 1, "width": 0.5}],
    },
    "species": [{"lambda": 12.0, "p": 2.0}, {"lambda": 12.0, "p": 2.0}],
    "model": {"kind": "barrier"},
    "schedule": {"kappa_start": 4.0, "factor": 4.0, "steps": 5},
    "solver": {"newton_tol": 1e-10},
    "probes": {"uniqueness": {"delta": 0.02, "trials": 3, "seed": 11}},
    "output": {"emit_fields": True, "emit_images": True},
}


def write_config(tmp_path, overrides=None, name="run.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        for key, value in overrides.items():
            section = doc
            parts = key.split(".")
            for part in parts[:-1]:
                section = section.setdefault(part, {})
            section[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


def assert_same_outputs(out1, out2):
    """The two output directories hold the same files, byte for byte, apart
    from summary.json's wall_clock block."""
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        a, b = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        if name == "summary.json":
            da, db = json.loads(a), json.loads(b)
            da.pop("wall_clock"), db.pop("wall_clock")
            assert da == db
        else:
            assert a == b, name


def test_cli_solve_baseline(tmp_path, capsys):
    cfg = write_config(tmp_path, {"output.directory": str(tmp_path / "out")})
    assert main(["solve-baseline", str(cfg)]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"] is None
    assert [b["species"] for b in summary["baseline"]] == [0, 1]
    assert (out / "u0_baseline.csv").exists()
    assert (out / "u1_baseline.csv").exists()


def test_cli_full_run_and_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output.directory": str(out)})
    assert main(["probe-uniqueness", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stages_completed"][-1] == "uniqueness"
    assert len(summary["continuation"]) == 5
    assert summary["uniqueness"]["all_converged"] is True
    assert summary["uniqueness"]["converged"] == 3
    assert summary["uniqueness"]["chord_only"] == 3
    # per-kappa artifacts
    assert (out / "trace_4.json").exists()
    assert (out / "trace_1024.json").exists()
    assert (out / "u0_1024.csv").exists()
    assert (out / "u1_1024.pgm").exists()
    trace = json.loads((out / "trace_1024.json").read_text())
    assert trace["kappa"] == 1024.0
    assert "overlap_matrix" in trace["diagnostics"]


def test_cli_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg1 = write_config(tmp_path, {"output.directory": str(out1)}, "c1.json")
    cfg2 = write_config(tmp_path, {"output.directory": str(out2)}, "c2.json")
    assert main(["probe-uniqueness", str(cfg1)]) == 0
    assert main(["probe-uniqueness", str(cfg2)]) == 0
    assert_same_outputs(out1, out2)


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """`seglv continue` writes the same bytes at 1 and 2 BLAS threads.

    Two example configs, cut short and without images, each run in two
    concurrent subprocesses, one per OPENBLAS_NUM_THREADS: dumbbell2 at
    h = 1/32 for 3 steps and chain3 at h = 1/64 for 4.  A reduction left to
    BLAS splits across threads and changes its last bits with their
    number.  On a one-core host both runs reduce alike and the test shows
    nothing.
    """
    repo = Path(__file__).resolve().parents[1]
    for name, h, steps in (("dumbbell2", 1 / 32, 3), ("chain3", 1 / 64, 4)):
        doc = json.loads((repo / "configs" / f"{name}.json").read_text())
        doc["domain"]["h"] = h
        doc["schedule"]["steps"] = steps
        doc["output"]["emit_images"] = False
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(repo / "src"))
            out = tmp_path / f"{name}_threads{threads}"
            runs.append((out, subprocess.Popen(
                [sys.executable, "-m", "seglv.cli", "continue", str(cfg),
                 "--output", str(out)], env=env, stdout=subprocess.DEVNULL)))
        for _, process in runs:
            assert process.wait(timeout=300) == 0
        assert_same_outputs(*(out for out, _ in runs))


def test_cli_verbose_logs_to_stderr(tmp_path, capsys):
    # -v sends the DEBUG lines to stderr and leaves the outputs as they are
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    cfg_quiet = write_config(tmp_path, {"output.directory": str(quiet)}, "q.json")
    cfg_loud = write_config(tmp_path, {"output.directory": str(loud)}, "l.json")
    assert main(["probe-uniqueness", str(cfg_quiet)]) == 0
    assert "LU of order" not in capsys.readouterr().err
    assert main(["probe-uniqueness", str(cfg_loud), "-v"]) == 0
    err = capsys.readouterr().err
    assert "seglv.newton: LU of order " in err
    assert "seglv.system: assembled Jacobian of order " in err
    assert_same_outputs(quiet, loud)
    # the flag is scoped to its call
    assert main(["solve-baseline", str(cfg_quiet)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_reports_baseline_failure(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "output.directory": str(out),
        "species": [{"lambda": 2.0, "p": 2.0}, {"lambda": 2.0, "p": 2.0}],
    })
    assert main(["nd-check", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "baseline" in err
    assert "no positive baseline" in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"]["stage"] == "baseline"


def test_cli_hard_kappa_step_recovers(tmp_path):
    # kappa 16 -> 1.6e7 -> 1.6e13: GMRES misses the first Newton step at
    # 1.6e7, and that step goes on the assembled Jacobian's LU
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "output.directory": str(out),
        "schedule.kappa_start": 16.0,
        "schedule.factor": 1e6,
        "schedule.steps": 3,
    })
    assert main(["continue", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"] is None and summary["continuation_failure"] is None
    assert [step["kappa"] for step in summary["continuation"]] == [16.0, 1.6e7,
                                                                   1.6e13]


def test_cli_partial_trace_flushed_on_continuation_failure(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "output.directory": str(out),
        # absurd ramp factor: the second solve has no warm-start basin
        "schedule.kappa_start": 16.0,
        "schedule.factor": 1e12,
        "schedule.steps": 3,
    })
    assert main(["continue", str(cfg)]) == 1
    assert "continuation" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"]["stage"] == "continuation"
    assert summary["continuation_failure"].startswith("kappa=")
    # completed steps were flushed before the failure
    assert (out / "trace_16.json").exists()
    assert (out / "u0_16.csv").exists()
    assert len(summary["continuation"]) >= 1


def test_cli_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["continue", str(bad)]) == 2
    assert main(["continue", str(tmp_path / "missing.json")]) == 2
    cfg = write_config(tmp_path)
    # probe requested without a probes section
    doc = json.loads(cfg.read_text())
    del doc["probes"]
    cfg2 = tmp_path / "noprobe.json"
    cfg2.write_text(json.dumps(doc))
    assert main(["probe-uniqueness", str(cfg2)]) == 2


def test_cli_short_ball_center_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["domain"]["balls"][1]["center"] = [3.0]
    cfg = tmp_path / "short_center.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve-baseline", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "config: domain.balls[1].center must be [x, y]")


def test_cli_convergence_study(tmp_path, capsys):
    assert main(["convergence-study", "--output", str(tmp_path / "study")]) == 0
    doc = json.loads((tmp_path / "study" / "summary.json").read_text())
    ratios = doc["convergence_study"]["ratio"]
    assert len(ratios) == 2
    for r in ratios:
        assert abs(r - 4.0) <= 0.6


def test_runner_nd_failure_stage(tmp_path, monkeypatch):
    from seglv import config as cfg_mod
    from seglv.scalar import NDReport

    cfg = cfg_mod.parse_config(json.dumps(BASE_CONFIG))
    cfg.output.directory = str(tmp_path / "out")
    with pytest.raises(ValueError, match="unknown stage 'ramp'"):
        run(cfg, until="ramp")
    monkeypatch.setattr("seglv.runner.nd_margin",
                        lambda *a, **k: NDReport(margin=-0.5, rayleigh_iterations=1))
    with pytest.raises(PipelineError) as err:
        run(cfg, until="nd")
    assert err.value.stage == "nd"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failure"]["stage"] == "nd"
    assert "degenerate" in summary["failure"]["error"]


def test_runner_probe_uses_solver_budget(tmp_path, monkeypatch):
    # the configured Newton tolerance reaches the ramp and the probe
    from seglv import config as cfg_mod
    from seglv import runner

    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["solver"] = {"newton_tol": 3e-11, "eig_tol": 2e-9}
    doc["output"] = {"directory": str(tmp_path / "out")}
    calls = {name: count_calls(monkeypatch, runner, name)
             for name in ("continuation_run", "uniqueness_probe")}
    run(cfg_mod.parse_config(json.dumps(doc)))
    assert calls == {"continuation_run": [{"tol": 3e-11}],
                     "uniqueness_probe": [{"tol": 3e-11}]}


def test_runner_skips_uniqueness_without_probe_section(tmp_path):
    from seglv import config as cfg_mod

    doc = {
        "domain": {"bbox": [-1.4, -1.4, 1.4, 1.4], "h": 0.125,
                   "balls": [{"center": [0.0, 0.0], "radius": 1.0}]},
        "species": [{"lambda": 12.0, "p": 2.0}],
        "schedule": {"kappa_start": 4.0, "factor": 4.0, "steps": 2},
        "output": {"directory": str(tmp_path / "out"), "emit_fields": False},
    }
    summary = run(cfg_mod.parse_config(json.dumps(doc)), until="uniqueness")
    assert summary.stages_completed == ["domain", "baseline", "nd", "phi",
                                        "continuation"]
    assert len(summary.continuation) == 2 and summary.failure is None
    written = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert written["uniqueness"] is None


def test_single_ball_run_has_no_coupling_effects(tmp_path):
    from seglv import config as cfg_mod

    doc = {
        "domain": {"bbox": [-1.4, -1.4, 1.4, 1.4], "h": 0.125,
                   "balls": [{"center": [0.0, 0.0], "radius": 1.0}]},
        "species": [{"lambda": 12.0, "p": 2.0}],
        "schedule": {"kappa_start": 4.0, "factor": 4.0, "steps": 4},
        "output": {"directory": str(tmp_path / "out"), "emit_fields": True},
    }
    cfg = cfg_mod.parse_config(json.dumps(doc))
    summary = run(cfg, until="continuation")
    assert summary.continuation_failure is None
    assert len(summary.nd_margins) == 1 and summary.nd_margins[0] > 0
    # with one species every coupling sum is empty: the state never moves
    # off the scalar baseline along the whole ramp
    base, hb = sg.read_field_values(tmp_path / "out" / "u0_baseline.csv")
    for step in summary.continuation:
        assert step["diagnostics"]["overlap_matrix"] == [[0.0]]
    final, hf = sg.read_field_values(tmp_path / "out" / "u0_256.csv")
    assert np.abs(final - base).max() <= 1e-9


def test_runner_lotka_volterra_model(tmp_path):
    from seglv import config as cfg_mod

    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["model"] = {"kind": "lotka_volterra"}
    doc["schedule"] = {"kappa_start": 16.0, "factor": 4.0, "steps": 3}
    del doc["probes"]
    cfg = cfg_mod.parse_config(json.dumps(doc))
    cfg.output.directory = str(tmp_path / "out")
    cfg.output.emit_fields = False
    summary = run(cfg, until="continuation")
    assert summary.continuation_failure is None
    # the plain model's box lower bound is u >= 0: converged states are
    # nonnegative, so no violations
    assert all(step["diagnostics"]["box_violations"] == 0
               for step in summary.continuation)


def truncation_config(tmp_path):
    """BASE_CONFIG with truncation caps, cut short: the positive-part model
    from kappa 16, factor 4, 4 steps, without probes."""
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["model"] = {"kind": "positive_part", "truncation": True}
    # the positive-part reformulation has no nonnegative solution near the
    # baseline until kappa clears the foreign-ball instability rate
    doc["schedule"] = {"kappa_start": 16.0, "factor": 4.0, "steps": 4}
    del doc["probes"]
    path = tmp_path / "truncation.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_truncation_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg = truncation_config(tmp_path)
    assert main(["continue", str(cfg), "--output", str(out1)]) == 0
    assert main(["continue", str(cfg), "--output", str(out2)]) == 0
    assert_same_outputs(out1, out2)


def test_runner_truncation_stage_builds_caps(tmp_path, monkeypatch, caplog):
    from seglv import config as cfg_mod
    from seglv import runner

    models = []
    continuation_run = runner.continuation_run

    def recording_run(domain, species, model, *args, **kwargs):
        models.append(model)
        return continuation_run(domain, species, model, *args, **kwargs)

    monkeypatch.setattr(runner, "continuation_run", recording_run)

    cfg = cfg_mod.parse_config(truncation_config(tmp_path).read_text())
    cfg.output.directory = str(tmp_path / "out")
    cfg.output.emit_fields = False
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        summary = run(cfg, until="continuation")
    assert "phi" in summary.stages_completed
    # the two species have equal parameters, so they share one phi solve
    assert len([r for r in caplog.records
                if r.getMessage().startswith("global profile:")]) == 1
    [model] = models
    assert model.caps.k == 2
    per_kappa = summary.continuation
    assert all(step["diagnostics"]["box_violations"] == 0 for step in per_kappa)


def test_runner_phi_uses_solver_budget(tmp_path, monkeypatch):
    # the configured Newton and eigen tolerances reach every scalar solve
    from seglv import config as cfg_mod
    from seglv import runner, scalar

    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["model"] = {"kind": "positive_part", "truncation": True}
    doc["solver"] = {"newton_tol": 3e-11, "eig_tol": 2e-9}
    cfg = cfg_mod.parse_config(json.dumps(doc))
    cfg.output.directory = str(tmp_path / "out")
    cfg.output.emit_fields = False
    calls = {name: count_calls(monkeypatch, runner, name)
             for name in ("positive_branch_guess", "solve_ball", "nd_margin",
                          "supersolution_phi")}
    # the baseline stage calls the runner's own binding; this one is phi's,
    # one call per level (the 2h subgrid, then h) of its one solve
    phi_balls = count_calls(monkeypatch, scalar, "solve_ball")
    summary = run(cfg, until="phi")
    assert summary.stages_completed[-1] == "phi"
    both = {"newton_tol": 3e-11, "eig_tol": 2e-9}
    assert calls == {"positive_branch_guess": [{"eig_tol": 2e-9}] * 2,
                     "solve_ball": [{"newton_tol": 3e-11}] * 2,
                     "nd_margin": [{"eig_tol": 2e-9}] * 2,
                     "supersolution_phi": [both] * 2}
    assert phi_balls == [{"newton_tol": 3e-11}] * 2


def test_cli_output_flag_overrides_config(tmp_path, capsys):
    configured, override = tmp_path / "configured", tmp_path / "override"
    cfg = write_config(tmp_path, {"output.directory": str(configured)})
    assert main(["solve-baseline", str(cfg), "--output", str(override)]) == 0
    assert f"outputs in {override}" in capsys.readouterr().out
    assert (override / "summary.json").exists()
    assert (override / "u0_baseline.csv").exists()
    assert not configured.exists()
