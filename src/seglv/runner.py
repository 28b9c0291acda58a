"""Experiment orchestration: baselines, margins, continuation, probes.

The pipeline runs in stages — build the domain, solve the per-ball
baseline profiles, check their nondegeneracy margins, optionally compute
the truncation profiles, march the competition strength up the schedule,
and optionally probe uniqueness at the final strength.  Artifacts (CSV
fields, per-step trace JSON, optional graymaps, and the machine-readable
summary) land in the configured output directory.  A failing stage still
flushes a valid summary naming the stage.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .continuation import continuation_run
from .diagnostics import uniqueness_probe
from .domain import build_domain, unit_square_domain
from .errors import NDFailure, PipelineError
from .fileio import _fmt, emit_field, emit_image, emit_json
from .operators import ScalarField, StateField, norm, solve_spd
from .scalar import nd_margin, positive_branch_guess, solve_ball, supersolution_phi
from .system import ModelKind

STAGES = ("domain", "baseline", "nd", "phi", "continuation", "uniqueness")


@dataclass
class RunSummary:
    """Machine-readable record of one pipeline run."""

    stages_completed: list[str] = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)
    baseline: list = field(default_factory=list)
    nd_margins: list = field(default_factory=list)
    continuation: list = field(default_factory=list)
    continuation_failure: str | None = None
    uniqueness: dict | None = None
    failure: dict | None = None


def _write_summary(summary: RunSummary, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    emit_json(asdict(summary), outdir / "summary.json")


def run(config: RunConfig, until: str = "uniqueness") -> RunSummary:
    """Execute the pipeline through stage `until` (inclusive).

    Raises PipelineError carrying the partial summary when a stage fails;
    the summary is flushed to disk either way.
    """
    if until not in STAGES:
        raise ValueError(f"unknown stage {until!r}")
    last = STAGES.index(until)
    outdir = Path(config.output.directory)
    summary = RunSummary()
    state = {}
    current = STAGES[0]
    try:
        for stage in STAGES[:last + 1]:
            current = stage
            if stage == "uniqueness" and config.uniqueness is None:
                continue
            t0 = time.perf_counter()
            _STAGE_FUNCS[stage](config, state, summary, outdir)
            summary.wall_clock[stage] = time.perf_counter() - t0
            summary.stages_completed.append(stage)
            if stage == "continuation" and summary.continuation_failure:
                raise RuntimeError(summary.continuation_failure)
    except Exception as exc:
        summary.failure = {"stage": current, "error": str(exc)}
        _write_summary(summary, outdir)
        raise PipelineError(current, str(exc), summary) from exc
    _write_summary(summary, outdir)
    return summary


def _stage_domain(config, state, summary, outdir):
    state["domain"] = build_domain(config.domain.balls, config.domain.corridors,
                                   config.domain.bbox, config.domain.h)


def _stage_baseline(config, state, summary, outdir):
    domain = state["domain"]
    solver = config.solver
    baselines = []
    for i, sp_params in enumerate(config.species):
        region = domain.species_ball_mask(i)
        guess, lam1 = positive_branch_guess(domain, region, eig_tol=solver.eig_tol)
        report = solve_ball(sp_params, region, domain, guess,
                            newton_tol=solver.newton_tol)
        if not report.positive:
            raise RuntimeError(
                f"no positive baseline for species {i}: lambda {sp_params.lam:.6g} "
                f"is at or below lambda_1 {lam1:.6g} of its ball")
        baselines.append(report.solution)
        summary.baseline.append({
            "species": i,
            "lambda_1": lam1,
            "newton_iterations": report.newton_iterations,
            "final_residual": report.final_residual,
            "amplitude": norm(report.solution, "Linf"),
        })
        if config.output.emit_fields:
            outdir.mkdir(parents=True, exist_ok=True)
            emit_field(report.solution, outdir / f"u{i}_baseline.csv")
    state["baseline"] = StateField(baselines)


def _stage_nd(config, state, summary, outdir):
    domain = state["domain"]
    for i, sp_params in enumerate(config.species):
        region = domain.species_ball_mask(i)
        report = nd_margin(state["baseline"][i], sp_params, region,
                           eig_tol=config.solver.eig_tol)
        summary.nd_margins.append(report.margin)
        if report.margin <= 0:
            raise NDFailure(
                f"species {i} baseline is degenerate: margin {report.margin:.6g}")


def _stage_phi(config, state, summary, outdir):
    if not config.model.truncation:
        return
    domain = state["domain"]
    solver = config.solver
    # species with equal parameters share one solve (supersolution_phi)
    state["caps"] = StateField([supersolution_phi(sp_params, domain,
                                                  newton_tol=solver.newton_tol,
                                                  eig_tol=solver.eig_tol)
                                for sp_params in config.species])


def _stage_continuation(config, state, summary, outdir):
    model = ModelKind(config.model.kind, baseline=state["baseline"],
                      caps=state.get("caps"))
    trace = continuation_run(state["domain"], config.species, model,
                             config.schedule, tol=config.solver.newton_tol)
    state["model"] = model
    state["trace"] = trace
    outdir.mkdir(parents=True, exist_ok=True)
    for step in trace.steps:
        tag = _fmt(step.kappa)
        record = {"kappa": step.kappa,
                  "newton_iterations": step.newton_iterations,
                  "diagnostics": step.diagnostics.to_json_dict()}
        summary.continuation.append(record)
        emit_json(record, outdir / f"trace_{tag}.json")
        if config.output.emit_fields:
            for i, u in enumerate(step.state):
                emit_field(u, outdir / f"u{i}_{tag}.csv")
        if config.output.emit_images:
            for i, u in enumerate(step.state):
                emit_image(u, outdir / f"u{i}_{tag}.pgm")
    summary.continuation_failure = trace.failure


def _stage_uniqueness(config, state, summary, outdir):
    trace = state["trace"]
    probe = config.uniqueness
    report = uniqueness_probe(state["domain"], config.species, state["model"],
                              trace.steps[-1].kappa, trace.final_state(),
                              probe.delta, probe.trials, probe.seed,
                              tol=config.solver.newton_tol)
    summary.uniqueness = asdict(report)


_STAGE_FUNCS = {
    "domain": _stage_domain,
    "baseline": _stage_baseline,
    "nd": _stage_nd,
    "phi": _stage_phi,
    "continuation": _stage_continuation,
    "uniqueness": _stage_uniqueness,
}


def convergence_study(hs=(1 / 32, 1 / 64, 1 / 128)):
    """Manufactured-solution refinement study for the Poisson kernel.

    Solves A u = 2 pi^2 sin(pi x) sin(pi y) on the unit square at each
    spacing and reports L2 errors against the exact product of sines along
    with consecutive error ratios (second-order stencil: ratios near 4).
    """
    errors = []
    for h in hs:
        n = round(1.0 / h)
        domain = unit_square_domain(n)
        X, Y = domain.coords()
        exact = np.sin(np.pi * X) * np.sin(np.pi * Y)
        exact[~domain.interior_mask] = 0.0
        rhs = ScalarField(domain, 2.0 * np.pi ** 2 * exact)
        solved = solve_spd(rhs)
        diff = ScalarField(domain, solved.values - exact)
        errors.append(norm(diff, "L2"))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return {"h": [float(h) for h in hs], "l2_error": errors, "ratio": ratios}
