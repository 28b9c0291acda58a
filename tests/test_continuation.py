import numpy as np
import pytest

import seglv as sg
from seglv import (ContinuationSchedule, ContinuationTrace, ModelKind, StateField,
                   continuation_run)
from seglv import newton


def test_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule(1.0, 2.0, 0)
    with pytest.raises(ValueError):
        ContinuationSchedule(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        ContinuationSchedule(-1.0, 2.0, 3)
    with pytest.raises(ValueError):
        ContinuationSchedule(0.0, 2.0, 3)
    ContinuationSchedule(0.0, 2.0, 1)  # single decoupled step is allowed
    assert ContinuationSchedule(4.0, 2.0, 3).kappas() == [4.0, 8.0, 16.0]


def test_single_step_kappa_zero_decouples(dumbbell2_setup):
    setup = dumbbell2_setup
    dom = setup["domain"]
    guess, _ = sg.positive_branch_guess(dom, None)
    initial = sg.StateField([guess, guess])
    trace = continuation_run(dom, setup["species"], ModelKind.lotka_volterra(),
                             ContinuationSchedule(0.0, 2.0, 1), initial=initial)
    assert trace.failure is None and len(trace.steps) == 1
    single = sg.solve_ball(setup["species"][0], dom.interior_mask, dom, guess).solution
    for u in trace.steps[0].state:
        assert np.allclose(u.values, single.values, atol=1e-8)


def test_trace_structure_and_warm_start(dumbbell2_trace, dumbbell2_setup):
    trace = dumbbell2_trace
    kappas = trace.kappas()
    assert kappas == sorted(kappas)
    assert all(s.newton_iterations >= 0 for s in trace.steps)
    # warm start at the final kappa costs no more iterations than a cold start
    setup = dumbbell2_setup
    model = ModelKind.barrier(setup["baseline"])
    _, warm = sg.solve_system(trace.steps[-2].state, setup["species"], model,
                              kappas[-1], 1e-10)
    _, cold = sg.solve_system(setup["baseline"], setup["species"], model,
                              kappas[-1], 1e-10)
    assert warm <= cold


def test_overlap_monotone_along_trace(dumbbell2_trace):
    overlaps = [s.diagnostics.overlap_matrix.max() for s in dumbbell2_trace.steps]
    # skip the first step where the corridor tails are still forming
    tail = overlaps[1:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_noninvasion_monotone_for_large_kappa(dumbbell2_trace):
    entries = []
    for s in dumbbell2_trace.steps:
        if s.kappa >= 100.0:
            M = s.diagnostics.noninvasion
            entries.append(max(M[0, 1], M[1, 0]))
    assert all(b <= a for a, b in zip(entries, entries[1:]))


def test_lv_continuation_runs(dumbbell2_setup):
    setup = dumbbell2_setup
    schedule = ContinuationSchedule(32.0, 2.0, 6)
    trace = continuation_run(setup["domain"], setup["species"],
                             ModelKind.lotka_volterra(), schedule,
                             initial=setup["baseline"])
    assert trace.failure is None
    for step in trace.steps:
        for u in step.state:
            assert u.values.min() >= -1e-12


def test_partial_trace_on_failure(dumbbell2_setup, monkeypatch):
    setup = dumbbell2_setup
    model = ModelKind.barrier(setup["baseline"])
    schedule = ContinuationSchedule(4.0, 1e6, 3)
    monkeypatch.setattr(newton, "MAX_NEWTON", 2)
    monkeypatch.setattr(newton, "MAX_BACKTRACKS", 1)
    trace = continuation_run(setup["domain"], setup["species"], model, schedule)
    assert trace.failure is not None
    assert len(trace.steps) < 3
    with pytest.raises(ValueError, match="empty trace"):
        ContinuationTrace().final_state()


def test_initial_required_without_baseline(dumbbell2_setup):
    with pytest.raises(ValueError, match="initial state"):
        continuation_run(dumbbell2_setup["domain"], dumbbell2_setup["species"],
                         ModelKind.lotka_volterra(),
                         ContinuationSchedule(4.0, 2.0, 2))
    elsewhere = StateField.zeros(sg.unit_square_domain(4), 2)
    with pytest.raises(ValueError, match="initial state lives on a different domain"):
        continuation_run(dumbbell2_setup["domain"], dumbbell2_setup["species"],
                         ModelKind.lotka_volterra(),
                         ContinuationSchedule(4.0, 2.0, 2), elsewhere)


@pytest.mark.parametrize("tol", [0.0, -1e-10])
def test_nonpositive_tol_rejected(dumbbell2_setup, tol):
    baseline = dumbbell2_setup["baseline"]
    with pytest.raises(ValueError, match="tol must be positive"):
        continuation_run(dumbbell2_setup["domain"], dumbbell2_setup["species"],
                         ModelKind.barrier(baseline),
                         ContinuationSchedule(4.0, 2.0, 2), tol=tol)
