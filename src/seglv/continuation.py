"""Competition-strength continuation toward the segregation limit.

The singular limit kappa -> infinity is approached on a geometric ramp
kappa_m = kappa_start * factor^m (``ContinuationSchedule``, which is also
the ``schedule`` of a parsed run config) with each solve warm-started from
the previous one.  Every step records the state and its diagnostics, so
decay of the overlap integrals, the Cauchy property of the H1 differences,
and the non-invasion entries can be read off the trace.  A failed solve
leaves a partial trace with the failure recorded instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .diagnostics import DiagnosticsReport, compute_diagnostics
from .errors import NonlinearSolveError
from .newton import NEWTON_TOL
from .operators import StateField
from .system import ModelKind, solve_system


@dataclass(frozen=True)
class ContinuationSchedule:
    """Geometric kappa ramp kappa_start * factor^m, m = 0 .. steps - 1.

    Raises ValueError for a ramp that is empty, does not grow, starts
    below zero, starts at zero with more than one step, or ends beyond the
    float range.
    """

    kappa_start: float = 1.0
    factor: float = 2.0
    steps: int = 18

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("schedule needs at least one step")
        if not self.factor > 1:
            raise ValueError("ramp factor must exceed 1")
        if self.kappa_start < 0:
            raise ValueError("kappa_start must be nonnegative")
        if self.kappa_start == 0 and self.steps > 1:
            raise ValueError("kappa_start = 0 is only meaningful for a single step")
        try:
            last = float(self.kappa_start * self.factor ** (self.steps - 1))
        except OverflowError:
            last = math.inf
        if not math.isfinite(last):
            raise ValueError("the ramp's last kappa exceeds the float range")

    def kappas(self):
        return [self.kappa_start * self.factor ** m for m in range(self.steps)]


@dataclass
class ContinuationStep:
    kappa: float
    state: StateField
    diagnostics: DiagnosticsReport
    newton_iterations: int


@dataclass
class ContinuationTrace:
    steps: list[ContinuationStep] = field(default_factory=list)
    failure: str | None = None

    def kappas(self):
        return [s.kappa for s in self.steps]

    def final_state(self):
        if not self.steps:
            raise ValueError("empty trace has no final state")
        return self.steps[-1].state


def continuation_run(domain, species, model: ModelKind,
                     schedule: ContinuationSchedule, initial=None, *,
                     tol=NEWTON_TOL) -> ContinuationTrace:
    """March kappa up the schedule with warm starts, recording diagnostics.

    Each step runs ``solve_system`` with `tol`; diagnostics use the
    tolerance 10 * tol.  The initial guess defaults to the model's baseline
    (for the plain Lotka-Volterra model pass the baseline tuple extended by
    zero explicitly).  On solver failure the partial trace is returned with
    `failure` set; completed steps stay valid.  Raises ValueError unless
    tol is positive.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if initial is None:
        initial = model.baseline
    if initial is None:
        raise ValueError("an initial state is required when the model has no baseline")
    if initial.domain is not domain:
        raise ValueError("initial state lives on a different domain")
    if model.kind == "lotka_volterra":
        # box lower bound for the plain model is u_i >= 0
        box_baseline = StateField.zeros(domain, len(species))
    else:
        box_baseline = model.baseline
    trace = ContinuationTrace()
    state = initial
    for kappa in schedule.kappas():
        try:
            state, iters = solve_system(state, species, model, kappa, tol)
        except NonlinearSolveError as exc:
            trace.failure = f"kappa={kappa:.6g}: {exc}"
            break
        report = compute_diagnostics(state, species, 10.0 * tol,
                                     baseline=box_baseline, phi=model.caps)
        trace.steps.append(ContinuationStep(kappa, state, report, iters))
    return trace
