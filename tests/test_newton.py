import numpy as np
import pytest

from seglv import NonlinearSolveError
from seglv.newton import damped_newton


class _AscentSolver:
    """Solves J s = b with the wrong sign, so its Newton step points uphill."""

    def solve(self, b):
        return -b


def _run(x0, linearize):
    # residual(x) = x, so J = I and the exact Newton step from x is -x
    return damped_newton(np.asarray(x0, dtype=float), lambda x: x.copy(), linearize,
                         lambda r: float(np.linalg.norm(r)), lambda x, r: 1e-10,
                         max_newton=20, max_backtracks=3, as_iterate=lambda x: x)


def test_ascent_direction_stalls():
    with pytest.raises(NonlinearSolveError, match="newton stalled at residual 5.000e") as err:
        _run([3.0, -4.0], lambda x: _AscentSolver())
    assert err.value.residual_history == [5.0]
    assert np.array_equal(err.value.last_iterate, [3.0, -4.0])


def test_converged_start_that_cannot_linearize_skips_polish():
    calls = []

    def singular(x):
        calls.append(x.copy())
        raise RuntimeError("Factor is exactly singular")

    x0 = np.array([1e-12, 0.0])
    x, rnorm, iterations = _run(x0, singular)
    assert len(calls) == 1
    assert np.array_equal(x, x0) and rnorm == 1e-12 and iterations == 0


class _ScaledSolver:
    """Returns b times the next of `scales`: the first solve is the Newton
    step, the later ones are the polish steps."""

    def __init__(self, scales):
        self.scales = iter(scales)

    def solve(self, b):
        return next(self.scales) * b


@pytest.mark.parametrize("polish, accepted", [(0.01, 0), (0.9, 2)],
                         ids=["one_percent_rejected", "ninety_percent_accepted"])
def test_polish_must_halve_the_residual(polish, accepted):
    # the Newton step lands at residual 1e-11, below the target; a polish
    # step removing only 1% of it is round-off and neither taken nor counted
    _, rnorm, iterations = _run(
        [1.0], lambda x: _ScaledSolver([1 - 1e-11, polish, polish]))
    assert iterations == 1 + accepted
    assert rnorm == pytest.approx(1e-11 * (1 - polish) ** accepted, rel=1e-4)
