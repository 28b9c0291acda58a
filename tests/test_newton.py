import logging

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spilu

import seglv as sg
from seglv import NonlinearSolveError, newton
from seglv.newton import damped_newton
from seglv.system import _System

from conftest import count_calls


class _AscentSolver:
    """Solves J s = b with the wrong sign, so its Newton step points uphill."""

    def solve(self, b):
        return -b


def _run(x0, linearize, residuals=None):
    # residual(x) = x with a zero right-hand side, so J = I, the exact
    # Newton step from x is -x and the solve stops at residual 1e-10
    def residual(x):
        if residuals is not None:
            residuals.append(x.copy())
        return x.copy(), float(np.linalg.norm(x)), 0.0

    return damped_newton(np.asarray(x0, dtype=float), residual, linearize,
                         1e-10, as_iterate=lambda x: x)


def test_ascent_direction_stalls(monkeypatch):
    # the kernel reads its halving budget when it runs
    monkeypatch.setattr(newton, "MAX_BACKTRACKS", 3)
    residuals = []
    with pytest.raises(NonlinearSolveError, match="newton stalled at residual 5.000e") as err:
        _run([3.0, -4.0], lambda x: _AscentSolver(), residuals)
    assert err.value.residual_history == [5.0]
    assert np.array_equal(err.value.last_iterate, [3.0, -4.0])
    assert len(residuals) == 1 + 4  # the start, then t = 1, 1/2, 1/4, 1/8


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
    """Returns b times the next of `scales`, or raises RuntimeError where
    that scale is None, and records the shape of every b.  In damped Newton
    the first solve is the Newton step and the later ones are the polish
    steps; in ``full_steps`` each solve is one round's block."""

    def __init__(self, scales):
        self.scales = iter(scales)
        self.shapes = []

    def solve(self, b):
        assert b.flags.f_contiguous
        self.shapes.append(b.shape)
        scale = next(self.scales)
        if scale is None:
            raise RuntimeError("Factor is exactly singular")
        return scale * b


@pytest.mark.parametrize("polish, accepted", [(0.01, 0), (0.9, 2)],
                         ids=["one_percent_rejected", "ninety_percent_accepted"])
def test_polish_must_halve_the_residual(polish, accepted):
    # the Newton step lands at residual 1e-11, below the target; a polish
    # step removing only 1% of it is round-off and neither taken nor counted
    _, rnorm, iterations = _run(
        [1.0], lambda x: _ScaledSolver([1 - 1e-11, polish, polish]))
    assert iterations == 1 + accepted
    assert rnorm == pytest.approx(1e-11 * (1 - polish) ** accepted, rel=1e-4)


def _full_steps(x0s, solver):
    # residual(x) = x with a zero right-hand side, as in _run; a step of
    # scale 0.75 quarters the residual norm, and the target is 2^-10.  An
    # iterate is a column (v, 0), so that a block of them is Fortran-order
    # only when it is stored by columns
    def residual(x):
        return x.copy(), float(np.linalg.norm(x)), 0.0

    X = np.array([[v, 0.0] for v in x0s]).T
    histories = [[abs(v)] for v in x0s]
    short, rounds = newton.full_steps(
        X, X.copy(order="F"), [0.0] * len(x0s), histories, solver.solve,
        residual, 2.0 ** -10)
    return list(X[0]), short, rounds, histories


def test_full_steps_one_solve_per_round():
    # from 1 the target takes 5 steps, from 2^-4 it takes 3, and 2^-12 is
    # already there; each then takes the 2 polish steps
    solver = _ScaledSolver([0.75] * 7)
    xs, short, rounds, histories = _full_steps([1.0, 2.0 ** -4, 2.0 ** -12],
                                               solver)
    assert [cols for _, cols in solver.shapes] == [3, 3, 2, 2, 2, 1, 1]
    assert rounds == [(3, 3, 0)] * 2 + [(2, 2, 0)] * 3 + [(1, 1, 0)] * 2
    assert not short
    assert xs == [2.0 ** -14, 2.0 ** -14, 2.0 ** -16]
    assert [len(h) - 1 for h in histories] == [7, 5, 2]


def test_full_steps_refusal_before_and_after_target():
    # a step of scale 0.01 removes 1% of the residual and is refused: the
    # iterate not yet at the target is left short, and the converged one
    # only ends its polish
    solver = _ScaledSolver([0.75, 0.01])
    xs, short, rounds, histories = _full_steps([1.0, 2.0 ** -12], solver)
    assert short == {0}
    assert rounds == [(2, 2, 0), (2, 0, 1)]
    assert xs == [0.25, 2.0 ** -14]
    assert histories == [[1.0, 0.25], [2.0 ** -12, 2.0 ** -14]]


@pytest.mark.parametrize("polish", [0, 1, 3])
def test_full_steps_polish_count(monkeypatch, polish):
    # the rule reads POLISH_STEPS when it runs
    monkeypatch.setattr(newton, "POLISH_STEPS", polish)
    solver = _ScaledSolver([0.75] * 10)
    _, short, _, histories = _full_steps([1.0, 2.0 ** -12], solver)
    assert not short
    assert [len(h) - 1 for h in histories] == [5 + polish, polish]
    assert len(solver.shapes) == 5 + polish


def test_full_steps_budget(monkeypatch):
    # 3 steps reach the target from 2^-4 but not from 1: the target is
    # checked first, so only the start at 1 is left short, after its third
    # step; the polish steps of the other are not counted against it
    monkeypatch.setattr(newton, "MAX_NEWTON", 3)
    solver = _ScaledSolver([0.75] * 5)
    xs, short, rounds, histories = _full_steps([1.0, 2.0 ** -4], solver)
    assert short == {0}
    assert len(histories[0]) == newton.MAX_NEWTON + 1
    assert xs[0] == 2.0 ** -6
    assert rounds[2] == (2, 2, 1)
    assert [len(h) - 1 for h in histories] == [3, 5]


def test_full_steps_solver_failure_refuses_the_round():
    solver = _ScaledSolver([0.75, None])
    xs, short, rounds, histories = _full_steps([1.0, 2.0 ** -12], solver)
    assert short == {0}
    assert rounds == [(2, 2, 0), (2, 0, 1)]
    assert xs == [0.25, 2.0 ** -14]
    assert [len(h) - 1 for h in histories] == [1, 1]


def _convection_diffusion(m):
    """Nonsymmetric 5-point convection-diffusion matrix on an m x m grid."""
    one_d = sp.diags([-1.3, 2.0, -0.7], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    return (sp.kron(eye, one_d) + sp.kron(one_d, eye)).tocsc()


def _counting(fn):
    calls = []

    def counted(v):
        calls.append(1)
        return fn(v)

    return counted, calls


def test_right_gmres_meets_true_residual_with_inexact_lu():
    J = _convection_diffusion(20)
    b = np.random.default_rng(0).standard_normal(J.shape[0])
    ilu = spilu(J, drop_tol=1e-2)
    precondition, solves = _counting(ilu.solve)
    x, iterations, converged = newton.right_gmres(J.dot, b, precondition)
    assert converged and iterations > 1
    assert np.linalg.norm(J @ x - b) <= 1e-6 * np.linalg.norm(b)
    # one preconditioner solve per iteration, none for norms or the update
    assert len(solves) == iterations


def test_right_gmres_zero_rhs_makes_no_solve():
    J = _convection_diffusion(4)
    precondition, solves = _counting(lambda v: v)
    apply, matvecs = _counting(J.dot)
    x, iterations, converged = newton.right_gmres(apply, np.zeros(16), precondition)
    assert converged and iterations == 0
    assert np.array_equal(x, np.zeros(16)) and not solves and not matvecs


def test_right_gmres_exact_preconditioner_takes_one_iteration():
    J = _convection_diffusion(10)
    b = np.random.default_rng(1).standard_normal(J.shape[0])
    lu = newton.factorize(J)
    x, iterations, converged = newton.right_gmres(J.dot, b, lu.solve)
    assert converged and iterations == 1
    assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_right_gmres_reports_miss_after_one_cycle():
    # the cyclic shift stalls GMRES: J x over the Krylov space of e_0 stays
    # orthogonal to e_0, so the residual is ||e_0|| until n iterations
    n = newton.KRYLOV_MAXITER + 10
    J = sp.csr_matrix(np.roll(np.eye(n), 1, axis=0))
    b = np.zeros(n)
    b[0] = 1.0
    apply, matvecs = _counting(J.dot)
    _, iterations, converged = newton.right_gmres(apply, b, lambda v: v)
    assert not converged
    assert iterations == newton.KRYLOV_MAXITER
    # one matvec per iteration and one true-residual matvec, no restart
    assert len(matvecs) == iterations + 1


def _indefinite_laplacian(setup):
    """5-point Laplacian on a 24 x 24 grid minus 500 I, which lies between
    its smallest and largest eigenvalues."""
    A, _ = sg.unit_square_domain(24).laplacian()
    J = A - 500.0 * sp.identity(A.shape[0])
    eigenvalues = np.linalg.eigvalsh(J.toarray())
    assert eigenvalues[0] < 0.0 < eigenvalues[-1]
    return J


def _dumbbell2_jacobian(setup):
    """Coupled barrier Jacobian at the baselines, kappa = 64."""
    U0 = setup["baseline"]
    system = _System(setup["domain"], setup["species"],
                     sg.ModelKind.barrier(U0), 64.0)
    return system.jacobian(system.stack(U0))


@pytest.mark.parametrize("matrix", [
    _indefinite_laplacian, lambda setup: _convection_diffusion(20),
    _dumbbell2_jacobian], ids=["indefinite_laplacian", "convection_diffusion",
                               "dumbbell2_jacobian"])
def test_factorize_solves_to_round_off(matrix, dumbbell2_setup, monkeypatch):
    J = matrix(dumbbell2_setup)
    b = np.random.default_rng(2).standard_normal(J.shape[0])
    calls = count_calls(monkeypatch, newton, "splu")
    x = newton.factorize(J).solve(b)
    assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)
    # column at a time, on the minimum-degree ordering of the symmetric
    # pattern
    assert calls == [{"permc_spec": "MMD_AT_PLUS_A", "panel_size": 1,
                      "options": {"SymmetricMode": True}}]


def test_factorize_logs_order_and_fill(caplog):
    A, _ = sg.unit_square_domain(8).laplacian()
    with caplog.at_level(logging.DEBUG, logger="seglv.newton"):
        lu = newton.factorize(A)
    [line] = [r.getMessage() for r in caplog.records if r.name == "seglv.newton"]
    assert line == f"LU of order {A.shape[0]}: fill {lu.L.nnz + lu.U.nnz}"
