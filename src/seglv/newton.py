"""Damped Newton with sparse direct linear algebra, shared by every solver.

One kernel serves the scalar ball problems and the coupled k-species
systems.  It works on a flat unknown vector through three callables
(residual, Jacobian, residual norm) plus a convergence target, and it owns
every factorization:

* Each step solves J(x) s = -r(x) with a sparse LU and halves s until the
  residual norm falls by the Armijo-style factor (1 - 1e-4 t).
* Every matrix is factored through ``factorize``: minimum-degree ordering
  on the pattern of J^T + J with diagonal pivots preferred (SuperLU's
  symmetric mode).  The 5-point Laplacian and the Jacobians built on it are
  structurally symmetric, so this ordering keeps the fill of L and U far
  below the default column ordering's.  It is the package's only linear
  solver: Poisson solves, eigen-solves and margins factor through it too.
* After convergence up to two polish steps drive the residual toward
  machine level, which the nodewise inequality diagnostics rely on.  They
  are chord steps: they reuse the LU of the last Newton step instead of
  factoring again, and contract superlinearly that close to the solution.
  Only a start that is already converged gets a factorization of its own.
* A caller solving many nearby problems may hand in the LU of a nearby
  Jacobian (``lu=``).  Steps then start as full chord steps on that
  factor, each accepted while it at least halves the residual norm; the
  first that does not drops the factor for the rest of the solve, and
  ordinary damped Newton goes on from the current iterate (Kelley's
  chord / Shamanskii rule, *Solving Nonlinear Equations with Newton's
  Method*, SIAM 2003, section 5.4).  A solve that converges on chord steps
  alone polishes on the same factor and builds none of its own.
* The kernel keeps at most one LU of its own alive; the previous one is
  dropped before the next is built, which bounds peak memory at a single
  factor.  A handed-in factor belongs to the caller and outlives the
  solve, so while a solve falls back from it two factors are alive.
"""

from __future__ import annotations

from scipy.sparse.linalg import splu

from .errors import NonlinearSolveError


def factorize(J):
    """Sparse LU of the structurally symmetric matrix J (SuperLU object)."""
    return splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True})


def damped_newton(x, residual, jacobian, norm, target, *, max_newton,
                  max_backtracks, as_iterate, lu=None):
    """Solve residual(x) = 0 from the flat start vector x.

    Iterates until norm(r) <= target(x, r).  Returns (x, norm(r),
    iterations); accepted chord and polish steps count as iterations.
    `lu`, when given, is a factorization of a nearby Jacobian that the
    first steps reuse as chord steps (see the module docstring).  Raises
    NonlinearSolveError when the budget of `max_newton` steps runs out, a
    linearization is singular, or a step cannot reduce the residual after
    `max_backtracks` halvings; its last_iterate is as_iterate(x) and its
    residual_history holds the norm after every accepted step.
    """
    r = residual(x)
    rnorm = norm(r)
    history = [rnorm]
    iterations = 0
    chord = lu is not None

    def failure(message):
        return NonlinearSolveError(message, last_iterate=as_iterate(x),
                                   residual_history=history)

    while rnorm > target(x, r):
        if iterations >= max_newton:
            raise failure(f"newton budget exhausted at residual {rnorm:.3e}")
        if chord:
            trial = x + lu.solve(-r)
            rt = residual(trial)
            rtnorm = norm(rt)
            if rtnorm <= 0.5 * rnorm:
                x, r, rnorm = trial, rt, rtnorm
                history.append(rnorm)
                iterations += 1
                continue
            chord = False
        lu = None
        try:
            lu = factorize(jacobian(x))
            step = lu.solve(-r)
        except RuntimeError as exc:
            raise failure(f"singular linearization: {exc}") from exc
        t = 1.0
        for _ in range(max_backtracks + 1):
            trial = x + t * step
            rt = residual(trial)
            rtnorm = norm(rt)
            if rtnorm <= (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        else:
            raise failure(f"newton stalled at residual {rnorm:.3e}")
        x, r, rnorm = trial, rt, rtnorm
        history.append(rnorm)
        iterations += 1

    for _ in range(2):
        try:
            if lu is None:
                lu = factorize(jacobian(x))
            step = lu.solve(-r)
        except RuntimeError:
            break
        trial = x + step
        rt = residual(trial)
        rtnorm = norm(rt)
        if not rtnorm < rnorm:
            break
        x, r, rnorm = trial, rt, rtnorm
        history.append(rnorm)
        iterations += 1
    return x, rnorm, iterations
