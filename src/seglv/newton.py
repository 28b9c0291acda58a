"""Damped Newton over a pluggable linear solver, shared by every solver.

One kernel serves every Newton solve: its caller is the coupled k-species
system of ``system``, and a scalar region problem is that system with one
species.  It works on a flat unknown vector through two callables
(residual, linearization) and a relative tolerance:

* ``residual(x)`` returns r(x), its norm and the norm of the right-hand
  side it was formed from; a solve converges once the norm of r is at most
  tol * max(1, that of the right-hand side).
* ``linearize(x)`` returns a linear solver for the Jacobian at x: any
  object whose ``solve(b)`` returns s with J(x) s ~ b, and which raises
  RuntimeError when it cannot (a singular factor).  The system is that
  solver, under its one Newton-step policy (``system._System.linearize``);
  the polish runs on the last linearization.
* Each step solves J(x) s = -r(x) with that solver and halves s until the
  residual norm falls by the Armijo-style factor (1 - 1e-4 t).  The budget
  is the kernel's, not the caller's: at most ``MAX_NEWTON`` steps of at
  most ``MAX_BACKTRACKS`` halvings each.
* Every matrix that is factored goes through ``factorize``: minimum-degree
  ordering on the pattern of J^T + J with diagonal pivots preferred
  (SuperLU's symmetric mode).  The 5-point Laplacian is structurally
  symmetric and the Jacobians built on it nearly so, so this ordering
  keeps the fill of L and U far below the default column ordering's.  That ordering
  makes only narrow supernodes, so SuperLU factors column at a time
  (panel size 1) rather than in its default panels of 20 columns: the
  same fill, a quarter to a third less factor time.  Poisson solves,
  eigen-solves, margins and the coupled solver's diagonal blocks factor
  through it too.
* The system's GMRES (``right_gmres``) is preconditioned on the right
  (Saad, SIAM J. Sci. Comput. 14, 1993): its Arnoldi residual for
  J M^-1 y = b is the true residual of x = M^-1 y, and it keeps the
  preconditioned basis Z = M^-1 V, so x = Z y.  Each iteration makes
  exactly one preconditioner solve; the tolerance, the first Krylov
  vector and the update need none, and one matvec on x decides
  convergence by the true residual.
* One full-step rule (``full_steps``) serves every step taken without a
  line search: full steps on one held solver, each taken only when it
  more than halves the residual norm, until ``POLISH_STEPS`` steps after
  the target is met; a solver that raises RuntimeError takes none.  After
  convergence the kernel polishes by it on the last Newton step's solver,
  which drives the residual toward machine level for the nodewise
  inequality diagnostics; the halving rule keeps round-off from adding
  iterations.  Only a start that is already converged builds a solver for
  the polish.  The chord rounds of ``system.solve_near`` run the same rule
  for many iterates on one LU, one multi-column solve per round.
* A solve may go on from an iterate that other steps reached
  (``history=``): their residual norms start the history, and their steps
  count toward the budget.
* The kernel keeps at most one linear solver of its own alive; the
  previous one is dropped before the next is built.
* Every dense norm and inner product in the package reduces by one rule,
  numpy's pairwise summation (``_l2``, or ``np.sum(a * b)``), never by
  BLAS: OpenBLAS splits a long dot product across its threads, so its last
  bits, and the outputs decided on them, would depend on the thread count.
  Pairwise summation has a fixed order and an error bound that grows with
  log n (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
  SIAM 2002, ch. 4).
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from .errors import NonlinearSolveError

log = logging.getLogger(__name__)

# the default tolerance, and the kernel's budgets (steps, halvings per step)
NEWTON_TOL = 1e-10
MAX_NEWTON = 200
MAX_BACKTRACKS = 30
# polish steps after convergence
POLISH_STEPS = 2

# GMRES of a Newton step: it succeeds once the true residual ||J s - b|| is
# at most KRYLOV_RTOL ||b||, after one Arnoldi cycle of at most
# KRYLOV_MAXITER iterations
KRYLOV_RTOL = 1e-6
KRYLOV_MAXITER = 50


def factorize(J):
    """Sparse LU of J (SuperLU object), ordered on the pattern of J^T + J.

    The 5-point Laplacian is structurally symmetric, and the matrices
    built on it nearly so: a folded Laplacian A_f and the blocks and
    Jacobians on it are not symmetric in value, and an assembled Jacobian,
    folded or not, keeps one entry of a coupling pair and leaves out the
    other when that one lies below round-off or is an exact zero where a
    species is clipped.  The symmetrized pattern holds every entry either
    way.
    SuperLU factors column at a time (``panel_size=1``): the minimum-degree
    ordering of a 5-point-stencil matrix makes only narrow supernodes, on
    which panel updates cost more than their BLAS-3 kernels save.  The
    ordering, the pivots and so the fill are those of the default panel of
    20 columns.  On a 2-core x86 host with one BLAS thread the factor time
    falls 22-36% on the chain3 Jacobians at h = 1/32 and 1/64 (a species
    block, the coupled center Jacobian, a shifted Laplacian).
    Every LU is made and dropped on the calling thread: scipy's SuperLU
    frees a factor's memory only on the thread that made it, so an LU
    made on a worker thread and dropped on another leaks all of it.
    Logs the order and the fill (``nnz``, the nonzeros of L and U, which
    SuperLU counts without building them) at DEBUG level.
    """
    lu = splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=1,
              options={"SymmetricMode": True})
    log.debug("LU of order %d: fill %d", J.shape[0], lu.nnz)
    return lu


def _l2(v):
    """Euclidean norm of the vector v, by numpy's pairwise sum."""
    return math.sqrt(float(np.sum(v * v)))


def right_gmres(apply, b, precondition):
    """Right-preconditioned GMRES for J x = b from x = 0, in one cycle.

    `apply(v)` returns J v and `precondition(c)` returns M^-1 c.  Runs up
    to ``KRYLOV_MAXITER`` Arnoldi steps on J M^-1 (modified Gram-Schmidt,
    Givens rotations), one preconditioner solve per step, until the
    Arnoldi residual reaches ``KRYLOV_RTOL`` ||b||; then forms x = Z y and
    decides with the true residual.  Returns (x, iterations, converged):
    converged when ||b - J x|| <= KRYLOV_RTOL ||b||.  b = 0 returns x = 0
    after no solve.
    """
    x = np.zeros_like(b)
    beta = _l2(b)
    if beta == 0.0:
        return x, 0, True
    tol = KRYLOV_RTOL * beta
    m = KRYLOV_MAXITER
    R = np.zeros((m + 1, m))  # the Hessenberg matrix, rotated to triangular
    cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
    g[0] = beta
    # the bases V and Z = M^-1 V grow one vector at a time, so a short solve
    # allocates only the vectors it uses and frees them on return
    V, Z = [b / beta], []
    for j in range(m):
        Z.append(precondition(V[j]))
        w = apply(Z[j])
        for i, v in enumerate(V):
            R[i, j] = np.sum(w * v)
            w -= R[i, j] * v
        h = _l2(w)
        for i in range(j):
            R[i, j], R[i + 1, j] = (cs[i] * R[i, j] + sn[i] * R[i + 1, j],
                                    cs[i] * R[i + 1, j] - sn[i] * R[i, j])
        d = np.hypot(R[j, j], h)
        cs[j], sn[j] = R[j, j] / d, h / d
        R[j, j] = d
        g[j + 1] = -sn[j] * g[j]
        g[j] *= cs[j]
        if abs(g[j + 1]) <= tol:  # also on breakdown, h = 0
            break
        V.append(w / h)
    k = len(Z)
    for y, z in zip(solve_triangular(R[:k, :k], g[:k]), Z):
        x += y * z
    return x, k, _l2(b - apply(x)) <= tol


def full_steps(X, R, rhs, histories, solve, residual, tol):
    """The kernel's full-step rule: full steps from the iterates X on one
    held solver.

    Column j of the Fortran-order block X is iterate j.  residual(x)
    returns (r, rnorm, rhs) as in ``damped_newton``: column j of R and
    rhs[j] are the r and rhs of X[:, j], and histories[j] holds the
    residual norms of iterate j, the last that of R[:, j].  Each round
    solves J S = -R for the columns of every iterate still stepping in one
    call ``solve(B)``, B their Fortran-order block, and takes the full
    step of each iterate whose residual norm it more than halves; a solve
    that raises RuntimeError refuses every step of its round.  A step
    taken overwrites the iterate's columns of X and R and its rhs, and
    appends its norm to its history.  An iterate that meets the target
    rnorm <= tol * max(1, rhs) takes up to ``POLISH_STEPS`` more steps,
    and a refused one ends them.  Before the target, a refused step, or a
    history of more than ``MAX_NEWTON`` norms, leaves the iterate short.
    Returns (short, rounds): the set of indices of the short iterates and,
    for each round, the number of steps tried, the number taken and the
    number of iterates it left short.
    """
    polish = [-1] * X.shape[1]  # steps left after the target; -1 before it
    short = set()

    def stays(j):
        """Whether iterate j takes another step."""
        if polish[j] < 0 and histories[j][-1] <= tol * max(1.0, rhs[j]):
            polish[j] = POLISH_STEPS
        if polish[j] < 0 and len(histories[j]) > MAX_NEWTON:
            short.add(j)
            return False
        return polish[j] != 0

    def take(j, step):
        """Whether iterate j takes the full step `step`: it must more than
        halve the residual norm, which a NaN norm never does.  The trial
        arrays die with the call, so none outlives its round."""
        trial = X[:, j] + step
        rt, rtnorm, rhs_t = residual(trial)
        if not rtnorm < 0.5 * histories[j][-1]:
            return False
        X[:, j], R[:, j], rhs[j] = trial, rt, rhs_t
        histories[j].append(rtnorm)
        return True

    batch = [j for j in range(X.shape[1]) if stays(j)]
    rounds = []
    while batch:
        try:
            steps = solve(-R[:, batch])
        except RuntimeError:  # every step of the round is refused
            steps = None
        stepped, batch = batch, []
        fell, taken = len(short), 0
        for c, j in enumerate(stepped):
            if steps is None or not take(j, steps[:, c]):
                if polish[j] < 0:
                    short.add(j)
                continue  # a refused step after the target ends the polish
            taken += 1
            if polish[j] > 0:
                polish[j] -= 1
            if stays(j):
                batch.append(j)
        rounds.append((len(stepped), taken, len(short) - fell))
    return short, rounds


def damped_newton(x, residual, linearize, tol, *, as_iterate, history=()):
    """Solve residual(x) = 0 from the flat start vector x, which is the
    kernel's to overwrite.

    `residual(x)` returns (r, rnorm, rhs): a new residual array, its norm
    and its right-hand side's norm; iterates until rnorm <= tol * max(1,
    rhs), then polishes in place by ``full_steps`` on the last step's
    solver.  Returns (x, rnorm, iterations); polish steps taken count as
    iterations.  `linearize(x)` returns the linear solver of the Jacobian
    at x (see the module docstring).  `history`, when given, holds the
    residual norms after every step that reached x from an earlier start,
    that start's first; those steps count as iterations.  Raises
    NonlinearSolveError when the budget of ``MAX_NEWTON`` steps runs out,
    a linear solver raises RuntimeError during a Newton step, or a step
    cannot reduce the residual after ``MAX_BACKTRACKS`` halvings; its
    last_iterate is as_iterate(x) and its residual_history holds the norm
    after every accepted step.
    """
    r, rnorm, rhs = residual(x)
    history = [*history[:-1], rnorm]
    solver = None

    def failure(message):
        return NonlinearSolveError(message, last_iterate=as_iterate(x),
                                   residual_history=history)

    while rnorm > tol * max(1.0, rhs):
        if len(history) > MAX_NEWTON:
            raise failure(f"newton budget exhausted at residual {rnorm:.3e}")
        solver = None
        try:
            solver = linearize(x)
            step = solver.solve(-r)
        except RuntimeError as exc:
            raise failure(f"singular linearization: {exc}") from exc
        t = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            trial = x + t * step
            rt, rtnorm, rhs_t = residual(trial)
            if rtnorm <= (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        else:
            raise failure(f"newton stalled at residual {rnorm:.3e}")
        x, r, rhs, rnorm = trial, rt, rhs_t, rtnorm
        history.append(rnorm)

    def polish(B):
        # only a start that is already converged builds a solver here
        nonlocal solver
        if solver is None:
            solver = linearize(x)
        return solver.solve(B[:, 0])[:, None]

    full_steps(x[:, None], r[:, None], [rhs], [history], polish, residual, tol)
    return x, history[-1], len(history) - 1
