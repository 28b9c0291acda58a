"""Single-species Dirichlet problems, principal eigenvalues, and the
nondegeneracy margin of baseline states.

The scalar problem  -Lap u = f(u)  on a node subset R (a single ball, or
the whole connected domain for the global profile) is solved by the damped
Newton kernel of ``newton``: each step solves the linearized system
(A - diag(f'(u))) s = -r with a sparse LU under a minimum-degree ordering
of the symmetric pattern, and steps are halved until the residual norm
decreases.  The two polish steps after convergence are chord steps that
reuse the last Newton factorization.  The positive branch is reliably
selected by seeding with half the principal Dirichlet eigenfield.

The principal eigenvalue of -Lap on R comes from inverse power iteration
with conjugate-gradient inner solves.  The nondegeneracy margin of a
state u0 is

    margin = 1 - nu_max,   nu_max = sup_w (w, f'(u0) w) / (w, A w),

the infimum of the Rayleigh quotient (|grad w|^2 - f'(u0) w^2) / |grad w|^2
over the region.  nu_max is computed by power iteration on the
H^1_0-self-adjoint map w -> A^{-1}(f'(u0) w), shifted by
sigma = ||max(0, -f'(u0))||_inf / lambda_1 so that the shifted spectrum is
nonnegative and the iteration converges to the correct extreme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .domain import GridDomain
from .errors import EigenSolveError, NonlinearSolveError, PhiUnavailable
from .newton import damped_newton, factorize
from .operators import ScalarField, norm, solve_spd
from .reaction import SpeciesParams, f_eval, f_prime


@dataclass
class ScalarSolveReport:
    solution: ScalarField
    newton_iterations: int
    final_residual: float
    positive: bool


@dataclass
class NDReport:
    margin: float
    rayleigh_iterations: int


def _resolve_region(domain: GridDomain, region):
    if region is None:
        return domain.interior_mask
    mask = np.asarray(region, dtype=bool)
    if mask.shape != domain.interior_mask.shape:
        raise ValueError("region mask shape does not match the grid")
    if not mask.any():
        raise ValueError("region is empty")
    return mask


def solve_ball(sp_params: SpeciesParams, region, domain: GridDomain,
               guess: ScalarField, *, newton_tol=1e-10, max_newton=200,
               max_backtracks=30) -> ScalarSolveReport:
    """Damped Newton for -Lap u = f(u) on `region` with zero exterior data.

    Converges when ||A u - f(u)||_L2 <= newton_tol * max(1, ||f(u)||_L2).
    The guess is restricted to the region.  Raises NonlinearSolveError when
    a step cannot reduce the residual after `max_backtracks` halvings or
    the iteration budget runs out.

    A converged state whose amplitude sits below 1000x the tolerance is the
    trivial branch up to solver resolution; it is snapped to exactly zero
    and flagged non-positive.
    """
    mask = _resolve_region(domain, region)
    A, _ = domain.laplacian(mask)
    h = domain.h

    def residual(vec):
        return A @ vec - f_eval(sp_params, vec)

    def jacobian(vec):
        return A - sp.diags(f_prime(sp_params, vec))

    def l2(vec):
        return h * float(np.linalg.norm(vec))

    def target(vec, _):
        return newton_tol * max(1.0, l2(f_eval(sp_params, vec)))

    def as_field(vec):
        return ScalarField(domain, domain.insert(vec, mask))

    u, rnorm, iterations = damped_newton(
        guess.values[mask].astype(float), residual, jacobian, l2, target,
        max_newton=max_newton, max_backtracks=max_backtracks,
        as_iterate=as_field)
    if float(np.max(np.abs(u))) <= 1e3 * newton_tol:
        u = np.zeros_like(u)
        rnorm = l2(residual(u))
    positive = bool(np.min(u) > 0.0)
    return ScalarSolveReport(as_field(u), iterations, rnorm, positive)


def principal_eigenvalue(region, domain: GridDomain, *, eig_tol=1e-8,
                         cg_tol=1e-10, max_iter=500, require_residual=True):
    """Smallest Dirichlet eigenvalue of -Lap on `region` and its eigenfield.

    Inverse power iteration; each application of A^{-1} is a solve_spd call
    warm-started from the previous iterate.  The eigenfield comes back
    L2-normalized with nonnegative sign, and by default the pair satisfies
    ||A e - lam e||_L2 <= eig_tol * lam.  With require_residual=False the
    iteration instead stops when the eigenvalue stagnates to eig_tol, which
    is the only affordable criterion on multi-ball domains whose lowest
    eigenvalues cluster within the corridor coupling (the returned field is
    then a nonnegative cluster mixture).  Raises EigenSolveError on
    stagnation.
    """
    mask = _resolve_region(domain, region)
    A, _ = domain.laplacian(mask)
    h = domain.h
    n = int(mask.sum())
    v = np.ones(n) / (h * math.sqrt(n))
    lam = float(v @ (A @ v)) / float(v @ v)
    warm = None
    for it in range(1, max_iter + 1):
        rhs = ScalarField(domain, domain.insert(v, mask))
        w = solve_spd(rhs, 0.0, region=mask, cg_tol=cg_tol, x0=warm).values[mask]
        wnorm = h * float(np.linalg.norm(w))
        if wnorm == 0.0:
            raise EigenSolveError("inverse iteration collapsed to zero")
        v = w / wnorm
        Av = A @ v
        lam_new = float(v @ Av) / float(v @ v)
        if require_residual:
            resid = h * float(np.linalg.norm(Av - lam_new * v))
            done = resid <= eig_tol * lam_new
        else:
            done = abs(lam_new - lam) <= eig_tol * abs(lam_new) and it >= 2
        lam = lam_new
        warm = v / lam
        if done:
            v = np.maximum(v, 0.0)  # M-matrix inverse keeps signs; clip cg dust
            v /= h * float(np.linalg.norm(v))
            field = ScalarField(domain, domain.insert(v, mask))
            return lam, field
    raise EigenSolveError(
        f"inverse iteration stagnated after {max_iter} iterations")


def nd_margin(u0: ScalarField, sp_params: SpeciesParams, region, *,
              eig_tol=1e-8, max_iter=5000) -> NDReport:
    """Nondegeneracy margin of u0: 1 minus the top eigenvalue of
    w -> A^{-1}(f'(u0) w) in the H^1_0 inner product on `region`."""
    domain = u0.domain
    mask = _resolve_region(domain, region)
    c = f_prime(sp_params, u0.values)[mask]
    if not np.any(c):
        return NDReport(margin=1.0, rayleigh_iterations=0)
    A, _ = domain.laplacian(mask)
    lam1, _ = principal_eigenvalue(mask, domain, eig_tol=eig_tol)
    sigma = float(np.max(np.maximum(0.0, -c))) / lam1
    lu = factorize(A)

    v = np.ones(c.size)
    Av = A @ v
    v /= math.sqrt(float(v @ Av))
    nu = float(v @ (c * v))
    for it in range(1, max_iter + 1):
        y = lu.solve(c * v) + sigma * v
        Ay = A @ y
        ynorm = math.sqrt(float(y @ Ay))
        if not ynorm > 0.0:
            raise EigenSolveError("power iteration collapsed to zero")
        v = y / ynorm
        nu_new = float(v @ (c * v)) / float(v @ (A @ v))
        done = abs(nu_new - nu) <= eig_tol * max(1.0, abs(nu_new))
        nu = nu_new
        if done and it >= 3:
            return NDReport(margin=1.0 - nu, rayleigh_iterations=it)
    raise EigenSolveError(
        f"rayleigh iteration stagnated after {max_iter} iterations")


def positive_branch_guess(domain: GridDomain, region=None, *, eig_tol=1e-8,
                          require_residual=True):
    """Half the max-normalized principal eigenfield, plus the eigenvalue.

    The standard seed for selecting the positive logistic branch.
    """
    lam1, eigfield = principal_eigenvalue(region, domain, eig_tol=eig_tol,
                                          require_residual=require_residual)
    peak = norm(eigfield, "Linf")
    return eigfield * (0.5 / peak), lam1


def supersolution_phi(sp_params: SpeciesParams, domain: GridDomain, *,
                      newton_tol=1e-10, eig_tol=1e-4) -> ScalarField:
    """Positive profile of -Lap u = f(u) on the whole interior.

    Caps every later system solution from above (truncation barrier).
    Raises PhiUnavailable when lambda <= lambda_1 of the domain, where only
    the trivial state exists.

    The eigenvalue tolerance is deliberately loose and the stagnation
    stopping rule is used: on multi-ball domains with thin corridors the
    lowest eigenvalues cluster within the corridor coupling, which power
    iteration cannot split cheaply, and the seed and threshold test only
    need a coarse value.
    """
    guess, lam1 = positive_branch_guess(domain, None, eig_tol=eig_tol,
                                        require_residual=False)
    if sp_params.lam <= lam1:
        raise PhiUnavailable(
            f"lambda {sp_params.lam:.6g} <= lambda_1 {lam1:.6g}; "
            "no positive global profile")
    report = solve_ball(sp_params, domain.interior_mask, domain, guess,
                        newton_tol=newton_tol)
    if not report.positive:
        raise NonlinearSolveError(
            "global profile solve converged to a non-positive state",
            last_iterate=report.solution,
            residual_history=[report.final_residual])
    return report.solution
