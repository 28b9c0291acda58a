"""Single-species Dirichlet problems, principal eigenvalues, and the
nondegeneracy margin of baseline states.

The scalar problem  -Lap u = f(u)  on a node subset R (a single ball, or
the whole connected domain for the global profile) is solved by the damped
Newton kernel of ``newton``: each step solves the linearized system
(A - diag(f'(u))) s = -r with a sparse LU under a minimum-degree ordering
of the symmetric pattern, and steps are halved until the residual norm
decreases.  The two polish steps after convergence are chord steps that
reuse the last Newton factorization.  On a ball the positive branch is
reliably selected by seeding with half the principal Dirichlet eigenfield;
the global profile starts from the supersolution u = 1.

The principal eigenvalue of -Lap on R comes from shift-invert Lanczos on
a sparse LU of the same kind, which resolves the clustered low spectrum of
balls joined by thin corridors.  The nondegeneracy margin of a state u0 is

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
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .domain import GridDomain
from .errors import EigenSolveError, NonlinearSolveError, PhiUnavailable
from .newton import damped_newton, factorize
from .operators import ScalarField, norm
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


def principal_eigenvalue(region, domain: GridDomain, *, eig_tol=1e-8):
    """Smallest Dirichlet eigenvalue of -Lap on `region` and its eigenfield.

    Shift-invert Lanczos (ARPACK) about 0 on one sparse LU of A, started
    from the constant vector so that runs are reproducible.  Regions with
    fewer than 3 nodes, which ARPACK cannot take, use a dense eigensolve.
    The eigenfield comes back L2-normalized and nonnegative.  Raises
    EigenSolveError unless the pair satisfies
    ||A e - lam e||_L2 <= eig_tol * lam.
    """
    mask = _resolve_region(domain, region)
    A, _ = domain.laplacian(mask)
    lam, v = _eigenpair(A, factorize(A), domain.h, eig_tol)
    return lam, ScalarField(domain, domain.insert(v, mask))


def _eigenpair(A, lu, h, eig_tol):
    """Principal eigenpair of A given its LU; see ``principal_eigenvalue``."""
    n = A.shape[0]
    if n < 3:
        lams, vecs = np.linalg.eigh(A.toarray())
    else:
        try:
            lams, vecs = eigsh(A, k=1, sigma=0.0,
                               OPinv=LinearOperator(A.shape, matvec=lu.solve,
                                                   dtype=float),
                               v0=np.ones(n))
        except ArpackNoConvergence as exc:
            raise EigenSolveError(f"shift-invert lanczos: {exc}") from exc
    lam = float(lams[0])
    # on disconnected regions a repeated eigenvalue can come back as a
    # sign-changing mix of per-component eigenfields, whose modulus is an
    # eigenfield too; elsewhere abs only fixes the sign and round-off dust
    v = np.abs(vecs[:, 0])
    v /= h * float(np.linalg.norm(v))
    resid = h * float(np.linalg.norm(A @ v - lam * v))
    if not resid <= eig_tol * lam:
        raise EigenSolveError(
            f"eigenpair residual {resid:.3e} exceeds {eig_tol:.1e} * lambda {lam:.6g}")
    return lam, v


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
    lu = factorize(A)
    lam1, _ = _eigenpair(A, lu, domain.h, eig_tol)
    sigma = float(np.max(np.maximum(0.0, -c))) / lam1

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


def positive_branch_guess(domain: GridDomain, region=None, *, eig_tol=1e-8):
    """Half the max-normalized principal eigenfield, plus the eigenvalue.

    The standard seed for selecting the positive logistic branch.
    """
    lam1, eigfield = principal_eigenvalue(region, domain, eig_tol=eig_tol)
    peak = norm(eigfield, "Linf")
    return eigfield * (0.5 / peak), lam1


def supersolution_phi(sp_params: SpeciesParams, domain: GridDomain, *,
                      newton_tol=1e-10, eig_tol=1e-8) -> ScalarField:
    """Positive profile of -Lap u = f(u) on the whole interior.

    Caps every later system solution from above (truncation barrier).
    Raises PhiUnavailable when lambda <= lambda_1 of the domain, where only
    the trivial state exists.

    Newton starts from u = 1 on the interior: f(1) = 0, so it is a discrete
    supersolution, and the iteration descends to the positive profile.
    """
    lam1, _ = principal_eigenvalue(None, domain, eig_tol=eig_tol)
    if sp_params.lam <= lam1:
        raise PhiUnavailable(
            f"lambda {sp_params.lam:.6g} <= lambda_1 {lam1:.6g}; "
            "no positive global profile")
    one = ScalarField(domain, domain.interior_mask.astype(float))
    report = solve_ball(sp_params, domain.interior_mask, domain, one,
                        newton_tol=newton_tol)
    if not report.positive:
        raise NonlinearSolveError(
            "global profile solve converged to a non-positive state",
            last_iterate=report.solution,
            residual_history=[report.final_residual])
    return report.solution
