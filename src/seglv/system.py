"""Coupled k-species competition systems at fixed competition strength.

Three model variants share one solver:

* ``lotka_volterra``: -Lap u_i = f_i([u_i]^+) - kappa [u_i]^+ sum_j [u_j]^+,
  the classical interaction written with positive parts so converged
  solutions are nonnegative componentwise.
* ``barrier``: -Lap u_i = f_i(u_i) - kappa u_i sum_j u_j
  - kappa u_i sum_j u_j^0 - kappa u_i^0 sum_j u_j, the model with linear
  competition against the fixed baseline profiles u_j^0, localized in the
  balls; this is the variant whose large-kappa limit has the non-invading
  property.
* ``positive_part``: -Lap u_i = f_i([u_i + u_i^0]^+ - u_i^0)
  - kappa [u_i + u_i^0]^+ sum_j [u_j + u_j^0]^+, the reformulation whose
  solutions obey the lower bound u_i >= -u_i^0.

All sums run over j != i.  Solves use the damped semismooth Newton kernel
of ``newton`` on the full block system (positive parts get generalized
derivative 1 at ties), with one sparse LU per Newton step and chord polish
steps that reuse the last one.

Many solves of one problem from nearby starts (the multistart uniqueness
probe) go through ``solve_near``: it factors the block Jacobian once at a
converged center and runs every start as chord steps on that LU, so a
start builds a factorization of its own only when a chord step stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainMismatchError, NonlinearSolveError
from .newton import damped_newton, factorize
from .operators import ScalarField, StateField
from .reaction import f_eval, f_prime, f_truncated_eval, f_truncated_prime

MODEL_KINDS = ("lotka_volterra", "barrier", "positive_part")


@dataclass(frozen=True)
class ModelKind:
    """Model selector; barrier and positive_part carry the baseline tuple.

    ``caps`` holds the per-species truncation profiles (the global positive
    supersolutions) when reaction truncation is switched on.
    """

    kind: str
    baseline: StateField | None = None
    caps: StateField | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind in ("barrier", "positive_part") and self.baseline is None:
            raise ValueError(f"{self.kind} model requires a baseline state")

    @classmethod
    def lotka_volterra(cls, baseline=None):
        return cls("lotka_volterra", baseline)

    @classmethod
    def barrier(cls, baseline, caps=None):
        return cls("barrier", baseline, caps)

    @classmethod
    def positive_part(cls, baseline, caps=None):
        return cls("positive_part", baseline, caps)


class _System:
    """Interior-vector view of one model at fixed kappa."""

    def __init__(self, domain, species, model: ModelKind, kappa):
        self.domain = domain
        self.species = species
        self.model = model
        self.kappa = float(kappa)
        self.k = len(species)
        self.A, _ = domain.laplacian()
        self.h = domain.h
        mask = domain.interior_mask
        if model.baseline is not None and model.baseline.domain is not domain:
            raise DomainMismatchError("baseline lives on a different domain")
        if model.kind != "lotka_volterra" and model.baseline is not None:
            self.u0 = [u.values[mask] for u in model.baseline]
        else:
            # the plain model may carry a baseline as a warm-start hint, but
            # its residual is the kind with zero baseline
            self.u0 = [np.zeros(self.A.shape[0]) for _ in range(self.k)]
        if model.caps is not None:
            if model.caps.domain is not domain:
                raise DomainMismatchError("truncation caps live on a different domain")
            self.caps = [u.values[mask] for u in model.caps]
        else:
            self.caps = None

    def _f(self, i, s):
        if self.caps is not None:
            return f_truncated_eval(self.species[i], s, self.caps[i])
        return f_eval(self.species[i], s)

    def _fp(self, i, s):
        if self.caps is not None:
            return f_truncated_prime(self.species[i], s, self.caps[i])
        return f_prime(self.species[i], s)

    def split(self, x):
        """Per-species views of the stacked interior vector x."""
        return np.split(x, self.k)

    def residual(self, x):
        """Stacked residual A u_i - RHS_i at the stacked state x."""
        u = self.split(x)
        k, kap = self.k, self.kappa
        res = []
        if self.model.kind == "barrier":
            total_u = sum(u)
            total_u0 = sum(self.u0)
            for i in range(k):
                su = total_u - u[i]
                su0 = total_u0 - self.u0[i]
                coupling = kap * (u[i] * (su + su0) + self.u0[i] * su)
                res.append(self.A @ u[i] - self._f(i, u[i]) + coupling)
        else:
            P = [np.maximum(u[i] + self.u0[i], 0.0) for i in range(k)]
            totP = sum(P)
            for i in range(k):
                s_i = P[i] - self.u0[i]
                coupling = kap * P[i] * (totP - P[i])
                res.append(self.A @ u[i] - self._f(i, s_i) + coupling)
        return np.concatenate(res)

    def rhs_norm(self, x, r):
        """Root-sum-square L2 norm of the model right-hand sides at x."""
        acc = 0.0
        for u_i, r_i in zip(self.split(x), self.split(r)):
            rhs = self.A @ u_i - r_i
            acc += float(rhs @ rhs)
        return self.h * math.sqrt(acc)

    def res_norm(self, r):
        return self.h * math.sqrt(sum(float(r_i @ r_i) for r_i in self.split(r)))

    def jacobian(self, x):
        """Block Jacobian of the residual at the stacked state x."""
        u = self.split(x)
        k, kap = self.k, self.kappa
        blocks = [[None] * k for _ in range(k)]
        if self.model.kind == "barrier":
            total_u = sum(u)
            total_u0 = sum(self.u0)
            for i in range(k):
                su = total_u - u[i]
                su0 = total_u0 - self.u0[i]
                blocks[i][i] = self.A + sp.diags(-self._fp(i, u[i]) + kap * (su + su0))
                off = kap * (u[i] + self.u0[i])
                for j in range(k):
                    if j != i:
                        blocks[i][j] = sp.diags(off)
        else:
            P = [np.maximum(u[i] + self.u0[i], 0.0) for i in range(k)]
            H = [(u[i] + self.u0[i] >= 0.0).astype(float) for i in range(k)]
            totP = sum(P)
            for i in range(k):
                s_i = P[i] - self.u0[i]
                sp_other = totP - P[i]
                blocks[i][i] = self.A + sp.diags(
                    -self._fp(i, s_i) * H[i] + kap * H[i] * sp_other)
                for j in range(k):
                    if j != i:
                        blocks[i][j] = sp.diags(kap * P[i] * H[j])
        return sp.bmat(blocks, format="csc")

    def stack(self, U: StateField):
        """Stacked interior vector of the state U."""
        mask = self.domain.interior_mask
        return np.concatenate([u.values[mask] for u in U])

    def unstack(self, x) -> StateField:
        return StateField([ScalarField.from_interior(self.domain, v)
                           for v in self.split(x)])

    def solve(self, guess: StateField, tol, *, max_newton, max_backtracks,
              lu=None) -> tuple[StateField, int]:
        """Damped Newton from `guess`; see ``solve_system``.  `lu` is the
        kernel's handed-in chord factor."""

        def target(x, r):
            return tol * max(1.0, self.rhs_norm(x, r))

        x, _, iterations = damped_newton(
            self.stack(guess), self.residual, self.jacobian, self.res_norm,
            target, max_newton=max_newton, max_backtracks=max_backtracks,
            as_iterate=self.unstack, lu=lu)
        return self.unstack(x), iterations


def residual(U: StateField, species, model: ModelKind, kappa) -> StateField:
    """Model residual A u_i - RHS_i(U, kappa) as a state on the same grid."""
    system = _System(U.domain, species, model, kappa)
    return system.unstack(system.residual(system.stack(U)))


def solve_system(guess: StateField, species, model: ModelKind, kappa,
                 tol=1e-10, *, max_newton=200,
                 max_backtracks=30) -> tuple[StateField, int]:
    """Solve the selected model at fixed kappa by damped Newton.

    Returns (state, iterations) with the root-sum-square residual norm at
    or below tol * max(1, ||RHS||).  A step is accepted when the residual
    norm decreases by the Armijo-style factor (1 - 1e-4 t).  Raises
    NonlinearSolveError when a step cannot reduce the residual after
    `max_backtracks` halvings, a linearization is singular, or the budget
    of `max_newton` steps runs out.
    """
    if len(species) != guess.k:
        raise ValueError("species list and state size disagree")
    return _System(guess.domain, species, model, kappa).solve(
        guess, tol, max_newton=max_newton, max_backtracks=max_backtracks)


def solve_near(center: StateField, starts, species, model: ModelKind, kappa,
               tol=1e-10, *, max_newton=200, max_backtracks=30) -> list:
    """Solve the model at fixed kappa from every start near `center`.

    Factors the block Jacobian at `center` once; each start then runs the
    Newton kernel with that factor handed in, as chord steps that must at
    least halve the residual norm, and falls back to ordinary damped Newton
    (its own factorizations) from the first that does not.  Convergence,
    budget and failures are those of ``solve_system``.

    Returns a list with one entry per start: the solved state, or the
    NonlinearSolveError that ended that start.  Raises NonlinearSolveError
    when the Jacobian at the center cannot be factored.
    """
    if len(species) != center.k:
        raise ValueError("species list and state size disagree")
    system = _System(center.domain, species, model, kappa)
    try:
        lu = factorize(system.jacobian(system.stack(center)))
    except RuntimeError as exc:
        raise NonlinearSolveError(f"singular linearization at the center: {exc}",
                                  last_iterate=center) from exc
    results = []
    for start in starts:
        try:
            state, _ = system.solve(start, tol, max_newton=max_newton,
                                    max_backtracks=max_backtracks, lu=lu)
            results.append(state)
        except NonlinearSolveError as exc:
            results.append(exc)
    return results
