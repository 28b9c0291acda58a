"""Coupled k-species competition systems at fixed competition strength.

The three model variants are one formula,

    -Lap u_i = f_i(P_i - u_i^0) - kappa P_i sum_{j != i} P_j,

with P_i the interacting part of species i against its fixed baseline
profile u_i^0:

* ``positive_part``: P_i = [u_i + u_i^0]^+ (the clip is on), the
  reformulation whose solutions obey the lower bound u_i >= -u_i^0.
* ``barrier``: P_i = u_i + u_i^0 (the clip is off), so the reaction is
  f_i(u_i) and the coupling is linear competition against the baselines,
  localized in the balls; this is the variant whose large-kappa limit has
  the non-invading property.  Expanded, the coupling is
  kappa (u_i sum_j u_j + u_i sum_j u_j^0 + u_i^0 sum_j u_j)
  + kappa u_i^0 sum_j u_j^0, and the last term vanishes identically because
  the baselines have disjoint supports (``ModelKind`` rejects baselines
  that overlap at a node).
* ``lotka_volterra``: the positive-part formula with u^0 = 0,
  -Lap u_i = f_i([u_i]^+) - kappa [u_i]^+ sum_j [u_j]^+, the classical
  interaction written with positive parts so converged solutions are
  nonnegative componentwise.

All sums run over j != i.  Solves use the damped semismooth Newton kernel
of ``newton`` on the full block system, whose Jacobian is the block
Laplacian plus diagonal blocks H_i (kappa S_i - f_i') and off-diagonal
blocks kappa P_i H_j, with S_i = sum_{j != i} P_j and H_i the generalized
derivative of P_i (1 where u_i + u_i^0 >= 0 or unclipped, else 0).  There
is one sparse LU per Newton step, and chord polish steps reuse the last one.

Many solves of one problem from nearby starts (the multistart uniqueness
probe) go through ``solve_near``: it factors the block Jacobian once at a
converged center and runs every start as chord steps on that LU, so a
start builds a factorization of its own only when a chord step stalls.
"""

from __future__ import annotations

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

    Their baseline components must have disjoint supports (no node where
    two are nonzero), which the shared model formula relies on.  A
    baseline attached to ``lotka_volterra`` is only a warm-start hint and
    is not checked.  ``caps`` holds the per-species truncation profiles
    (the global positive supersolutions) when reaction truncation is
    switched on.
    """

    kind: str
    baseline: StateField | None = None
    caps: StateField | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "lotka_volterra":
            return
        if self.baseline is None:
            raise ValueError(f"{self.kind} model requires a baseline state")
        overlap = np.count_nonzero([u.values for u in self.baseline], axis=0) > 1
        if overlap.any():
            raise ValueError(f"{self.kind} baseline components overlap at "
                             f"{int(overlap.sum())} nodes")

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
    """Interior-vector view of one model at fixed kappa.

    The stacked vector x holds the k species one after another; its
    (k, n) reshape is the per-species view every formula works on.
    """

    def __init__(self, domain, species, model: ModelKind, kappa):
        self.domain = domain
        self.species = species
        self.kappa = float(kappa)
        self.k = k = len(species)
        A, _ = domain.laplacian()
        self.n = n = A.shape[0]
        self.K = sp.kron(sp.identity(k, format="csr"), A, format="csr")
        self.h = domain.h
        self.clip = model.kind != "barrier"
        mask = domain.interior_mask
        if model.baseline is not None and model.baseline.domain is not domain:
            raise DomainMismatchError("baseline lives on a different domain")
        if model.kind == "lotka_volterra":
            # the plain model may carry a baseline as a warm-start hint, but
            # its residual is the kind with zero baseline
            self.u0 = np.zeros((k, n))
        else:
            self.u0 = np.stack([u.values[mask] for u in model.baseline])
        if model.caps is not None and model.caps.domain is not domain:
            raise DomainMismatchError("truncation caps live on a different domain")
        self.caps = None if model.caps is None else [u.values[mask] for u in model.caps]
        # block (i, j) of the coupling is diagonal: entry m of it sits at
        # row i n + m, column j n + m
        index = np.arange(k * n, dtype=np.int32).reshape(k, n)
        self._rows = np.repeat(index, k, axis=0).ravel()
        self._cols = np.tile(index, (k, 1)).ravel()

    def _reaction(self, fn, truncated, s):
        """Per-species reaction term (or derivative) at the (k, n) argument s."""
        if self.caps is None:
            return np.stack([fn(p, s_i) for p, s_i in zip(self.species, s)])
        return np.stack([truncated(p, s_i, c)
                         for p, s_i, c in zip(self.species, s, self.caps)])

    def _parts(self, x):
        """(P, s, v): interacting parts, reaction argument and u + u^0 at x."""
        v = x.reshape(self.k, self.n) + self.u0
        if not self.clip:
            return v, x.reshape(self.k, self.n), v
        P = np.maximum(v, 0.0)
        return P, P - self.u0, v

    def residual(self, x):
        """Stacked residual A u_i - RHS_i at the stacked state x."""
        P, s, _ = self._parts(x)
        coupling = self.kappa * P * (P.sum(axis=0) - P)
        return (self.K @ x - self._reaction(f_eval, f_truncated_eval, s).ravel()
                + coupling.ravel())

    def rhs_norm(self, x, r):
        """Root-sum-square L2 norm of the model right-hand sides at x."""
        return self.h * float(np.linalg.norm(self.K @ x - r))

    def res_norm(self, r):
        return self.h * float(np.linalg.norm(r))

    def jacobian(self, x):
        """Block Jacobian of the residual at the stacked state x."""
        P, s, v = self._parts(x)
        H = v >= 0.0 if self.clip else np.ones_like(v)
        D = self.kappa * P[:, None, :] * H
        fp = self._reaction(f_prime, f_truncated_prime, s)
        D[np.arange(self.k), np.arange(self.k)] = H * (
            self.kappa * (P.sum(axis=0) - P) - fp)
        size = self.k * self.n
        # K is symmetric, so K.T is its CSC form without a copy; the sum
        # drops the coupling's zero entries (clipped nodes)
        return sp.csc_matrix((D.ravel(), (self._rows, self._cols)),
                             shape=(size, size)) + self.K.T

    def stack(self, U: StateField):
        """Stacked interior vector of the state U."""
        mask = self.domain.interior_mask
        return np.concatenate([u.values[mask] for u in U])

    def unstack(self, x) -> StateField:
        return StateField([ScalarField.from_interior(self.domain, v)
                           for v in x.reshape(self.k, self.n)])

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
