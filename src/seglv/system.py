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

All sums run over j != i.  Solves, the one-species region solves of
``scalar`` included, use the damped semismooth Newton kernel of ``newton``
on the full block system, whose Jacobian is the block Laplacian plus
diagonal blocks H_i (kappa S_i - f_i') and off-diagonal blocks kappa P_i
H_j, with S_i = sum_{j != i} P_j and H_i the generalized derivative of P_i
(1 where u_i + u_i^0 >= 0 or unclipped, else 0).  Every block of the
coupling is diagonal, so it is held as one (k, k, n) array D.

One Newton-step policy serves every solve (``_System.linearize``): the
chord / Shamanskii lagging of the linearization (Kelley, *Solving
Nonlinear Equations with Newton's Method*, SIAM 2003, section 5.4) with
the lagged factors as a physics-block preconditioner, so every step stays
an inexact Newton step on the current Jacobian (Knoll & Keyes, J. Comput.
Phys. 193, 2004).  A solve holds the k LUs of the diagonal blocks
A + diag(D[i, i]) (one LU for a single species) and solves each Newton
system by one GMRES cycle (``newton.right_gmres``) on J to a true
relative residual of ``KRYLOV_RTOL``, preconditioned by one forward
block Gauss-Seidel sweep over them.  J is applied as A on each species
plus the coupling D at the current iterate and is not assembled; the
sweep's off-diagonal terms use that D too, also on block LUs held from an
earlier iterate.  A linearization refactors the blocks only when the last
GMRES solve took more than ``KRYLOV_REFACTOR`` iterations.  A step whose
GMRES solve misses goes on an LU of the assembled Jacobian at its iterate
(``_System.jacobian``), made and dropped within that step: off a solved
state far into the kappa ramp, as at the uniqueness probe's starts, the
sweep preconditions too weakly for one GMRES cycle even on fresh blocks,
while the exact steps converge.  After a solve's second miss its
remaining steps go straight to the assembled Jacobian's LU at their
iterates, without block LUs or GMRES; after the first they do not,
because such a probe start misses once, at its first step, and finishes
sooner on GMRES steps over fresh blocks than on exact ones.  Each
linearization logs its decision, each miss its iteration count and the
switch one line, at DEBUG level.  The solve releases its LUs when it
ends, before it allocates the result: a result allocated above live LUs
leaves their freed memory unreturnable.

A Newton solve whose problem is invariant under lattice mirrors runs on
the folded lattice (``_System.newton``; Bossavit, Comput. Methods Appl.
Mech. Engrg. 56, 1986).  A region's mirrors are the horizontal and
vertical lines, on a node line or midway between two, that map its mask
onto itself (``GridDomain.mirrors``).  The solve folds along each of them
under which the guess, the baselines and the caps all match their mirror
images to ``MIRROR_RTOL``: it keeps one representative node per orbit,
solves with A_f = R A P in place of A, P copying a representative to its
orbit and R taking the representatives' rows (``GridDomain.fold``), and
copies the solution back to every node of its orbit.  This is exact.  The
reaction and the coupling act node by node, so at x = P x_f the residual
is P r_f(x_f), and the Newton step of an invariant problem is invariant,
P s_f with J_f s_f = -r_f.  The residual's norms weigh each representative
by its orbit size, so every tolerance, Armijo and halving test sees the
full lattice's norm (GMRES takes its relative tolerance on the folded
vectors), and the returned fields are exactly invariant.  A_f is not
symmetric, since a representative on a mirror couples twice to its
neighbour off it, so the block LUs factor A_f + diag(D[i, i]) as it is.
The chain3 ramp folds along y = 0, onto half the nodes; a ball solve and
the global profile fold along both axes, onto a quarter.  Nothing else
folds: a start that fails the test (a probe trial that falls back to
damped Newton), a mirror that swaps species (chain3's x = 3 sends species
0 to 2, so its baselines fail the test), ``solve_near``'s center LU and
chord rounds, the eigen-solves of ``scalar`` and the public
``residual``.  Each Newton solve logs
one DEBUG line: the mirrors it folds along and "q of n nodes", or "not
folded" with the largest relative asymmetry found.

Many solves of one problem from nearby starts (the multistart uniqueness
probe) go through ``solve_near``: it factors the assembled block Jacobian
once at a converged center and hands every start to the kernel's
full-step rule (``newton.full_steps``) on that LU, one multi-column
triangular solve per chord round.  A start the rule leaves short goes on
by the kernel's damped Newton once the rounds end.  The assembly leaves
out every coupling entry below round-off, |J_ij| <= eps sqrt(|J_ii|
|J_jj|) with eps the machine epsilon (``_System.jacobian``): far into the
ramp most entries kappa P_i lie where species i is nearly extinct, and
without them the center LU of the chain3 probe has a third less fill.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainMismatchError, NonlinearSolveError
from .newton import (NEWTON_TOL, _l2, damped_newton, factorize, full_steps,
                     right_gmres)
from .operators import ScalarField, StateField
from .reaction import f_truncated_eval, f_truncated_prime

log = logging.getLogger(__name__)

MODEL_KINDS = ("lotka_volterra", "barrier", "positive_part")

# a linearization keeps the held block LUs while the last GMRES solve on
# them took at most KRYLOV_REFACTOR iterations
KRYLOV_REFACTOR = 10

# a Newton solve folds along a mirror of its region when the guess, the
# baselines and the caps each match their mirror image to this relative
# max-norm asymmetry (9.1e-13): far above the round-off of fields computed
# on the full lattice (the ARPACK eigenfield that seeds chain3's ball
# solves is asymmetric by 21 eps at h = 1/32 and 86 eps at h = 1/128, its
# ramp states by about 5 eps) and far below any perturbation a caller
# makes (chain3's probe starts, of H1 size 0.02 as in A6, by 2e-3 to 3e-3)
MIRROR_RTOL = 4096 * np.finfo(float).eps


@dataclass(frozen=True)
class ModelKind:
    """Model selector; barrier and positive_part carry the baseline tuple.

    Their baseline components must have disjoint supports (no node where
    two are nonzero), which the shared model formula relies on.  A
    baseline attached to ``lotka_volterra`` is only a warm-start hint and
    is not checked.  ``caps`` holds the per-species truncation profiles
    (the global positive supersolutions) when reaction truncation is
    switched on; without them the caps are +inf, which leaves f as is.
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

    The stacked vector x holds the k species one after another on the n
    nodes of `region` (default: the whole interior), with zero Dirichlet
    data outside it, or on a folded system (``_fold``) on the region's n
    representatives of mirror orbits; its (k, n) reshape is the
    per-species view every formula works on.
    """

    def __init__(self, domain, species, model: ModelKind, kappa, region=None):
        self.domain = domain
        self.species = species
        self.kappa = float(kappa)
        self.k = k = len(species)
        self.A, index_map = domain.laplacian(region)
        self.mask = mask = index_map >= 0
        self.n = n = self.A.shape[0]
        self.h = domain.h
        self.clip = model.kind != "barrier"
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
        self.caps = ([np.inf] * k if model.caps is None
                     else [u.values[mask] for u in model.caps])
        # the nodes of the unknowns: the region's, or on a folded system
        # (``_fold``) its representatives
        self.nodes = mask
        self._orbit = self._weight = None
        self.release()

    def _reaction(self, fn, s):
        """Per-species truncated reaction term (or derivative) at the (k, n)
        argument s."""
        return np.stack([fn(p, s_i, c) for p, s_i, c in zip(self.species, s, self.caps)])

    def _parts(self, x):
        """(P, s, v): interacting parts, reaction argument and u + u^0 at x."""
        v = x.reshape(self.k, self.n) + self.u0
        if not self.clip:
            return v, x.reshape(self.k, self.n), v
        P = np.maximum(v, 0.0)
        return P, P - self.u0, v

    def _laplacian(self, x):
        """(k, n) array of A u_i for every species u_i of the stacked x."""
        return np.stack([self.A @ u for u in x.reshape(self.k, self.n)])

    def residual(self, x):
        """(r, its norm, the norm of the RHS): the stacked residual
        r = A u_i - RHS_i at the stacked state x, and the root-sum-square
        L2 norms h ||.|| of r and of the right-hand sides RHS_i, reduced by
        ``newton._l2``."""
        P, s, _ = self._parts(x)
        coupling = self.kappa * P * (P.sum(axis=0) - P)
        Ax = self._laplacian(x).ravel()
        r = Ax - self._reaction(f_truncated_eval, s).ravel() + coupling.ravel()
        return r, self._norm(r), self._norm(Ax - r)

    def _norm(self, r):
        """h times the L2 norm of the stacked r over the whole region: a
        folded system weighs each representative by its orbit size."""
        if self._weight is None:
            return self.h * _l2(r)
        return self.h * math.sqrt(float(np.sum(self._weight * (r * r))))

    def _coupling(self, x):
        """(k, k, n) diagonals of the Jacobian's coupling blocks at x."""
        P, s, v = self._parts(x)
        H = v >= 0.0 if self.clip else np.ones_like(v)
        D = self.kappa * P[:, None, :] * H
        fp = self._reaction(f_truncated_prime, s)
        D[np.arange(self.k), np.arange(self.k)] = H * (
            self.kappa * (P.sum(axis=0) - P) - fp)
        return D

    def jacobian(self, x):
        """Assembled block Jacobian of the residual at the stacked state x,
        without its coupling entries below round-off.

        An off-diagonal coupling entry J_ij (i != j, at one node) is left
        out when |J_ij| <= eps sqrt(|J_ii| |J_jj|), eps the machine epsilon
        and J_ii = A_ii + D[i, i] the diagonal entries of its row and
        column; the clipped models' exact zeros are among them.  Such an
        entry lies within the round-off of its row, so the LU of the
        result solves the full Jacobian to its own backward error
        (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
        ed., SIAM 2002, ch. 9), while the ones far out in a foreign ball
        (kappa P_i of a species nearly extinct there) no longer add fill.
        Logs how many were left out at DEBUG level.
        """
        D = self._coupling(x)
        k, n = self.k, self.n
        i = np.arange(k)
        diagonal = np.abs(self.A.diagonal() + D[i, i])  # |J_ii|, (k, n)
        keep = np.abs(D) > np.finfo(float).eps * np.sqrt(
            diagonal[:, None] * diagonal)
        keep[i, i] = True
        log.debug("assembled Jacobian of order %d: %d of %d couplings below "
                  "round-off dropped", k * n, D.size - keep.sum(),
                  k * (k - 1) * n)
        # block (i, j) of the coupling is diagonal: entry m of it sits at
        # row i n + m, column j n + m
        index = np.arange(k * n, dtype=np.int32).reshape(k, n)
        rows, cols = np.broadcast_arrays(index[:, None], index)
        return (sp.csc_matrix((D[keep], (rows[keep], cols[keep])),
                              shape=(k * n, k * n))
                + sp.block_diag([self.A] * k, format="csc"))

    def linearize(self, x):
        """The Newton-step solver of the Jacobian J at x: this system, whose
        ``solve(b)`` returns s with J s ~ b (see the module docstring).

        Block (i, j) of J is diag(D[i, j]), plus the Laplacian A when
        i = j.  The linearization keeps x and D = ``_coupling(x)``; it
        keeps the block LUs of an earlier one while the last GMRES solve
        took at most ``KRYLOV_REFACTOR`` iterations (a miss that ran out
        of iterations leaves it at ``newton.KRYLOV_MAXITER``), and
        otherwise refactors them.  After the solve's second miss it keeps
        x alone.  Factoring raises RuntimeError when a block is singular.
        """
        self._x = x
        if self._direct:
            return self
        self._D = self._coupling(x)
        held = (self._iterations is not None
                and self._iterations <= KRYLOV_REFACTOR)
        log.debug("kappa %g: %s block LUs; last GMRES iterations: %s",
                  self.kappa, "holding" if held else "factoring",
                  self._iterations)
        if not held:
            self._blocks = None  # released before the new ones are made
            self._blocks = [factorize(self.A + sp.diags(self._D[i, i]))
                            for i in range(self.k)]
            self._iterations = 0
        return self

    def release(self):
        """Drop the linearization: its iterate, coupling, block LUs, GMRES
        count and misses."""
        self._x = self._D = self._blocks = self._iterations = None
        self._missed = self._direct = False

    def apply(self, v):
        """J v at the linearization's iterate, J not assembled."""
        return (self._laplacian(v) + np.einsum(
            "ijm,jm->im", self._D, v.reshape(self.k, self.n))).ravel()

    def _sweep(self, c):
        """One forward block Gauss-Seidel sweep: solve block i on its held
        LU, then take its coupling off the right-hand sides below."""
        z = c.reshape(self.k, self.n).copy()
        for i, lu in enumerate(self._blocks):
            z[i] = lu.solve(z[i])
            z[i + 1:] -= self._D[i + 1:, i] * z[i]
        return z.ravel()

    def solve(self, b):
        """The Newton step s with J s ~ b: one preconditioned GMRES cycle;
        on a miss, and at every step after the solve's second miss, an LU
        of the assembled Jacobian."""
        if not self._direct:
            s, self._iterations, converged = right_gmres(self.apply, b,
                                                         self._sweep)
            if converged:
                return s
            log.debug("GMRES missed in %d iterations; solving on the "
                      "assembled Jacobian's LU", self._iterations)
            self._direct, self._missed = self._missed, True
            if self._direct:
                log.debug("kappa %g: second GMRES miss; the remaining steps "
                          "solve on the assembled Jacobian's LU", self.kappa)
                self._D = self._blocks = None
        return factorize(self.jacobian(self._x)).solve(b)

    def stack(self, U: StateField):
        """Stacked vector of the state U on the system's nodes; raises
        ValueError unless U has one component per species."""
        if U.k != self.k:
            raise ValueError("species list and state size disagree")
        return np.concatenate([u.values[self.nodes] for u in U])

    def unstack(self, x) -> StateField:
        """The state of the stacked x, zero outside the region; a folded
        system copies each representative's value to its whole orbit."""
        v = x.reshape(self.k, self.n)
        if self._orbit is not None:
            v = v[:, self._orbit]
        return StateField([ScalarField(self.domain, self.domain.insert(u, self.mask))
                           for u in v])

    def _fold(self, mirrors):
        """A copy of this system on one representative node per orbit of
        `mirrors` (``GridDomain.fold``): its operator is A_f, its
        unknowns, baselines and caps live on the representatives, its
        residual norms weigh each representative by its orbit size, and
        its ``unstack`` fills every orbit."""
        nodes, A, orbit, w = self.domain.fold(self.mask, mirrors)
        keep = nodes[self.mask]
        folded = copy.copy(self)
        folded.A, folded.n, folded.nodes, folded._orbit = A, A.shape[0], nodes, orbit
        folded._weight = np.tile(w, self.k)
        folded.u0 = self.u0[:, keep]
        folded.caps = [c if np.isscalar(c) else c[keep] for c in self.caps]
        return folded

    def _line(self, mirror):
        """The mirror line (axis, c) as an equation, e.g. 'y = 0'."""
        axis, c = mirror
        return f"{'yx'[axis]} = {self.domain.origin[1 - axis] + 0.5 * c * self.h:g}"

    def _folded_for(self, x):
        """This system folded along every mirror of its region under which
        the stacked x, the baselines and the caps are invariant to
        ``MIRROR_RTOL``, or the system itself when there is none.  Logs
        the decision at DEBUG level."""
        mirrors = self.domain.mirrors(self.mask)
        if not mirrors:
            log.debug("kappa %g: not folded; the region has no lattice mirror",
                      self.kappa)
            return self
        fields = np.vstack([x.reshape(self.k, self.n), self.u0,
                            *(c for c in self.caps if not np.isscalar(c))])
        peak = np.max(np.abs(fields), axis=1)
        scale = np.where(peak > 0.0, peak, 1.0)
        asymmetry = {m: float(np.max(np.max(np.abs(fields - fields[:, image]),
                                            axis=1) / scale))
                     for m, image in mirrors.items()}
        invariant = [m for m, a in asymmetry.items() if a <= MIRROR_RTOL]
        if not invariant:
            log.debug("kappa %g: not folded; largest relative asymmetry %.3g "
                      "under %s", self.kappa, max(asymmetry.values()),
                      ", ".join(map(self._line, mirrors)))
            return self
        folded = self._fold(invariant)
        log.debug("kappa %g: folded along %s: %d of %d nodes%s", self.kappa,
                  ", ".join(map(self._line, invariant)), folded.n, self.n,
                  "".join(f"; not along {self._line(m)}, relative asymmetry "
                          f"{a:.3g}" for m, a in asymmetry.items()
                          if m not in invariant))
        return folded

    def newton(self, guess: StateField, tol, *,
               history=()) -> tuple[StateField, float, int]:
        """Damped Newton from `guess`; see ``solve_system``.  Returns the
        state, its residual norm and the iterations.  `history` holds the
        residual norms of the steps that reached `guess` (the kernel's
        ``history``).  Runs on this system folded along the mirrors that
        leave the problem invariant (``_folded_for``)."""
        system = self._folded_for(self.stack(guess))
        try:
            x, rnorm, iterations = damped_newton(
                system.stack(guess), system.residual, system.linearize, tol,
                as_iterate=system.unstack, history=history)
        finally:
            # released before the result is allocated
            system.release()
        return system.unstack(x), rnorm, iterations


def residual(U: StateField, species, model: ModelKind, kappa) -> StateField:
    """Model residual A u_i - RHS_i(U, kappa) as a state on the same grid."""
    system = _System(U.domain, species, model, kappa)
    return system.unstack(system.residual(system.stack(U))[0])


def solve_system(guess: StateField, species, model: ModelKind, kappa,
                 tol=NEWTON_TOL) -> tuple[StateField, int]:
    """Solve the selected model at fixed kappa by damped Newton.

    Returns (state, iterations) with the root-sum-square residual norm at
    or below tol * max(1, ||RHS||).  A step is accepted when the residual
    norm decreases by the Armijo-style factor (1 - 1e-4 t).  Each step
    follows the system's one Newton-step policy (``_System.linearize``):
    GMRES on block LUs held across the steps, and the assembled
    Jacobian's LU for a step whose GMRES solve misses and for every step
    after a second miss.  Raises NonlinearSolveError when a step cannot
    reduce the residual within the kernel's budget of halvings, a diagonal
    block or the assembled Jacobian of a missed step is singular, or the
    kernel's step budget runs out.
    """
    system = _System(guess.domain, species, model, kappa)
    state, _, iterations = system.newton(guess, tol)
    return state, iterations


class NearOutcomes(list):
    """The outcomes of ``solve_near``, one per start: the solved state, or
    the NonlinearSolveError that ended that start.  ``chord_only`` counts
    the starts that converged on the center LU without a linearization of
    their own."""

    chord_only = 0


def solve_near(center: StateField, starts, species, model: ModelKind, kappa,
               tol=NEWTON_TOL) -> NearOutcomes:
    """Solve the model at fixed kappa from every start near `center`.

    Factors the assembled block Jacobian at `center` once, without its
    coupling entries below round-off (``_System.jacobian``); its LU solves
    the full Jacobian to its own backward error.  All starts then take
    chord steps on that LU by the kernel's full-step rule
    (``newton.full_steps``), one multi-column triangular solve per round,
    and each round logs its counts at DEBUG level.  Once the rounds end
    the center LU is dropped, and each start the rule left short goes on
    by ordinary damped Newton from where it left, its chord steps counted
    in its budget and history; its steps follow the Newton-step policy of
    ``_System.linearize`` within that start only.  Convergence, budget
    and failures are those of ``solve_system``.

    Returns a ``NearOutcomes`` list with one entry per start.  Raises
    NonlinearSolveError when the Jacobian at the center cannot be factored,
    and ValueError when a state has the wrong number of species.
    """
    system = _System(center.domain, species, model, kappa)
    x_center = system.stack(center)
    m = len(starts)
    X = np.empty((x_center.size, m), order="F")  # one column per start
    for j, start in enumerate(starts):
        X[:, j] = system.stack(start)
    if m == 0:
        return NearOutcomes()
    try:
        lu = factorize(system.jacobian(x_center))
    except RuntimeError as exc:
        raise NonlinearSolveError(f"singular linearization at the center: {exc}",
                                  last_iterate=center) from exc

    R = np.empty_like(X)
    rhs, histories = [0.0] * m, [None] * m
    for j in range(m):
        R[:, j], rnorm, rhs[j] = system.residual(X[:, j])
        histories[j] = [rnorm]
    fallback, rounds = full_steps(X, R, rhs, histories, lu.solve,
                                  system.residual, tol)
    for number, counts in enumerate(rounds, 1):
        log.debug("chord round %d: %d trials stepped, %d steps accepted, "
                  "%d fell back", number, *counts)
    del lu, R  # released before a fallback start factors its blocks

    outcomes = NearOutcomes()
    outcomes.chord_only = m - len(fallback)
    for j in range(m):
        state = system.unstack(X[:, j])
        if j in fallback:
            try:
                state, _, _ = system.newton(state, tol, history=histories[j])
            except NonlinearSolveError as exc:
                state = exc
        outcomes.append(state)
    return outcomes
