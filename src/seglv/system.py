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
the folded lattice (``_newton``; Bossavit, Comput. Methods Appl. Mech.
Engrg. 56, 1986).  A region's mirrors are the horizontal and vertical
lines, on a node line or midway between two, that map its mask onto
itself (``GridDomain.mirrors``).  Each comes with a species map sigma
read from the images of the region's balls: chain3's x = 3 sends ball 0
onto ball 2, so sigma = (2, 1, 0), while y = 0 keeps every species in
place.  The solve folds along each mirror whose permuted species have
equal parameters and under which the guess, the baselines and the caps
satisfy u_sigma(i) = u_i o mirror to ``MIRROR_RTOL``.  The solution then
lies in the fixed-point subspace of the group that the mirrors generate
on (species, node) pairs (Golubitsky, Stewart & Schaeffer,
*Singularities and Groups in Bifurcation Theory II*, Springer 1988), and
the solve keeps one unknown per orbit of pairs.  One construction gives
every fold, stored on the domain once per region, species count and set
of mirrors (``GridDomain.fold``):

* the group's maps that keep every species fold the nodes onto one
  representative per orbit, with A_f = R A P in place of A (P copies a
  representative to its orbit, R takes the representatives' rows);
* of each orbit of pairs on those nodes, the first in the stacked order
  is an unknown: on chain3, species 0 on the 5166 nodes at or below
  y = 0, species 1 on the 2599 of those at or left of x = 3, and species
  2 none, since it is species 0's image.

The residual, the coupling D and the reaction stay node-wise on the k
species of the folded nodes: one gather G makes that (k, n) array from
the unknowns, and one selection takes the unknowns' rows back; neither is
needed when no mirror moves a species.  This is exact.  The reaction and
the coupling act node by node, so at an equivariant state the residual
is equivariant, and so is the Newton step of an equivariant problem: the
folded Jacobian is R J G.  Each species that keeps unknowns is a block:
its Laplacian among them (A_f folded once more by the mirrors that fix
the species) plus the coupling's diagonal on them, D[i, i] and every
D[i, j] that the permutation moves onto the diagonal, where a node is its
own image.  The other moved couplings, D[0, 2] at (m, pi m) on chain3,
live in ``apply``, in the sweep (through every species gathered from a
block) and in the assembled ``jacobian``.  The residual's norms weigh
each unknown by the number of the region's pairs in its orbit, so every
tolerance, Armijo and halving test sees the full lattice's norm (GMRES
takes its relative tolerance on the folded vectors), and the returned
fields are exactly equivariant.  A_f is not symmetric, since a
representative on a mirror couples twice to its neighbour off it, so the
block LUs factor their matrices as they are.  The chain3 ramp factors
one block of order 5166 and one of 2599 per linearization (three of
10077 on the full lattice); a ball solve and the global profile fold
along both axes, onto a quarter of the nodes.  An unfolded system is the
construction without mirrors: one block per species on all the region's
nodes.  A solve makes its fold decision on the region's nodes before any
system exists and then builds its one system on the chosen layout.

The eigen-solves of ``scalar`` take the same construction with k = 1,
and one decision serves them and the Newton solves (``_fold_choice``):
the asymmetry of the problem's rows under each mirror, the mirrors
refused, and the DEBUG note.  Nothing else folds: a start that fails the
test (a probe trial that falls back to damped Newton), ``solve_near``'s
center LU and chord rounds, and the public ``residual``.  The baselines
and caps are tested once per model and region, the guess on every solve.
Each Newton solve logs one DEBUG line: the mirrors it folds along, each
with the species it swaps, and "q of N unknowns", or "not folded" with
the largest relative asymmetry found; a mirror it does not fold along is
named with its reason.

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

import logging
import math
from dataclasses import dataclass, field

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
# baselines and the caps of every species i each match those of species
# sigma(i), the mirror's species map, at the mirror image to this relative
# max-norm asymmetry (9.1e-13): far above the round-off of fields computed
# on the full lattice (the ARPACK eigenfield that seeds chain3's ball
# solves is asymmetric by 21 eps at h = 1/32 and 86 eps at h = 1/128, and
# its ramp states solved without the species swap, species 0 against the
# image of 2 included, by at most 234 eps) and far below any perturbation
# a caller makes (chain3's probe starts, of H1 size 0.02 as in A6, by 2e-3
# to 3e-3)
MIRROR_RTOL = 4096 * np.finfo(float).eps


def _asymmetry(fields, image, species):
    """The relative asymmetry of `fields` under a mirror of their region.

    `fields` is (F k, n): F groups of k species rows on the region's n
    nodes, `image` the mirror's node map (``domain.Mirror``) and `species`
    its permutation of the k species.  Returns the largest max-norm
    difference between a row u_i and the row u_sigma(i) of its group at
    the mirror images, relative to the peak of u_i (1 for a zero row)."""
    k = len(species)
    rows = (np.arange(len(fields) // k)[:, None] * k + species).ravel()
    peak = np.max(np.abs(fields), axis=1)
    scale = np.where(peak > 0.0, peak, 1.0)
    return float(np.max(np.max(np.abs(fields - fields[rows[:, None], image]),
                               axis=1) / scale))


def _nodal(U: StateField, k, nodes):
    """The (k, n) values of the state U at the n nodes of the mask `nodes`;
    raises ValueError unless U has k components, one per species."""
    if U.k != k:
        raise ValueError("species list and state size disagree")
    return np.stack([u.values[nodes] for u in U])


def _mirror_line(domain, mirror, species=()):
    """The mirror line (axis, c) of `domain` as an equation, e.g. 'y = 0',
    followed by the pairs its species map `species` swaps, e.g. 'x = 3
    swaps species 0, 2'."""
    axis, c = mirror
    line = f"{'yx'[axis]} = {domain.origin[1 - axis] + 0.5 * c * domain.h:g}"
    swaps = " and ".join(f"{i}, {j}" for i, j in enumerate(species) if i < j)
    return f"{line} swaps species {swaps}" if swaps else line


def _fold_choice(domain, mask, fields, differ, unit, fixed=None):
    """The keys of the mirrors of the region `mask` (``GridDomain.mirrors``)
    that a problem folds along, and the DEBUG note on that choice.

    `fields` holds the problem's rows of k species on the region's nodes,
    and each mirror acts on the species by its map of k species
    (``Mirror.permutation``).  Mirror m qualifies when `differ`, given
    that map, returns no reason against it, and the relative asymmetry
    (``_asymmetry``) of `fields` under it, or `fixed[m]` when larger, is
    at most ``MIRROR_RTOL``.  The note on a fold is "folded along <lines>:
    q of N <unit>", q the unknowns of ``GridDomain.fold`` and N the
    entries of `fields`, and it names each mirror left out, "; not along
    <line>, <reason>".  When none qualifies it is "not folded; " and why.
    """
    mirrors = domain.mirrors(mask)
    if not mirrors:
        return [], "not folded; the region has no lattice mirror"
    k = len(fields)
    maps = {m: mirror.permutation(k) for m, mirror in mirrors.items()}
    asymmetry = {m: _asymmetry(fields, mirror.image, maps[m])
                 for m, mirror in mirrors.items()}
    if fixed:
        asymmetry = {m: max(fixed[m], a) for m, a in asymmetry.items()}
    reasons = {m: differ(species) for m, species in maps.items()}
    refused = {m: reasons[m] or f"relative asymmetry {a:.3g}"
               for m, a in asymmetry.items() if reasons[m] or a > MIRROR_RTOL}
    invariant = [m for m in mirrors if m not in refused]
    note = "".join(f"; not along {_mirror_line(domain, m)}, {reason}"
                   for m, reason in refused.items() if invariant or reasons[m])
    if not invariant:
        lines = ", ".join(_mirror_line(domain, m) for m in mirrors)
        return invariant, ("not folded; largest relative asymmetry "
                           f"{max(asymmetry.values()):.3g} under {lines}{note}")
    lines = ", ".join(_mirror_line(domain, m, maps[m]) for m in invariant)
    size = domain.fold(mask, k, invariant).size
    return invariant, f"folded along {lines}: {size} of {fields.size} {unit}{note}"


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
    # the mirror asymmetries of the baselines and caps on each region, keyed
    # by its mask (``_invariant_mirrors``)
    _fixed_asymmetry: dict = field(default_factory=dict, init=False,
                                   repr=False, compare=False)

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

    def _at(self, domain, k, nodes):
        """(u0, caps): the k baselines as a (k, n) array and the k caps at
        the n nodes of the mask `nodes` of `domain`; raises
        DomainMismatchError when the baselines or the caps live on another
        domain, then ValueError unless each has k components (``_nodal``)."""
        if self.baseline is not None and self.baseline.domain is not domain:
            raise DomainMismatchError("baseline lives on a different domain")
        if self.caps is not None and self.caps.domain is not domain:
            raise DomainMismatchError("truncation caps live on a different domain")
        if self.kind == "lotka_volterra":
            # the plain model may carry a baseline as a warm-start hint, but
            # its residual is the kind with zero baseline
            u0 = np.zeros((k, np.count_nonzero(nodes)))
        else:
            u0 = _nodal(self.baseline, k, nodes)
        return u0, ([np.inf] * k if self.caps is None
                    else _nodal(self.caps, k, nodes))

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

    Every formula works node-wise on a (k, n) array: the k species on the
    n nodes of the layout of ``fold``, the ``GridDomain.fold`` of `region`
    (default: the whole interior, zero Dirichlet data outside it) along
    `mirrors`, keys of the region's mirrors.  Without mirrors these are
    the region's nodes, else its n representatives of node orbits, and
    the operator, baselines and caps live on them.  The stacked vector x
    of unknowns is that array's ravel, unless the fold sends species to
    one another's mirror images: then it holds one entry per orbit of
    (species, node) pairs, the node-wise array is gathered from it and
    each residual takes its rows back.  Raises DomainMismatchError when
    the model's baselines or caps live on another domain, then ValueError
    unless they have one component per species.  `model` None is the
    problem of a ``scalar`` solve: the barrier formula with a zero
    baseline and no caps, which builds no field.
    """

    def __init__(self, domain, species, model: ModelKind | None, kappa,
                 region=None, mirrors=()):
        self.domain = domain
        self.species = species
        self.kappa = float(kappa)
        self.k = k = len(species)
        self.mask = domain.laplacian(region)[1] >= 0
        self.fold = fold = domain.fold(self.mask, k, mirrors)
        self.A = fold.A
        self.n = fold.A.shape[0]
        self.h = domain.h
        self.clip = model is not None and model.kind != "barrier"
        self.u0, self.caps = ((np.zeros((k, self.n)), [np.inf] * k) if model is None
                              else model._at(domain, k, fold.nodes))
        self.release()

    @property
    def size(self):
        """The number of unknowns."""
        return self.fold.size

    def _nodewise(self, x):
        """The (k, n) node-wise array of the stacked unknowns x."""
        gather = self.fold.gather
        return (x if gather is None else x[gather]).reshape(self.k, self.n)

    def _unknowns(self, a):
        """The rows of the unknowns in the node-wise (k, n) array a, stacked."""
        a = a.ravel()
        return a if self.fold.pick is None else a[self.fold.pick]

    def _reaction(self, fn, s):
        """Per-species truncated reaction term (or derivative) at the (k, n)
        argument s."""
        return np.stack([fn(p, s_i, c) for p, s_i, c in zip(self.species, s, self.caps)])

    def _parts(self, x):
        """(P, s, v): interacting parts, reaction argument and u + u^0 at x."""
        u = self._nodewise(x)
        v = u + self.u0
        if not self.clip:
            return v, u, v
        P = np.maximum(v, 0.0)
        return P, P - self.u0, v

    def _laplacian(self, u):
        """(k, n) array of A u_i for every species u_i of the (k, n) u."""
        return np.stack([self.A @ u_i for u_i in u])

    def residual(self, x):
        """(r, its norm, the norm of the RHS): the stacked residual
        r = A u_i - RHS_i at the stacked state x, and the root-sum-square
        L2 norms h ||.|| of r and of the right-hand sides RHS_i, reduced by
        ``newton._l2``."""
        P, s, _ = self._parts(x)
        coupling = self.kappa * P * (P.sum(axis=0) - P)
        Ax = self._unknowns(self._laplacian(self._nodewise(x)))
        r = (Ax - self._unknowns(self._reaction(f_truncated_eval, s))
             + self._unknowns(coupling))
        return r, self._norm(r), self._norm(Ax - r)

    def _norm(self, r):
        """h times the L2 norm of the stacked r over the whole region: a
        folded system weighs each unknown by the size of its orbit."""
        weight = self.fold.weight
        if weight is None:
            return self.h * _l2(r)
        return self.h * math.sqrt(float(np.sum(weight * (r * r))))

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
        """Assembled Jacobian of the residual at the stacked state x,
        without its coupling entries below round-off.

        An off-diagonal coupling entry J_ij (i != j, at one node) is left
        out when |J_ij| <= eps sqrt(|J_ii| |J_jj|), eps the machine epsilon
        and J_ii = A_ii + D[i, i] the diagonal entries of its row and
        column in the node-wise layout; the clipped models' exact zeros are
        among them.  Such an entry lies within the round-off of its row, so
        the LU of the result solves the full Jacobian to its own backward
        error (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
        ed., SIAM 2002, ch. 9), while the ones far out in a foreign ball
        (kappa P_i of a species nearly extinct there) no longer add fill.
        On a fold that moves species the Jacobian is R J G: the node-wise
        one with its columns summed onto the unknowns they are gathered
        from and the unknowns' rows.  A coupling then moves with its
        column, e.g. D[0, 2] at node m to the unknown of species 0 at the
        image of m, and adds onto the diagonal where m is its own image.
        Logs how many couplings were left out at DEBUG level.
        """
        D = self._coupling(x)
        k, n = self.k, self.n
        i = np.arange(k)
        diagonal = np.abs(self.A.diagonal() + D[i, i])  # |J_ii|, (k, n)
        keep = np.abs(D) > np.finfo(float).eps * np.sqrt(
            diagonal[:, None] * diagonal)
        keep[i, i] = True
        # block (i, j) of the coupling is diagonal: its entry at node m sits
        # in the row of pair (i, m), if that is an unknown's, and in the
        # column of the unknown that pair (j, m) is gathered from
        pick = self.fold.pick
        if pick is None:
            row = column = np.arange(k * n)
        else:
            column, row = self.fold.gather, np.full(k * n, -1)
            row[pick] = np.arange(pick.size)
        rows, cols = np.broadcast_arrays(row.reshape(k, 1, n),
                                         column.reshape(1, k, n))
        coupled = (rows >= 0) & ~np.eye(k, dtype=bool)[:, :, None]
        keep &= rows >= 0
        order = self.size
        log.debug("assembled Jacobian of order %d: %d of %d couplings below "
                  "round-off dropped", order,
                  np.count_nonzero(coupled & ~keep), np.count_nonzero(coupled))
        return (sp.csc_matrix((D[keep], (rows[keep], cols[keep])),
                              shape=(order, order))
                + sp.block_diag([block.A for block in self.fold.blocks],
                                format="csc"))

    def linearize(self, x):
        """The Newton-step solver of the Jacobian J at x: this system, whose
        ``solve(b)`` returns s with J s ~ b (see the module docstring).

        Node-wise, block (i, j) of J is diag(D[i, j]), plus the Laplacian A
        when i = j.  The linearization keeps x and D = ``_coupling(x)``; it
        keeps the block LUs of an earlier one while the last GMRES solve
        took at most ``KRYLOV_REFACTOR`` iterations (a miss that ran out
        of iterations leaves it at ``newton.KRYLOV_MAXITER``), and
        otherwise refactors them: one per block of unknowns, its Laplacian
        plus diag(D[i, i]) on its nodes.  After the solve's second miss it
        keeps x alone.  Factoring raises RuntimeError when a block is
        singular.
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
            self._blocks = [factorize(block.A + sp.diags(self._diagonal(block)))
                            for block in self.fold.blocks]
            self._iterations = 0
        return self

    def _diagonal(self, block):
        """The coupling's diagonal on the unknowns of `block`: D[i, i] at its
        nodes, plus each D[i, j] that a fold moves onto it."""
        i = block.species
        d = self._D[i, i][block.nodes]
        for j, where in block.diagonal:
            d = d + np.where(where, self._D[i, j][block.nodes], 0.0)
        return d

    def release(self):
        """Drop the linearization: its iterate, coupling, block LUs, GMRES
        count and misses."""
        self._x = self._D = self._blocks = self._iterations = None
        self._missed = self._direct = False

    def apply(self, v):
        """J v at the linearization's iterate, J not assembled."""
        u = self._nodewise(v)
        return self._unknowns(self._laplacian(u)
                              + np.einsum("ijm,jm->im", self._D, u))

    def _sweep(self, c):
        """One forward block Gauss-Seidel sweep: solve a block on its held
        LU, then take its coupling off the right-hand sides of the blocks
        below, through every species gathered from it."""
        z = c.copy()
        blocks = self.fold.blocks
        for b, (block, lu) in enumerate(zip(blocks, self._blocks)):
            z_b = z[block.unknowns] = lu.solve(z[block.unknowns])
            for below in blocks[b + 1:]:
                for j, index in block.members:
                    z[below.unknowns] -= (self._D[below.species, j]
                                          * z_b[index])[below.nodes]
        return z

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
        """Stacked unknowns of the state U; raises ValueError unless U has
        one component per species."""
        return self._unknowns(_nodal(U, self.k, self.fold.nodes))

    def unstack(self, x) -> StateField:
        """The state of the stacked x, zero outside the region; a folded
        system copies each representative's value to its whole orbit."""
        v = self._nodewise(x)[:, self.fold.orbit]
        return StateField([ScalarField(self.domain, self.domain.insert(u, self.mask))
                           for u in v])


def _invariant_mirrors(domain, species, model: ModelKind | None,
                       guess: StateField, mask):
    """The keys of the mirrors of the region `mask` that map the problem of
    a Newton solve from `guess` onto itself, and the DEBUG note on that
    choice (``_fold_choice``).

    A mirror qualifies when the species it permutes have equal parameters
    and the guess, the baselines and the caps satisfy u_sigma(i) = u_i o
    mirror to ``MIRROR_RTOL``, relative to each field's peak
    (``_asymmetry``).  The baselines' and caps' asymmetries are fixed for
    the model and are found once per region (cached on ``ModelKind``); the
    guess's is found on every call.  Raises DomainMismatchError for
    baselines or caps on another domain, then ValueError unless they and
    the guess have one component per species."""
    k = len(species)
    fixed = {}  # a scalar solve's zero baseline fixes no asymmetry
    if model is not None:
        u0, caps = model._at(domain, k, mask)
        key = mask.shape, mask.tobytes()
        fixed = model._fixed_asymmetry.get(key)
        if fixed is None:
            # so does any group of zero rows
            groups = [g for g in (u0, [c for c in caps if not np.isscalar(c)])
                      if np.any(g)]
            fields = np.vstack(groups) if groups else None
            fixed = model._fixed_asymmetry[key] = {
                m: _asymmetry(fields, mirror.image, mirror.permutation(k))
                for m, mirror in domain.mirrors(mask).items()} if groups else {}
    x = _nodal(guess, k, mask)

    def differ(sigma):
        # the first pair that the species map swaps whose parameters differ
        unequal = [(i, j) for i, j in enumerate(sigma) if species[i] != species[j]]
        return "species {}, {} differ".format(*unequal[0]) if unequal else None

    return _fold_choice(domain, mask, x, differ, "unknowns", fixed)


def _newton(domain, species, model: ModelKind | None, kappa, guess: StateField,
            tol, region=None, *, history=()) -> tuple[StateField, float, int]:
    """Damped Newton from `guess` on `region` (default: the whole
    interior); see ``solve_system``.  Returns the state, its residual norm
    and the iterations.  `history` holds the residual norms of the steps
    that reached `guess` (the kernel's ``history``), and `model` None is a
    ``scalar`` solve's problem (``_System``).  The solve builds one
    system, on the fold along the mirrors that map the problem onto itself
    (``_invariant_mirrors``), and logs that decision at DEBUG level."""
    mirrors, note = _invariant_mirrors(domain, species, model, guess,
                                       domain.laplacian(region)[1] >= 0)
    log.debug("kappa %g: %s", kappa, note)
    system = _System(domain, species, model, kappa, region, mirrors)
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
    state, _, iterations = _newton(guess.domain, species, model, kappa, guess,
                                   tol)
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
                state, _, _ = _newton(center.domain, species, model, kappa,
                                      state, tol, history=histories[j])
            except NonlinearSolveError as exc:
                state = exc
        outcomes.append(state)
    return outcomes
