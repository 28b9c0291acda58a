"""Segregation, inequality, non-invasion, energy, and uniqueness diagnostics.

The weak differential inequalities characterizing segregated limit states,

    -Lap u_i <= f_i(u_i)      and      -Lap uhat_i >= fhat_i,

are tested against every nonnegative H^1_0 test function; on the grid the
nonnegative nodal hat functions span that cone, so the checks reduce to
nodewise sign conditions on the discrete residuals.  Violations below the
given tolerance (conventionally 10x the nonlinear solver tolerance) count
as solver noise, not violations.

Both residuals use the interior matrix A of every solve.  The super
residual needs no hat field of its own: uhat_i = u_i - sum_{j != i} u_j
and fhat_i = f_i(u_i) - sum_{j != i} f_j(u_j) are the same signed sums,
and A is linear, so A uhat_i - fhat_i = r_i - sum_{j != i} r_j with
r_j = A u_j - f_j(u_j), exactly up to the order of rounding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonlinearSolveError
from .newton import NEWTON_TOL, factorize
from .operators import ScalarField, StateField, inner, norm, state_h1_norm
from .reaction import f_eval, potential_eval
from .system import ModelKind, solve_near


@dataclass(frozen=True)
class ViolationStats:
    count: int
    max_magnitude: float


@dataclass
class DiagnosticsReport:
    """Structured snapshot of one state's segregation diagnostics."""

    overlap_matrix: np.ndarray
    sub_violations: list[ViolationStats]
    super_violations: list[ViolationStats]
    noninvasion: np.ndarray
    energy: float
    box_violations: int
    h1_norms: list[float]

    def to_json_dict(self):
        return asdict(self) | {"overlap_matrix": self.overlap_matrix.tolist(),
                               "noninvasion": self.noninvasion.tolist()}


@dataclass(frozen=True)
class FreeBoundary:
    """Interior grid edges crossing a species' support threshold.

    Each edge is (species, (iy, ix), (iy2, ix2)) with the endpoints in
    lexicographic order.
    """

    edges: frozenset

    def __len__(self):
        return len(self.edges)


@dataclass
class UniquenessReport:
    """Outcome of ``uniqueness_probe``; ``chord_only`` counts the trials
    that converged on the center LU without a linearization of their own."""

    trials: int
    max_pairwise_h1_distance: float
    all_converged: bool
    converged: int
    chord_only: int


def overlap(U: StateField) -> np.ndarray:
    """Pairwise support overlaps: entry (i, j) = (u_i, u_j)_L2, zero diagonal."""
    k = U.k
    M = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            M[i, j] = M[j, i] = inner(U[i], U[j])
    return M


def inequality_check(U: StateField, species, tol):
    """Nodewise residual sign checks of the differential-inequality pair.

    Returns (sub, super) lists of per-species ViolationStats: sub counts
    interior nodes where A u_i - f_i(u_i) > tol, super counts nodes where
    A uhat_i - fhat_i < -tol.  A is the interior matrix of every solve
    (``GridDomain.laplacian``).  Each species' residual r_i = A u_i -
    f_i(u_i) is formed once; the super residual is r_i - sum_{j != i} r_j,
    which is A uhat_i - fhat_i by the linearity of A and of the hat sums
    (``hat_transform``, ``hat_rhs``).  Raises ValueError unless there is
    one species per component.
    """
    A, _ = U.domain.laplacian()
    r = [A @ v - f_eval(sp, v)
         for v, sp in zip((u.interior() for u in U), species, strict=True)]
    sub, sup = [], []
    for i, r_i in enumerate(r):
        bad = r_i > tol
        sub.append(ViolationStats(int(bad.sum()), float(r_i.max()) if bad.any() else 0.0))
        rh = r_i - sum(r_j for j, r_j in enumerate(r) if j != i)
        bad = rh < -tol
        sup.append(ViolationStats(int(bad.sum()), float(-rh.min()) if bad.any() else 0.0))
    return sub, sup


def noninvasion(U: StateField) -> np.ndarray:
    """Entry (i, j != i): max |u_i| over the ball native to species j;
    diagonal: max of u_i over its own ball (occupancy, for contrast)."""
    k = U.k
    M = np.zeros((k, k))
    masks = [U.domain.species_ball_mask(j) for j in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                M[i, i] = float(U[i].values[masks[i]].max(initial=0.0))
            else:
                M[i, j] = float(np.abs(U[i].values[masks[j]]).max(initial=0.0))
    return M


def energy(U: StateField, species) -> float:
    """J(U) = sum_i ( 0.5 |grad u_i|^2 - int F_i(u_i) ), discretized.

    Raises ValueError unless there is one species per component."""
    h2 = U.domain.h ** 2
    total = 0.0
    for u, sp in zip(U, species, strict=True):
        total += 0.5 * norm(u, "H1_seminorm") ** 2
        total -= h2 * float(np.sum(potential_eval(sp, u.values)))
    return total


def free_boundary(U: StateField, threshold=None) -> FreeBoundary:
    """Interior edges whose endpoints straddle the support threshold.

    Default threshold: 1e-6 times the largest component amplitude (an empty
    boundary for the zero state).
    """
    mask = U.domain.interior_mask
    if threshold is None:
        peak = max((norm(u, "Linf") for u in U), default=0.0)
        if peak == 0.0:
            return FreeBoundary(frozenset())
        threshold = 1e-6 * peak
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    edges = set()
    for i, u in enumerate(U):
        above = u.values > threshold
        pair = mask[:, :-1] & mask[:, 1:]
        cross = pair & (above[:, :-1] != above[:, 1:])
        for iy, ix in zip(*np.nonzero(cross)):
            edges.add((i, (int(iy), int(ix)), (int(iy), int(ix) + 1)))
        pair = mask[:-1, :] & mask[1:, :]
        cross = pair & (above[:-1, :] != above[1:, :])
        for iy, ix in zip(*np.nonzero(cross)):
            edges.add((i, (int(iy), int(ix)), (int(iy) + 1, int(ix))))
    return FreeBoundary(frozenset(edges))


def h1_distance(U: StateField, V: StateField) -> float:
    """Root-sum-square H1 distance between conforming states."""
    return state_h1_norm(U - V)


def box_violation_count(U: StateField, tol, baseline=None, phi=None) -> int:
    """Nodes violating the a-priori box -u_i^0 - tol <= u_i <= phi_i + tol.

    The lower bound is checked when a baseline is given, the upper when the
    truncation profiles are given.  Raises ValueError unless each given
    tuple has one field per component.
    """
    mask = U.domain.interior_mask
    v = [u.values[mask] for u in U]
    count = 0
    if baseline is not None:
        count += sum(int(np.sum(v_i < -b.values[mask] - tol))
                     for v_i, b in zip(v, baseline, strict=True))
    if phi is not None:
        count += sum(int(np.sum(v_i > c.values[mask] + tol))
                     for v_i, c in zip(v, phi, strict=True))
    return count


def compute_diagnostics(U: StateField, species, tol, baseline=None,
                        phi=None) -> DiagnosticsReport:
    sub, sup = inequality_check(U, species, tol)
    return DiagnosticsReport(
        overlap_matrix=overlap(U),
        sub_violations=sub,
        super_violations=sup,
        noninvasion=noninvasion(U),
        energy=energy(U, species),
        box_violations=box_violation_count(U, tol, baseline=baseline, phi=phi),
        h1_norms=[norm(u, "H1") for u in U],
    )


def seeded_perturbation(domain, k, delta, seed) -> StateField:
    """Reproducible smooth random state of H1 size exactly delta.

    Per-node uniform noise, drawn component after component from
    default_rng(seed), is smoothed by a Poisson solve (raw noise has
    enormous H1 norm): one LU of the Laplacian serves all k components in a
    single multi-column solve.  The tuple is rescaled to the requested size.
    """
    return _seeded_perturbations(domain, k, delta, [seed])[0]


def _seeded_perturbations(domain, k, delta, seeds) -> list[StateField]:
    """``seeded_perturbation`` for each seed, all smoothed by one LU of the
    Laplacian in one multi-column solve."""
    if delta == 0:
        return [StateField.zeros(domain, k) for _ in seeds]
    noise = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        noise += [rng.uniform(-1.0, 1.0, domain.n_interior) for _ in range(k)]
    A, _ = domain.laplacian()
    smooth = factorize(A).solve(np.column_stack(noise))
    states = []
    for t in range(len(seeds)):
        W = StateField([ScalarField.from_interior(domain, smooth[:, t * k + i])
                        for i in range(k)])
        size = state_h1_norm(W)
        states.append(StateField.zeros(domain, k) if size == 0.0
                      else W * (delta / size))
    return states


def uniqueness_probe(domain, species, model: ModelKind, kappa_final,
                     center: StateField, delta, trials, seed, *,
                     tol=NEWTON_TOL) -> UniquenessReport:
    """Multistart collapse test around a converged state.

    Re-solves from `trials` seeded perturbations of the center (H1 size
    delta, per-trial seed = seed + trial, all smoothed by one Laplacian LU)
    and reports the largest pairwise H1 distance among the converged
    results.  The trials run in lockstep chord rounds on one factorization
    of the Jacobian at the center (``system.solve_near``).  Non-convergent
    trials are counted and flagged, not fatal.
    """
    seeds = [seed + t for t in range(trials)]
    starts = [center + W for W in
              _seeded_perturbations(domain, center.k, delta, seeds)]
    outcomes = solve_near(center, starts, species, model, kappa_final, tol)
    results = [u for u in outcomes if not isinstance(u, NonlinearSolveError)]
    max_dist = 0.0
    for a in range(len(results)):
        for b in range(a + 1, len(results)):
            max_dist = max(max_dist, h1_distance(results[a], results[b]))
    return UniquenessReport(trials=trials, max_pairwise_h1_distance=max_dist,
                            all_converged=len(results) == trials,
                            converged=len(results),
                            chord_only=outcomes.chord_only)
