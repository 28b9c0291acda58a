"""Segregation, inequality, non-invasion, energy, and uniqueness diagnostics.

The weak differential inequalities characterizing segregated limit states,

    -Lap u_i <= f_i(u_i)      and      -Lap uhat_i >= fhat_i,

are tested against every nonnegative H^1_0 test function; on the grid the
nonnegative nodal hat functions span that cone, so the checks reduce to
nodewise sign conditions on the discrete residuals.  Violations below the
given tolerance (conventionally 10x the nonlinear solver tolerance) count
as solver noise, not violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonlinearSolveError
from .newton import factorize
from .operators import (ScalarField, StateField, apply_laplacian, inner, norm,
                        state_h1_norm)
from .reaction import f_eval, hat_rhs, hat_transform, potential_eval
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
        return {
            "overlap_matrix": self.overlap_matrix.tolist(),
            "sub_violations": [
                {"count": v.count, "max_magnitude": v.max_magnitude}
                for v in self.sub_violations],
            "super_violations": [
                {"count": v.count, "max_magnitude": v.max_magnitude}
                for v in self.super_violations],
            "noninvasion": self.noninvasion.tolist(),
            "energy": self.energy,
            "box_violations": self.box_violations,
            "h1_norms": list(self.h1_norms),
        }


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
    trials: int
    max_pairwise_h1_distance: float
    all_converged: bool
    converged: int


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
    A uhat_i - fhat_i < -tol.
    """
    mask = U.domain.interior_mask
    sub, sup = [], []
    for i in range(U.k):
        r = apply_laplacian(U[i]).values - f_eval(species[i], U[i].values)
        r = r[mask]
        bad = r > tol
        sub.append(ViolationStats(int(bad.sum()), float(r.max()) if bad.any() else 0.0))
        rh = (apply_laplacian(hat_transform(U, i)).values
              - hat_rhs(U, species, i).values)[mask]
        bad = rh < -tol
        sup.append(ViolationStats(int(bad.sum()), float(-rh.min()) if bad.any() else 0.0))
    return sub, sup


def noninvasion(U: StateField, domain=None) -> np.ndarray:
    """Entry (i, j != i): max |u_i| over the ball native to species j;
    diagonal: max of u_i over its own ball (occupancy, for contrast)."""
    domain = domain or U.domain
    k = U.k
    M = np.zeros((k, k))
    masks = [domain.species_ball_mask(j) for j in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                M[i, i] = float(U[i].values[masks[i]].max(initial=0.0))
            else:
                M[i, j] = float(np.abs(U[i].values[masks[j]]).max(initial=0.0))
    return M


def energy(U: StateField, species) -> float:
    """J(U) = sum_i ( 0.5 |grad u_i|^2 - int F_i(u_i) ), discretized."""
    h2 = U.domain.h ** 2
    total = 0.0
    for i, u in enumerate(U):
        total += 0.5 * norm(u, "H1_seminorm") ** 2
        total -= h2 * float(np.sum(potential_eval(species[i], u.values)))
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
    truncation profiles are given.
    """
    mask = U.domain.interior_mask
    count = 0
    for i, u in enumerate(U):
        v = u.values[mask]
        if baseline is not None:
            count += int(np.sum(v < -baseline[i].values[mask] - tol))
        if phi is not None:
            count += int(np.sum(v > phi[i].values[mask] + tol))
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
    rng = np.random.default_rng(seed)
    if delta == 0:
        return StateField.zeros(domain, k)
    noise = np.column_stack([rng.uniform(-1.0, 1.0, domain.n_interior)
                             for _ in range(k)])
    A, _ = domain.laplacian()
    smooth = factorize(A).solve(noise)
    W = StateField([ScalarField.from_interior(domain, smooth[:, i])
                    for i in range(k)])
    size = state_h1_norm(W)
    if size == 0.0:
        return StateField.zeros(domain, k)
    return W * (delta / size)


def uniqueness_probe(domain, species, model: ModelKind, kappa_final,
                     center: StateField, delta, trials, seed, *,
                     tol=1e-10, max_newton=200,
                     max_backtracks=30) -> UniquenessReport:
    """Multistart collapse test around a converged state.

    Re-solves from `trials` seeded perturbations of the center (H1 size
    delta, per-trial seed = seed + trial) and reports the largest pairwise
    H1 distance among the converged results.  The trials share one
    factorization of the Jacobian at the center (``system.solve_near``) and
    run on the Newton budget `max_newton` / `max_backtracks`.
    Non-convergent trials are counted and flagged, not fatal.
    """
    starts = [center + seeded_perturbation(domain, center.k, delta, seed + t)
              for t in range(trials)]
    outcomes = solve_near(center, starts, species, model, kappa_final, tol,
                          max_newton=max_newton, max_backtracks=max_backtracks)
    results = [u for u in outcomes if not isinstance(u, NonlinearSolveError)]
    max_dist = 0.0
    for a in range(len(results)):
        for b in range(a + 1, len(results)):
            max_dist = max(max_dist, h1_distance(results[a], results[b]))
    return UniquenessReport(trials=trials, max_pairwise_h1_distance=max_dist,
                            all_converged=len(results) == trials,
                            converged=len(results))
