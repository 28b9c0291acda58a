"""Single-species Dirichlet problems, principal eigenvalues, and the
nondegeneracy margin of baseline states.

The scalar problem  -Lap u = f(u)  on a node subset R (a single ball, or
the whole connected domain for the global profile) is the competition
system of ``system`` with one species and a zero baseline, whose
coupling vanishes, and is solved by that system's damped Newton solve
(``system._newton`` with model None, which builds no baseline field and
no ``ModelKind``); it builds its one system on the fold of R along
the mirrors that leave the guess invariant: a ball of chain3 and its
global profile solve on a quarter of their nodes, and the result is
exactly mirror-invariant.  On a ball the positive branch is reliably
selected by seeding with half the principal Dirichlet eigenfield.  The
global profile is solved on two grids (``supersolution_phi``): from the
supersolution u = 1 on the 2h subgrid, then on h from that profile's
bilinear interpolant, which is safe because the positive solution is
unique; u = 1 on h is the fallback.  A positive result whose Rayleigh
quotient lies below lambda certifies by itself that lambda exceeds the
domain's lambda_1, so the whole-domain eigenvalue is computed only when
that certificate fails.

Both eigenproblems take the largest nu of diag(c) w = nu A w, A = -Lap on
the region, from Lanczos (ARPACK mode 2, M = A) on one sparse LU of A of
the same kind.  c = 1 gives the principal eigenvalue lambda_1 = 1 / nu,
resolving the clustered low spectrum of balls joined by thin corridors.
c = f'(u0) gives the nondegeneracy margin of a state u0,

    margin = 1 - nu_max,   nu_max = sup_w (w, f'(u0) w) / (w, A w),

the infimum of the Rayleigh quotient (|grad w|^2 - f'(u0) w^2) / |grad w|^2
over the region.

Both fold along the mirrors of the region that leave c invariant to
``system.MIRROR_RTOL`` (``_top_eigenpair``), when c is positive
somewhere.  This is exact: then nu > 0 and nu A - diag(c) is a singular
positive semidefinite Z-matrix, irreducible on each connected component,
so the top eigenvector is its Perron vector, positive and simple
(Perron-Frobenius, as in Krein-Rutman), and invariant under those
mirrors; where a mirror swaps two components, the top eigenspace holds
the invariant sum of their Perron vectors.  The fold is the Newton
solves' construction with one species (``GridDomain.fold`` with k = 1),
the same stored object a ball's Newton solve uses.  With its P,
A_f = R A P and orbit sizes w, and W = diag(w), W A_f = P^T A P is
symmetric, and the folded pencil diag(w c_f) v = nu (W A_f) v runs through
the same Lanczos on the LU of A_f, (W A_f)^-1 b = A_f^-1 (b / w); the
eigenvector is P v.  ``principal_eigenvalue`` on a given region (not
None, the whole interior, on which no ND margin follows) leaves its LU in
the domain's store, keyed by the fold, and the next eigen-solve on that
fold takes it out, so a ball's lambda_1 and the ND margin of its
baseline, which fold alike, factor A_f once, and no ball LU is held past
the margin.  A chain3 ball at h = 1/64 solves on 3276 of its 12849
nodes.  Where c is nowhere positive the top eigenvector oscillates from
node to node and need not be invariant, so the pencil does not fold.

The Newton solves' decision (``system._fold_choice``) chooses the
mirrors and words the DEBUG line that each eigen-solve logs.  The
residual checks of ``principal_eigenvalue`` and ``nd_margin`` run on the
region's A with the unfolded eigenvector.

Congruent balls and equal global profiles solve once (``_stored``).
``principal_eigenvalue``, ``solve_ball`` and ``nd_margin`` on a region
that is exactly one ball's mask store their result in the domain's store
(``GridDomain._result``), keyed by the function, the ball's translation
class (its mask cropped to its bounding box) and the inputs that the
computation reads: the species, the Newton tolerance and the bytes of
the input field on the region.  A grid translate of that ball calling
with equal inputs gets the stored region vectors back as fresh fields at
its own nodes, with one DEBUG line.  This is exact: a translate has the
same CSR Laplacian and the same C-order node numbering, so every
operation of the solve sees the same numbers in the same order.  The
whole interior, asked for as region None, is one more class, for these
three and for ``supersolution_phi``, which stores its profile there
keyed by the species and the Newton tolerance: species of equal
parameters share one solve.  The eigen tolerance keys nothing, since
ARPACK does not read it: the two eigen-solves store their pair with its
residual, and each call checks that residual against its own eig_tol,
so a stored pair is reused at any tolerance and never returned to a
caller whose tolerance it misses.  A raise is never stored.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .domain import GridDomain
from .errors import EigenSolveError, NonlinearSolveError, PhiUnavailable
from .newton import NEWTON_TOL, _l2, factorize
from .operators import ScalarField, StateField, norm
from .reaction import SpeciesParams, f_prime
from .system import _fold_choice, _newton

log = logging.getLogger(__name__)

# the default relative residual tolerance of every eigenpair
EIG_TOL = 1e-8


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


def _stored(stage, domain, region, inputs, compute):
    """compute(), done once per class of `region` on `domain`.

    Two kinds of region have a class: one ball's whole mask, shared with
    every grid translate of that ball on `domain` (``GridDomain.ball_class``),
    and the whole interior, asked for as region None.  A call of `stage`
    on such a region with inputs equal to a stored call's gets that call's
    result back; any other region computes.  compute() returns a tuple of
    numbers and ScalarFields, and the fields of `inputs` and of the result
    are held as their values on the region: the bytes of the former key
    the result in the domain's store (``GridDomain._result``), the latter
    are stored and rebuilt at `region` as fresh fields on reuse.  A raise
    stores nothing.
    """
    if region is None:
        region_class, mask = "interior", domain.interior_mask
    else:
        region_class = domain.ball_class(region)
        if region_class is None:
            return compute()
        mask = np.asarray(region, dtype=bool)
    key = (stage, region_class) + tuple(
        x.values[mask].tobytes() if isinstance(x, ScalarField) else x
        for x in inputs)
    computed = []

    def on_region():
        computed.append(compute())
        return tuple(x.values[mask] if isinstance(x, ScalarField) else x
                     for x in computed[0])

    stored = domain._result(key, on_region)
    if computed:
        return computed[0]
    log.debug("%s: reusing a stored result on %d nodes", stage,
              np.count_nonzero(mask))
    return tuple(ScalarField(domain, domain.insert(x, mask))
                 if isinstance(x, np.ndarray) else x for x in stored)


def solve_ball(sp_params: SpeciesParams, region, domain: GridDomain,
               guess: ScalarField, *, newton_tol=NEWTON_TOL) -> ScalarSolveReport:
    """Damped Newton for -Lap u = f(u) on `region` with zero exterior data.

    The one-species system of ``system`` with a zero baseline, solved on
    `region` as ``solve_system`` solves it: it converges when
    ||A u - f(u)||_L2 <= newton_tol * max(1, ||f(u)||_L2) and fails as
    that does, with a NonlinearSolveError whose last_iterate is a
    ScalarField.  The guess is restricted to the region.

    A converged state whose amplitude sits below 1000x the tolerance is the
    trivial branch up to solver resolution; it is snapped to exactly zero
    and flagged non-positive.
    """
    def compute():
        try:
            (u,), rnorm, iterations = _newton(domain, [sp_params], None, 0.0,
                                              StateField([guess]), newton_tol, region)
        except NonlinearSolveError as exc:
            exc.last_iterate = exc.last_iterate[0]
            raise
        if norm(u, "Linf") <= 1e3 * newton_tol:
            u, rnorm = ScalarField.zeros(domain), 0.0  # f(0) = 0
        inside = domain.laplacian(region)[1] >= 0
        return u, iterations, rnorm, bool(np.min(u.values[inside]) > 0.0)

    return ScalarSolveReport(*_stored("solve_ball", domain, region,
                                      (sp_params, newton_tol, guess), compute))


def _top_eigenpair(stage, c, domain, region, keep=False):
    """Largest nu of diag(c) w = nu A w, A = -Lap on `region`, its w, and
    the LU solves made.

    The pencil folds along every mirror of the region that leaves c
    invariant, when c is positive somewhere (see the module docstring).
    Lanczos (ARPACK) in the (W A_f)-inner product on an LU of A_f, started
    from the constant vector so that runs are reproducible: the one an
    earlier call with `keep` left in the domain's store, keyed by the
    fold, which this call takes out, or a new one, left there when `keep`
    is set.  Regions of fewer than 3 nodes after the fold, which
    ARPACK cannot take, use a dense eigensolve and factor nothing.  Logs
    the fold at DEBUG level as `stage`.
    """
    mask = domain.laplacian(region)[1] >= 0
    refusal = None if np.max(c) > 0.0 else "c nowhere positive"
    invariant, note = _fold_choice(domain, mask, c[None], lambda _: refusal,
                                   "nodes")
    log.debug("%s: %s", stage, note)
    fold = domain.fold(mask, 1, invariant)
    A, w, orbit = fold.A, fold.w, fold.orbit
    c = w * c[fold.nodes[mask]]
    M = sp.diags(w, dtype=float) @ A if invariant else A
    n = A.shape[0]
    if n < 3:
        nus, vs = scipy.linalg.eigh(np.diag(c), M.toarray())
        return float(nus[-1]), vs[orbit, -1], 0
    key = ("lu", fold)
    lu = domain._result(key, lambda: factorize(A))
    if not keep:
        del domain._results[key]
    solves = 0

    def solve(b):
        nonlocal solves
        solves += 1
        return lu.solve(b / w)

    try:
        nus, vs = eigsh(sp.diags(c), k=1, M=M,
                        Minv=LinearOperator(A.shape, matvec=solve, dtype=float),
                        which="LA", v0=np.ones(n))
    except ArpackNoConvergence as exc:
        raise EigenSolveError(f"generalized lanczos: {exc}") from exc
    return float(nus[0]), vs[orbit, 0], solves


def principal_eigenvalue(region, domain: GridDomain, *, eig_tol=EIG_TOL):
    """Smallest Dirichlet eigenvalue of -Lap on `region` and its eigenfield.

    lambda_1 = 1 / nu for the largest nu of w = nu A w (``_top_eigenpair``
    with c = 1); the eigenfield comes back L2-normalized and nonnegative.
    Raises EigenSolveError unless ||A e - lam e||_L2 <= eig_tol * lam.
    The pair is stored with its residual, which each call checks against
    its own eig_tol.
    """
    def compute():
        A, index = domain.laplacian(region)
        # a ball's LU waits for the ND margin of its baseline; no margin
        # follows on the whole interior
        nu, w, _ = _top_eigenpair("principal_eigenvalue", np.ones(A.shape[0]),
                                  domain, region, keep=region is not None)
        lam = 1.0 / nu
        # on disconnected regions a repeated eigenvalue can come back as a
        # sign-changing mix of per-component eigenfields, whose modulus is an
        # eigenfield too; elsewhere abs only fixes the sign and round-off dust
        v = np.abs(w)
        v /= domain.h * _l2(v)
        return (lam, ScalarField(domain, domain.insert(v, index >= 0)),
                domain.h * _l2(A @ v - lam * v))

    lam, eigfield, resid = _stored("principal_eigenvalue", domain, region, (),
                                   compute)
    if not resid <= eig_tol * lam:
        raise EigenSolveError(
            f"eigenpair residual {resid:.3e} exceeds {eig_tol:.1e} * lambda {lam:.6g}")
    return lam, eigfield


def nd_margin(u0: ScalarField, sp_params: SpeciesParams, region, *,
              eig_tol=EIG_TOL) -> NDReport:
    """Nondegeneracy margin 1 - nu of u0 on `region`, nu the largest
    eigenvalue of diag(f'(u0)) w = nu A w (``_top_eigenpair``).

    `rayleigh_iterations` counts the LU solves of the Lanczos run (0 on
    the dense path and for f'(u0) = 0, whose margin is 1).  Raises
    EigenSolveError unless ||f'(u0) w - nu A w|| <= eig_tol * ||A w||.
    The margin is stored with both norms, which each call checks against
    its own eig_tol.
    """
    def compute():
        A, index = u0.domain.laplacian(region)
        c = f_prime(sp_params, u0.values)[index >= 0]
        if not np.any(c):
            return 1.0, 0, 0.0, 0.0
        nu, w, solves = _top_eigenpair("nd_margin", c, u0.domain, region)
        Aw = A @ w
        return 1.0 - nu, solves, _l2(c * w - nu * Aw), _l2(Aw)

    margin, solves, resid, scale = _stored("nd_margin", u0.domain, region,
                                           (sp_params, u0), compute)
    if not resid <= eig_tol * scale:
        raise EigenSolveError(
            f"nd pencil residual {resid:.3e} exceeds {eig_tol:.1e} * ||A w||")
    return NDReport(margin, solves)


def positive_branch_guess(domain: GridDomain, region=None, *, eig_tol=EIG_TOL):
    """Half the max-normalized principal eigenfield, plus the eigenvalue.

    The standard seed for selecting the positive logistic branch.
    """
    lam1, eigfield = principal_eigenvalue(region, domain, eig_tol=eig_tol)
    peak = norm(eigfield, "Linf")
    return eigfield * (0.5 / peak), lam1


def _prolong(coarse: ScalarField, domain: GridDomain) -> ScalarField:
    """Bilinear interpolant on `domain` of a field on its 2h subgrid.

    Even-even nodes copy the coarse value; edge midpoints average their 2
    coarse neighbours and cell centres their 4.
    """
    U = coarse.values
    fine = np.empty((2 * U.shape[0] - 1, 2 * U.shape[1] - 1))
    fine[::2, ::2] = U
    fine[::2, 1::2] = 0.5 * (U[:, :-1] + U[:, 1:])
    fine[1::2] = 0.5 * (fine[:-1:2] + fine[2::2])
    return ScalarField(domain, fine[:domain.ny, :domain.nx])


def _subgrid_start(sp_params, domain, newton_tol):
    """Start for the h solve of the global profile, from the 2h subgrid.

    The subgrid holds the interior nodes of `domain` at even indices, on
    spacing 2h; for a rasterized domain it is the rasterization at 2h.  A
    False row or column pads each axis whose node count is even, so the
    mask keeps clear of the border and every fine node has its coarse
    neighbours (``_prolong``).  Newton solves -Lap u = f(u) there from
    u = 1.  Returns (the interpolant of that profile on `domain`, or None,
    the subgrid's interior node count, its Newton iterations or None):
    None when the subgrid has no interior node, its solve fails, or its
    profile is not positive.  The subgrid, its Laplacian and its profile
    are dropped on return, before the h solve factors.
    """
    mask = np.zeros((domain.ny // 2 + 1, domain.nx // 2 + 1), dtype=bool)
    even = domain.interior_mask[::2, ::2]
    mask[:even.shape[0], :even.shape[1]] = even
    sub = GridDomain.from_mask(mask, 2.0 * domain.h, domain.origin)
    if sub.n_interior == 0:
        return None, 0, None
    one = ScalarField(sub, mask.astype(float))
    try:
        report = solve_ball(sp_params, mask, sub, one, newton_tol=newton_tol)
    except NonlinearSolveError:
        return None, sub.n_interior, None
    start = _prolong(report.solution, domain) if report.positive else None
    return start, sub.n_interior, report.newton_iterations


def _h_solve(sp_params, domain, start, newton_tol, levels, name):
    """Global profile solve on `domain` from `start`, logged as `name` in
    `levels`.  Returns (report, failure): report is None when the solve
    raises, and failure is the NonlinearSolveError when it raises or
    converges to a non-positive state (None otherwise)."""
    try:
        report = solve_ball(sp_params, domain.interior_mask, domain, start,
                            newton_tol=newton_tol)
    except NonlinearSolveError as exc:
        levels.append(f"h solve from {name}, raised")
        return None, exc
    levels.append(f"h solve from {name}, Newton iterations "
                  f"{report.newton_iterations}")
    if report.positive:
        return report, None
    return report, NonlinearSolveError(
        "global profile solve converged to a non-positive state",
        last_iterate=report.solution, residual_history=[report.final_residual])


def supersolution_phi(sp_params: SpeciesParams, domain: GridDomain, *,
                      newton_tol=NEWTON_TOL, eig_tol=EIG_TOL) -> ScalarField:
    """Positive profile of -Lap u = f(u) on the whole interior.

    Caps every later system solution from above (truncation barrier).
    Raises PhiUnavailable when lambda <= lambda_1 of the domain, where only
    the trivial state exists, and NonlinearSolveError when the solve fails
    or ends non-positive above that threshold.

    Newton first runs on the 2h subgrid (``_subgrid_start``) from u = 1:
    f(1) = 0, so it is a discrete supersolution, and the iteration descends
    to the subgrid's positive profile.  The h solve starts from that
    profile's bilinear interpolant.  f(s)/s = lambda (1 - s^(p-1))
    strictly decreases on s > 0, so the positive solution is unique
    (Brezis & Oswald, Nonlinear Anal. 10, 1986) and any start that Newton
    carries to a positive state gives the same profile; Newton from an
    interpolated coarse solution takes a number of steps that does not
    grow with refinement (Allgower, Boehmer, Potra & Rheinboldt, SIAM J.
    Numer. Anal. 23, 1986).  When the subgrid yields no start or the h
    solve from its interpolant raises, the h solve starts from u = 1; when
    that solve converges to a non-positive state, lambda_1 decides first
    and only lambda > lambda_1 goes on from u = 1.  One DEBUG line per solve
    gives the subgrid's node count and Newton iterations, and each h
    solve's start and Newton iterations or "raised".

    A positive result u certifies lambda > lambda_1 without an eigen-solve
    when its Rayleigh quotient u.A u / u.u, which bounds lambda_1 from
    above, lies below lambda: for an exact solution it is
    lambda - lambda sum |u|^(p+1) / u.u.  A state within the Newton
    tolerance of zero, which can pass for positive just below the
    threshold, fails that test.  Only a result that is not certified
    computes lambda_1, and at most once.

    The profile is unique, so it is solved once per domain, species and
    Newton tolerance: the result is stored on the domain (``_stored``, the
    region class of the whole interior) and an equal call returns a fresh
    field of the stored values without a solve.  eig_tol only gates
    lambda_1's residual check, so it is not part of the key; a stored
    profile that lambda_1 took part in runs that check again at the
    calling eig_tol on the stored lambda_1 (``principal_eigenvalue``),
    without an eigen-solve.  A raise stores nothing.
    """
    solved = []

    def compute():
        solved.append(True)
        return _global_profile(sp_params, domain, newton_tol, eig_tol)

    phi, lam1_used = _stored("supersolution_phi", domain, None,
                             (sp_params, newton_tol), compute)
    if lam1_used and not solved:
        principal_eigenvalue(None, domain, eig_tol=eig_tol)
    return phi


def _global_profile(sp_params, domain, newton_tol, eig_tol):
    """The two-level solve of ``supersolution_phi``: the profile and
    whether lambda_1 was computed."""
    start, sub_nodes, sub_iterations = _subgrid_start(sp_params, domain,
                                                      newton_tol)
    levels = [f"2h subgrid of {sub_nodes} interior nodes, Newton iterations "
              f"{sub_iterations}"]
    lam1 = report = failure = None
    if start is not None:
        report, failure = _h_solve(sp_params, domain, start, newton_tol, levels,
                                   "the subgrid profile")
        start = None  # dropped before the u = 1 solve factors
        if report is not None and failure is not None:  # not positive
            lam1, _ = principal_eigenvalue(None, domain, eig_tol=eig_tol)
    if report is None or (failure is not None and sp_params.lam > lam1):
        one = ScalarField(domain, domain.interior_mask.astype(float))
        report, failure = _h_solve(sp_params, domain, one, newton_tol, levels,
                                   "u = 1")
    log.debug("global profile: %s", "; ".join(levels))
    if failure is None:
        A, _ = domain.laplacian()
        u = report.solution.values[domain.interior_mask]
        if np.sum(u * (A @ u)) < sp_params.lam * np.sum(u * u):
            return report.solution, lam1 is not None
    if lam1 is None:
        lam1, _ = principal_eigenvalue(None, domain, eig_tol=eig_tol)
    if sp_params.lam <= lam1:
        raise PhiUnavailable(
            f"lambda {sp_params.lam:.6g} <= lambda_1 {lam1:.6g}; "
            "no positive global profile") from failure
    if failure is not None:
        raise failure
    return report.solution, True
