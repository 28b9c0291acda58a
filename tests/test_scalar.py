import logging
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

import seglv as sg
from seglv import (EigenSolveError, NonlinearSolveError, PhiUnavailable,
                   ScalarField, SpeciesParams, nd_margin, norm,
                   positive_branch_guess, principal_eigenvalue, solve_ball,
                   supersolution_phi)
from seglv import newton
from seglv import scalar as scalar_module
from seglv import system as system_module
from conftest import (count_calls, dumbbell2_domain, folded_order, rebuilt,
                      record_orders, singular_after, stored_keys)


def test_single_node_eigenvalue(tiny3):
    lam, e = principal_eigenvalue(None, tiny3)
    assert lam == pytest.approx(4.0)
    assert norm(e, "L2") == pytest.approx(1.0)


def test_square_eigenvalue_matches_separable():
    dom = sg.unit_square_domain(64)
    lam, e = principal_eigenvalue(None, dom)
    h = dom.h
    exact_discrete = 2 * (2 - 2 * np.cos(np.pi * h)) / h ** 2
    assert lam == pytest.approx(exact_discrete, rel=1e-7)
    assert lam == pytest.approx(2 * np.pi ** 2, rel=5e-3)
    assert e.values.min() >= 0.0


def test_disk_eigenvalue_against_dense_oracle(ball16):
    # brute-force dense eigensolve on the coarse disk
    A, _ = ball16.laplacian()
    dense = np.linalg.eigvalsh(A.toarray())
    lam, _ = principal_eigenvalue(None, ball16)
    assert lam == pytest.approx(dense[0], rel=1e-7)


def test_eigenvalue_domain_monotonicity(ball16):
    lam_full, _ = principal_eigenvalue(None, ball16)
    X, Y = ball16.coords()
    inner_region = ball16.interior_mask & (X ** 2 + Y ** 2 < 0.6 ** 2)
    lam_small, _ = principal_eigenvalue(inner_region, ball16)
    assert lam_small > lam_full


def eigen_lines(caplog):
    """The DEBUG lines of the eigen-solves' fold decisions."""
    return [r.getMessage() for r in caplog.records if r.name == "seglv.scalar"
            and r.getMessage().startswith(("principal_eigenvalue: ",
                                           "nd_margin: "))
            and "reusing" not in r.getMessage()]


@pytest.fixture(scope="module")
def chain3_domain():
    """Three unit balls joined by width-0.2 corridors at h = 1/32."""
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((3.0, 0.0), 1.0, 1),
             sg.BallSpec((6.0, 0.0), 1.0, 2)]
    corridors = [sg.CorridorSpec(0, 1, 0.2), sg.CorridorSpec(1, 2, 0.2)]
    return sg.build_domain(balls, corridors, (-1.25, -1.25, 7.25, 1.25), 1 / 32)


def test_eigenvalue_resolves_clustered_spectrum(chain3_domain, caplog):
    # the lowest three eigenvalues sit at 5.631, 5.650, 5.650
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        lam, e = principal_eigenvalue(None, chain3_domain)
    assert eigen_lines(caplog) == [
        "principal_eigenvalue: folded along y = 0, x = 3: 2599 of 10077 nodes"]
    A, _ = chain3_domain.laplacian()
    reference = float(eigsh(A.tocsc(), k=1, sigma=0)[0][0])
    assert lam == pytest.approx(reference, rel=1e-8)
    assert lam == pytest.approx(5.63141991579, rel=1e-10)
    assert e.values.min() >= 0.0


def test_dumbbell_eigenvalue_against_dense_oracle(monkeypatch, caplog):
    # two unit balls joined by a width-0.5 corridor at h = 1/8: lambda_2 =
    # 5.3674 sits 6e-4 above lambda_1 = 5.3668 and is odd under the swap
    # mirror x = 1.5, so only lambda_1 lies in the folded subspace
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((3.0, 0.0), 1.0, 1)]
    domain = sg.build_domain(balls, [sg.CorridorSpec(0, 1, 0.5)],
                             (-1.25, -1.25, 4.25, 1.25), 1 / 8)
    A, _ = domain.laplacian()
    dense, vectors = scipy.linalg.eigh(A.toarray())
    assert dense[1] - dense[0] < 1e-3
    image = domain.mirrors()[(1, 44)].image
    np.testing.assert_allclose(vectors[image, 1], -vectors[:, 1], atol=1e-8)
    orders = record_orders(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        lam, e = principal_eigenvalue(None, domain)
    q = folded_order(domain)
    assert eigen_lines(caplog) == [
        f"principal_eigenvalue: folded along y = 0, x = 1.5: {q} of "
        f"{domain.n_interior} nodes"]
    assert orders == [q]
    assert lam == pytest.approx(dense[0], rel=1e-12)
    v = np.abs(vectors[:, 0])
    v /= domain.h * np.sqrt(np.sum(v * v))
    np.testing.assert_allclose(e.values[domain.interior_mask], v,
                               atol=1e-8 * v.max())


def test_eigenfield_spans_disconnected_domain():
    # two identical disks: lambda_1 is repeated, one eigenfield per disk
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((3.0, 0.0), 1.0, 1)]
    dom = sg.build_domain(balls, [], (-1.4, -1.4, 4.4, 1.4), 1 / 8)
    lam, e = principal_eigenvalue(None, dom)
    lam0, _ = principal_eigenvalue(dom.species_ball_mask(0), dom)
    assert lam == pytest.approx(lam0, rel=1e-10)
    assert e.values[dom.interior_mask].min() > 0
    resid = sg.apply_laplacian(e).values - lam * e.values
    resid = ScalarField(dom, np.where(dom.interior_mask, resid, 0.0))
    assert norm(resid, "L2") <= 1e-8 * lam


def test_eigen_residual_failure_raises(ball16):
    # the residual check cannot reach 1e-16 relative in floating point
    with pytest.raises(EigenSolveError, match="residual"):
        principal_eigenvalue(None, ball16, eig_tol=1e-16)


def test_eigenpair_residual_contract(ball16):
    eig_tol = 1e-8
    lam, e = principal_eigenvalue(None, ball16, eig_tol=eig_tol)
    resid = sg.apply_laplacian(e).values - lam * e.values
    resid = ScalarField(ball16, np.where(ball16.interior_mask, resid, 0.0))
    assert norm(resid, "L2") <= eig_tol * lam
    assert norm(e, "L2") == pytest.approx(1.0)
    assert e.values.min() >= 0.0  # sign-constant


def test_ball_solve_positive_branch(ball16):
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    report = solve_ball(sp, region, ball16, guess)
    u = report.solution.values[region]
    assert report.positive
    assert 0.0 < u.min() and u.max() < 1.0
    # residual contract holds exactly as reported
    resid = sg.apply_laplacian(report.solution).values - sg.f_eval(sp, report.solution.values)
    resid = ScalarField(ball16, np.where(region, resid, 0.0))
    rhs = ScalarField(ball16, np.where(region, sg.f_eval(sp, report.solution.values), 0.0))
    assert norm(resid, "L2") <= 1e-10 * max(1.0, norm(rhs, "L2"))
    # stencil vs sparse-matvec round-off bounds the recomputation gap
    assert norm(resid, "L2") == pytest.approx(report.final_residual, abs=1e-12)


def test_ball_solve_budget_failure_carries_history(ball16, monkeypatch):
    ball16 = rebuilt(ball16)
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    monkeypatch.setattr(newton, "MAX_NEWTON", 1)
    with pytest.raises(NonlinearSolveError) as err:
        solve_ball(sp, region, ball16, guess)
    assert err.value.residual_history
    last = err.value.last_iterate
    assert last.domain is ball16
    assert last.values.shape == (ball16.ny, ball16.nx)
    assert not last.values[~region].any()


def test_ball_solve_below_threshold_trivial(ball16):
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=0.5 * lam1, p=2.0)
    report = solve_ball(sp, region, ball16, guess)
    assert not report.positive
    assert norm(report.solution, "Linf") == 0.0


def test_ball_solve_symmetry(ball16):
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    u = solve_ball(sp, region, ball16, guess).solution.values
    assert np.allclose(u, u[:, ::-1], atol=1e-10)
    assert np.allclose(u, u[::-1, :], atol=1e-10)


@pytest.fixture(scope="module")
def dumbbell2_ball(dumbbell2):
    """Ball 0 of the dumbbell, its positive-branch guess and species."""
    region = dumbbell2.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(dumbbell2, region)
    return region, guess, SpeciesParams(lam=2 * lam1, p=2.0)


def test_ball_solve_meets_scalar_residual_target(dumbbell2, dumbbell2_ball):
    # the reference: the scalar problem's own residual and target on the ball
    region, guess, sp = dumbbell2_ball
    tol = 1e-10
    report = solve_ball(sp, region, dumbbell2, guess, newton_tol=tol)
    A, _ = dumbbell2.laplacian(region)
    u = report.solution.values[region]
    f = sg.f_eval(sp, u)
    resid = dumbbell2.h * float(np.linalg.norm(A @ u - f))
    assert report.positive
    assert resid <= tol * max(1.0, dumbbell2.h * float(np.linalg.norm(f)))
    assert resid == pytest.approx(report.final_residual, abs=1e-14)


def rel_h1(u, ref):
    """Relative H1 distance of u to ref, read on ref's domain."""
    return norm(ScalarField(ref.domain, u.values) - ref, "H1") / norm(ref, "H1")


def test_ball_solve_forced_refactor_matches_held_lu(dumbbell2, dumbbell2_ball,
                                                    monkeypatch):
    region, guess, sp = dumbbell2_ball
    held = solve_ball(sp, region, dumbbell2, guess)
    monkeypatch.setattr(system_module, "KRYLOV_REFACTOR", 0)
    domain = rebuilt(dumbbell2)
    linearizations = count_calls(monkeypatch, system_module._System,
                                 "linearize")
    factorizations = count_calls(monkeypatch, newton, "splu")
    refactored = solve_ball(sp, region, domain, ScalarField(domain, guess.values))
    assert len(linearizations) >= 2
    assert len(factorizations) == len(linearizations)
    assert rel_h1(refactored.solution, held.solution) <= 1e-12


@pytest.mark.parametrize("misses, converges", [({2}, True), ({1}, False)],
                         ids=["held_miss", "fresh_miss_singular_lu"])
def test_ball_solve_gmres_miss_steps_on_assembled_lu(dumbbell2, dumbbell2_ball,
                                                     monkeypatch, misses,
                                                     converges):
    # call 1 solves on a fresh LU, call 2 on the held one; a miss on either
    # takes its step on the LU of the assembled Jacobian, for one species a
    # fresh LU of the same block, and fails only when that LU is singular
    region, guess, sp = dumbbell2_ball
    direct = solve_ball(sp, region, dumbbell2, guess)
    calls = 0
    right_gmres = system_module.right_gmres

    def missing_gmres(apply, b, precondition):
        nonlocal calls
        calls += 1
        if calls in misses:
            return np.zeros_like(b), 3, False
        return right_gmres(apply, b, precondition)

    monkeypatch.setattr(system_module, "right_gmres", missing_gmres)
    domain = rebuilt(dumbbell2)
    guess = ScalarField(domain, guess.values)
    if not converges:
        orders = singular_after(monkeypatch, 1)
        with pytest.raises(NonlinearSolveError,
                           match="singular linearization: Factor is exactly "
                           "singular") as err:
            solve_ball(sp, region, domain, guess)
        assert calls == 1
        # the ball folds along both its mirrors
        assert orders == [folded_order(domain, region)] * 2
        assert err.value.residual_history
        assert err.value.last_iterate is not None
        return
    factorizations = count_calls(monkeypatch, newton, "splu")
    report = solve_ball(sp, region, domain, guess)
    assert len(factorizations) == 2
    assert rel_h1(report.solution, direct.solution) <= 1e-12


def test_chain3_baseline_holds_its_lu(chain3_domain, monkeypatch):
    chain3_domain = rebuilt(chain3_domain)
    region = chain3_domain.species_ball_mask(1)
    guess, _ = positive_branch_guess(chain3_domain, region)
    linearizations = count_calls(monkeypatch, system_module._System,
                                 "linearize")
    factorizations = count_calls(monkeypatch, newton, "splu")
    report = solve_ball(SpeciesParams(lam=11.3394, p=2.0), region,
                        chain3_domain, guess)
    assert report.positive
    # one linearization per Newton step; later steps keep the first LU
    assert 1 <= len(factorizations) < len(linearizations) <= report.newton_iterations


def test_ball_solve_releases_held_lu(dumbbell2, dumbbell2_ball, monkeypatch):
    region, guess, sp = dumbbell2_ball
    domain = rebuilt(dumbbell2)
    guess = ScalarField(domain, guess.values)
    helds, factors_at_insert = [], []
    init = system_module._System.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        helds.append(self)

    insert = sg.GridDomain.insert

    def recording_insert(self, vec, region=None):
        factors_at_insert.append([held._blocks for held in helds])
        return insert(self, vec, region)

    monkeypatch.setattr(system_module._System, "__init__", recording_init)
    monkeypatch.setattr(sg.GridDomain, "insert", recording_insert)
    factorizations = count_calls(monkeypatch, newton, "splu")
    solve_ball(sp, region, domain, guess)
    # the ball's one system, on its fold, holds the LU
    assert len(helds) == 1 and factorizations
    # the result field is built after the LU is released
    assert factors_at_insert == [[None]]


def _ball_stages(domain, ball, sp):
    """The runner's per-ball stages on ball `ball`: guess and lambda_1,
    baseline report, ND report."""
    region = domain.species_ball_mask(ball)
    guess, lam1 = positive_branch_guess(domain, region)
    report = solve_ball(sp, region, domain, guess)
    return guess, lam1, report, nd_margin(report.solution, sp, region)


def test_congruent_ball_reuses_the_first_balls_results(monkeypatch, caplog):
    # the dumbbell's balls are grid translates: the second takes every stage
    # from the first, bit for bit what a domain solving it alone gives
    sp = SpeciesParams(lam=12.0, p=2.0)
    shared, alone = dumbbell2_domain(), dumbbell2_domain()
    _ball_stages(shared, 0, sp)
    factorizations = count_calls(monkeypatch, newton, "splu")
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        guess, lam1, report, nd = _ball_stages(shared, 1, sp)
    assert factorizations == []
    nodes = np.count_nonzero(shared.ball_mask(1))
    assert [r.getMessage() for r in caplog.records if r.name == "seglv.scalar"] == [
        f"{stage}: reusing a stored result on {nodes} nodes"
        for stage in ("principal_eigenvalue", "solve_ball", "nd_margin")]
    own_guess, own_lam1, own_report, own_nd = _ball_stages(alone, 1, sp)
    assert factorizations
    np.testing.assert_array_equal(guess.values, own_guess.values)
    np.testing.assert_array_equal(report.solution.values, own_report.solution.values)
    assert report.solution.domain is shared
    assert (lam1, report.newton_iterations, report.final_residual, report.positive,
            nd.margin, nd.rayleigh_iterations) == (
        own_lam1, own_report.newton_iterations, own_report.final_residual,
        own_report.positive, own_nd.margin, own_nd.rayleigh_iterations)


def test_balls_of_different_radii_share_nothing(monkeypatch):
    domain = dumbbell2_domain(radii=(1.0, 0.9))
    sp = SpeciesParams(lam=12.0, p=2.0)
    orders = record_orders(monkeypatch)
    eigen_solves = count_calls(monkeypatch, scalar_module, "_top_eigenpair")
    for ball in range(2):
        made, run = len(orders), len(eigen_solves)
        _ball_stages(domain, ball, sp)
        # an eigen-solve each for lambda_1 and the ND margin, on one LU of
        # A_f, and one or more LUs for the solve, all folded along the
        # ball's mirrors
        region = domain.ball_mask(ball)
        assert len(eigen_solves) - run == 2
        assert len(orders) - made >= 2
        assert set(orders[made:]) == {folded_order(domain, region)}


def test_eigen_solves_share_the_folds_lu(ball16, monkeypatch):
    # lambda_1 factors A_f of the ball's fold and leaves the LU there; the
    # ND margin takes it, to the bits of a margin that factors its own
    domain, alone = rebuilt(ball16), rebuilt(ball16)
    region = domain.species_ball_mask(0)
    sp = SpeciesParams(lam=12.0, p=2.0)
    orders = record_orders(monkeypatch)
    guess, _ = positive_branch_guess(domain, region)
    assert orders == [folded_order(domain, region)]
    assert len(stored_keys(domain, "lu")) == 1
    u0 = solve_ball(sp, region, domain, guess).solution
    made = len(orders)
    report = nd_margin(u0, sp, region)
    assert len(orders) == made and report.rayleigh_iterations > 0
    # the margin took the LU: none is held past it
    assert stored_keys(domain, "lu") == []
    own = nd_margin(ScalarField(alone, u0.values), sp, region)
    assert len(orders) == made + 1
    assert (report.margin, report.rayleigh_iterations) == (
        own.margin, own.rayleigh_iterations)


def test_failed_nd_margin_is_not_stored(ball16, monkeypatch):
    # no margin that fails its tolerance is returned, but the pencil's pair
    # is stored with its residual: ARPACK's pair is a deterministic function
    # of the key, so solving it again could not meet a tolerance that the
    # stored residual misses, and the second call raises without a solve
    domain = rebuilt(ball16)
    region = domain.species_ball_mask(0)
    sp = SpeciesParams(lam=12.0, p=2.0)
    u0 = solve_ball(sp, region, domain, positive_branch_guess(domain, region)[0])
    eigen_solves = count_calls(monkeypatch, scalar_module, "_top_eigenpair")
    for _ in range(2):
        with pytest.raises(EigenSolveError, match="residual"):
            nd_margin(u0.solution, sp, region, eig_tol=1e-18)
    assert len(eigen_solves) == 1


@pytest.mark.parametrize("stage", ["principal_eigenvalue", "nd_margin"])
def test_stored_eigenpair_is_checked_at_each_eig_tol(ball16, monkeypatch, stage):
    # eig_tol gates only the residual check, so it keys nothing: a call at
    # another tolerance takes the stored pair and checks its residual there
    domain = rebuilt(ball16)
    region = domain.species_ball_mask(0)
    if stage == "nd_margin":
        sp = SpeciesParams(lam=12.0, p=2.0)
        guess, _ = positive_branch_guess(domain, region)
        u0 = solve_ball(sp, region, domain, guess).solution

        def call(eig_tol):
            report = nd_margin(u0, sp, region, eig_tol=eig_tol)
            return np.float64(report.margin).tobytes(), report.rayleigh_iterations
    else:
        def call(eig_tol):
            lam, eigfield = principal_eigenvalue(region, domain, eig_tol=eig_tol)
            return np.float64(lam).tobytes(), eigfield.values.tobytes()
    eigen_solves = count_calls(monkeypatch, scalar_module, "_top_eigenpair")
    first = call(1e-8)
    assert call(1e-6) == first
    with pytest.raises(EigenSolveError, match="residual"):
        call(1e-18)
    assert len(eigen_solves) == 1 and len(stored_keys(domain, stage)) == 1


def test_phi_is_solved_once_per_domain(monkeypatch, caplog):
    # an equal call takes the stored profile, at any eigen tolerance when
    # the profile certified itself; each level's solve factors once
    domain = dumbbell2_domain()
    sp = SpeciesParams(lam=12.0, p=2.0)
    factorizations = count_calls(monkeypatch, newton, "splu")
    first = supersolution_phi(sp, domain)
    assert len(factorizations) == 2
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        second = supersolution_phi(SpeciesParams(lam=12.0, p=2.0), domain,
                                   eig_tol=1e-6)
    assert len(factorizations) == 2
    assert [r.getMessage() for r in caplog.records if r.name == "seglv.scalar"] == [
        f"supersolution_phi: reusing a stored result on {domain.n_interior} nodes"]
    assert second is not first and second.domain is domain
    np.testing.assert_array_equal(second.values, first.values)
    # a caller's edit of a returned field does not reach the store
    second.values.setflags(write=True)
    second.values[domain.interior_mask] = 0.0
    np.testing.assert_array_equal(supersolution_phi(sp, domain).values,
                                  first.values)
    # another lambda or Newton tolerance solves again
    supersolution_phi(SpeciesParams(lam=12.5, p=2.0), domain)
    supersolution_phi(sp, domain, newton_tol=1e-9)
    assert len(factorizations) == 6
    # a raise is not stored: the repeat solves and raises again
    below = SpeciesParams(lam=1.0, p=2.0)
    for _ in range(2):
        made = len(factorizations)
        with pytest.raises(PhiUnavailable):
            supersolution_phi(below, domain)
        assert len(factorizations) > made


def test_isolation_predicate(ball16):
    # re-running from any small perturbation of the baseline reconverges to it
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    u0 = solve_ball(sp, region, ball16, guess).solution
    for trial in range(3):
        w = sg.seeded_perturbation(ball16, 1, 0.05, 100 + trial)[0]
        pert = ScalarField(ball16, np.where(region, (u0 + w).values, 0.0))
        again = solve_ball(sp, region, ball16, pert).solution
        dist = norm(ScalarField(ball16, again.values - u0.values), "H1")
        assert dist <= 1e-7


def test_nd_margin_zero_state_identity(ball16):
    region = ball16.species_ball_mask(0)
    lam1, _ = principal_eigenvalue(region, ball16)
    zero = ScalarField.zeros(ball16)
    report = nd_margin(zero, SpeciesParams(lam=0.5 * lam1, p=2.0), region)
    assert report.margin == pytest.approx(0.5, abs=1e-6)
    # degenerate boundary case lambda = lambda_1
    report_edge = nd_margin(zero, SpeciesParams(lam=lam1, p=2.0), region)
    assert report_edge.margin == pytest.approx(0.0, abs=1e-6)
    # above threshold the zero state is degenerate: margin goes negative
    report_neg = nd_margin(zero, SpeciesParams(lam=2 * lam1, p=2.0), region)
    assert report_neg.margin < 0
    # f' = 0 everywhere: no Lanczos run can start from a zero operator
    assert nd_margin(zero, SpeciesParams(lam=0.0, p=2.0), region).margin == 1.0


def test_nd_margin_logistic_baseline_positive(ball16):
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    u0 = solve_ball(sp, region, ball16, guess).solution
    report = nd_margin(u0, sp, region)
    assert report.margin > 0


def test_nd_margin_matches_dense_pencil(ball16):
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    u0 = solve_ball(sp, region, ball16, guess).solution
    A, _ = ball16.laplacian(region)
    c = sg.f_prime(sp, u0.values)[region]
    nu_max = scipy.linalg.eigh(np.diag(c), A.toarray(), eigvals_only=True)[-1]
    report = nd_margin(u0, sp, region)
    assert report.margin == pytest.approx(1.0 - nu_max, abs=1e-10)
    assert report.rayleigh_iterations > 0


def test_nd_margin_folds_along_the_mirror_u0_keeps(ball16, monkeypatch, caplog):
    # a baseline tilted in x keeps y = 0 but breaks x = 0: the pencil folds
    # along y = 0 alone and matches the dense one
    domain = rebuilt(ball16)
    region = domain.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(domain, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    u0 = solve_ball(sp, region, domain, guess).solution
    X, _ = domain.coords()
    tilted = ScalarField(domain, u0.values * (1.0 + 0.1 * X))
    A, _ = domain.laplacian(region)
    c = sg.f_prime(sp, tilted.values)[region]
    nu_max = scipy.linalg.eigh(np.diag(c), A.toarray(), eigvals_only=True)[-1]
    orders = record_orders(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        report = nd_margin(tilted, sp, region)
    q = folded_order(domain, region, axes=(0,))
    [line] = eigen_lines(caplog)
    assert line.startswith(f"nd_margin: folded along y = 0: {q} of "
                           f"{np.count_nonzero(region)} nodes; not along "
                           "x = 0, relative asymmetry ")
    assert orders == [q]
    assert report.margin == pytest.approx(1.0 - nu_max, abs=1e-10)


def test_nd_margin_of_nowhere_positive_c_not_folded(monkeypatch, caplog):
    # f'(2) < 0 on every node of a 6 x 8 rectangle: the top eigenvector of
    # the pencil oscillates from node to node, odd under both mirrors, which
    # run midway between rows and between columns, so the pencil must not
    # fold
    mask = np.zeros((8, 10), dtype=bool)
    mask[1:7, 1:9] = True
    domain = sg.GridDomain.from_mask(mask, 0.1)
    sp = SpeciesParams(lam=10.0, p=2.0)
    u0 = ScalarField(domain, 2.0 * mask)
    A, _ = domain.laplacian()
    c = sg.f_prime(sp, u0.values)[mask]
    nus, vectors = scipy.linalg.eigh(np.diag(c), A.toarray())
    for mirror in domain.mirrors().values():
        np.testing.assert_allclose(vectors[mirror.image, -1], -vectors[:, -1],
                                   atol=1e-8)
    orders = record_orders(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        report = nd_margin(u0, sp, None)
    assert eigen_lines(caplog) == [
        "nd_margin: not folded; largest relative asymmetry 0 under y = 0.35, "
        "x = 0.45; not along y = 0.35, c nowhere positive; not along x = 0.45, "
        "c nowhere positive"]
    assert orders == [domain.n_interior]
    assert report.margin == pytest.approx(1.0 - nus[-1], rel=1e-10)


def test_eigen_solve_off_every_mirror_not_folded(ball16, caplog):
    X, Y = ball16.coords()
    region = ball16.interior_mask & (X > -0.5)
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        principal_eigenvalue(region, ball16)
    assert eigen_lines(caplog) == [
        "principal_eigenvalue: folded along y = 0: "
        f"{folded_order(ball16, region)} of {np.count_nonzero(region)} nodes"]
    region &= Y < 0.5
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        principal_eigenvalue(region, ball16)
    assert eigen_lines(caplog) == [
        "principal_eigenvalue: not folded; the region has no lattice mirror"]


def test_nd_margin_failures_raise(ball16, monkeypatch):
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    u0 = solve_ball(sp, region, ball16, guess).solution
    # the pencil residual cannot reach 1e-18 relative in floating point
    with pytest.raises(EigenSolveError, match="residual"):
        nd_margin(u0, sp, region, eig_tol=1e-18)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr("seglv.scalar.eigsh", no_convergence)
    domain = rebuilt(ball16)
    with pytest.raises(EigenSolveError, match="lanczos"):
        nd_margin(ScalarField(domain, u0.values), sp, region)


def test_nd_margin_dense_path_on_single_node(tiny3):
    # A = [4] on the one node: the zero state's margin is 1 - lambda / 4
    zero = ScalarField.zeros(tiny3)
    report = nd_margin(zero, SpeciesParams(lam=2.0, p=2.0), None)
    assert report.margin == pytest.approx(0.5, rel=1e-14)
    assert report.rayleigh_iterations == 0
    assert nd_margin(zero, SpeciesParams(lam=6.0, p=2.0), None).margin == pytest.approx(-0.5)


def test_single_node_eigensolves_factor_nothing(tiny3, monkeypatch):
    # the dense path takes no LU, so none is made for it
    factorizations = count_calls(monkeypatch, newton, "splu")
    principal_eigenvalue(None, tiny3)
    nd_margin(ScalarField.zeros(tiny3), SpeciesParams(lam=2.0, p=2.0), None)
    assert not factorizations


def test_supersolution_on_disconnected_domain_decouples():
    h = 1 / 8
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((3.0, 0.0), 1.0, 1)]
    dom = sg.build_domain(balls, [], (-1.4, -1.4, 4.4, 1.4), h)
    region0 = dom.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(dom, region0)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    phi = supersolution_phi(sp, dom)
    ball_solution = solve_ball(sp, region0, dom, guess).solution
    assert np.allclose(phi.values[region0], ball_solution.values[region0], atol=1e-8)


def test_supersolution_positive_and_caps_solutions(dumbbell2_setup):
    dom = dumbbell2_setup["domain"]
    sp = dumbbell2_setup["species"][0]
    phi = supersolution_phi(sp, dom)
    assert phi.values[dom.interior_mask].min() > 0
    # baseline states stay below the global profile
    for u in dumbbell2_setup["baseline"]:
        assert np.all(u.values <= phi.values + 1e-9)


def test_supersolution_just_above_clustered_threshold(chain3_domain):
    # lambda = 5.64 lies above lambda_1 = 5.6314 of the chain
    phi = supersolution_phi(SpeciesParams(lam=5.64, p=2.0), chain3_domain)
    assert phi.values[chain3_domain.interior_mask].min() > 0
    assert norm(phi, "Linf") == pytest.approx(2.1e-3, rel=0.05)


def test_supersolution_at_runner_eigen_tolerance(chain3_domain):
    sp = SpeciesParams(lam=11.3394, p=2.0)
    phi = supersolution_phi(sp, chain3_domain, eig_tol=1e-8)
    mask = chain3_domain.interior_mask
    assert phi.values[mask].min() > 0
    resid = sg.apply_laplacian(phi).values - sg.f_eval(sp, phi.values)
    resid = ScalarField(chain3_domain, np.where(mask, resid, 0.0))
    rhs = ScalarField(chain3_domain, np.where(mask, sg.f_eval(sp, phi.values), 0.0))
    assert norm(resid, "L2") <= 1e-10 * max(1.0, norm(rhs, "L2"))


def test_supersolution_unavailable_below_threshold(ball16):
    lam1, _ = principal_eigenvalue(None, ball16)
    with pytest.raises(PhiUnavailable):
        supersolution_phi(SpeciesParams(lam=0.9 * lam1, p=2.0), ball16)


def test_positive_phi_makes_no_eigen_solve(chain3_domain, monkeypatch):
    chain3_domain = rebuilt(chain3_domain)
    eigen_solves = count_calls(monkeypatch, scalar_module, "principal_eigenvalue")
    phi = supersolution_phi(SpeciesParams(lam=11.3394, p=2.0), chain3_domain)
    assert phi.values[chain3_domain.interior_mask].min() > 0
    assert eigen_solves == []


def test_phi_just_below_clustered_threshold_unavailable(chain3_domain,
                                                        monkeypatch):
    # lambda = 5.6314 lies 2e-5 below lambda_1 = 5.63142 of the chain: Newton
    # ends on a positive state of amplitude 6e-7 within its tolerance, which
    # the Rayleigh quotient does not certify, so lambda_1 decides
    eigen_solves = count_calls(monkeypatch, scalar_module, "principal_eigenvalue")
    with pytest.raises(PhiUnavailable, match="lambda 5.6314 <= lambda_1 5.63142"):
        supersolution_phi(SpeciesParams(lam=5.6314, p=2.0), chain3_domain)
    assert len(eigen_solves) == 1


def test_uncertified_positive_phi_above_threshold_returned(chain3_domain,
                                                           monkeypatch):
    # the same uncertified state is the profile when lambda_1 lies below
    # lambda; a fresh domain keeps this profile off the shared one
    chain3_domain = rebuilt(chain3_domain)
    checked = []

    def lambda_1(region, domain, eig_tol):
        # a lambda_1 whose residual passes the default tolerance only
        checked.append(eig_tol)
        if eig_tol < 1e-12:
            raise EigenSolveError("eigenpair residual exceeds the tolerance")
        return 5.63, None

    monkeypatch.setattr(scalar_module, "principal_eigenvalue", lambda_1)
    sp = SpeciesParams(lam=5.6314, p=2.0)
    phi = supersolution_phi(sp, chain3_domain)
    assert phi.values[chain3_domain.interior_mask].min() > 0
    assert checked == [scalar_module.EIG_TOL]
    # the stored profile is reused at another tolerance without a solve, but
    # its lambda_1 is checked there, and fails at one it does not meet
    orders = record_orders(monkeypatch)
    again = supersolution_phi(sp, chain3_domain, eig_tol=1e-6)
    np.testing.assert_array_equal(again.values, phi.values)
    with pytest.raises(EigenSolveError, match="residual"):
        supersolution_phi(sp, chain3_domain, eig_tol=1e-18)
    assert orders == [] and checked == [scalar_module.EIG_TOL, 1e-6, 1e-18]


def test_phi_newton_failure_above_threshold_raises_solve_error(ball16,
                                                               monkeypatch):
    # the interior of a one-ball domain is that ball's region
    ball16 = rebuilt(ball16)
    lam1, _ = principal_eigenvalue(None, ball16)
    eigen_solves = count_calls(monkeypatch, scalar_module, "principal_eigenvalue")
    monkeypatch.setattr(newton, "MAX_NEWTON", 1)
    with pytest.raises(NonlinearSolveError, match="budget exhausted") as err:
        supersolution_phi(SpeciesParams(lam=2 * lam1, p=2.0), ball16)
    assert not isinstance(err.value, PhiUnavailable)
    assert len(eigen_solves) == 1


class _CountingLU:
    """SuperLU stand-in that counts its solves in `counts`."""

    def __init__(self, lu, counts):
        self.lu, self.counts = lu, counts

    def solve(self, b):
        self.counts["solves"] += 1
        return self.lu.solve(b)

    def __getattr__(self, name):
        return getattr(self.lu, name)


def test_phi_work_count(chain3_domain, monkeypatch):
    # one LU held for each level's whole solve, the 2h subgrid's and then
    # h's, and every LU solve is a GMRES iteration: none is spent on norms,
    # a first Krylov vector or lambda_1
    chain3_domain = rebuilt(chain3_domain)
    lus, counts = [], {"iterations": 0}
    splu, right_gmres = newton.splu, system_module.right_gmres

    def counting_splu(A, *args, **kwargs):
        lus.append((A.shape[0], {"solves": 0}))
        return _CountingLU(splu(A, *args, **kwargs), lus[-1][1])

    def counting_gmres(apply, b, precondition):
        x, iterations, converged = right_gmres(apply, b, precondition)
        counts["iterations"] += iterations
        return x, iterations, converged

    monkeypatch.setattr(newton, "splu", counting_splu)
    monkeypatch.setattr(system_module, "right_gmres", counting_gmres)
    supersolution_phi(SpeciesParams(lam=11.3394, p=2.0), chain3_domain)
    # the subgrid's 2481 nodes and h's 10077, each folded along x = 3 and
    # y = 0
    assert [order for order, _ in lus] == [660, folded_order(chain3_domain)]
    assert sum(lu["solves"] for _, lu in lus) == counts["iterations"]
    # from the subgrid profile, against 48 from u = 1
    assert lus[1][1]["solves"] <= 12


def _plain_phi(sp, domain):
    """The global profile by one Newton solve from u = 1 on h."""
    one = ScalarField(domain, domain.interior_mask.astype(float))
    report = solve_ball(sp, domain.interior_mask, domain, one)
    assert report.positive
    return report.solution


def _phi_case(name, request):
    if name == "chain3":
        return SpeciesParams(lam=11.3394, p=2.0), request.getfixturevalue("chain3_domain")
    setup = request.getfixturevalue("dumbbell2_setup")
    return setup["species"][0], setup["domain"]


@pytest.mark.parametrize("name", ["chain3", "dumbbell2"])
def test_phi_from_subgrid_matches_plain_solve(name, request):
    sp, dom = _phi_case(name, request)
    plain = _plain_phi(sp, dom)
    phi = supersolution_phi(sp, dom)
    assert norm(phi - plain, "H1") <= 1e-12 * norm(plain, "H1")


def _forced_solve_ball(failing_call=None, kind=None):
    """solve_ball whose call number `failing_call` raises (kind "raise")
    or reports a non-positive state (kind "non-positive"); records the
    domain of every call."""
    domains = []

    def forced(sp, region, domain, guess, **kwargs):
        domains.append(domain)
        report = solve_ball(sp, region, domain, guess, **kwargs)
        if len(domains) - 1 != failing_call:
            return report
        if kind == "raise":
            raise NonlinearSolveError("forced", last_iterate=report.solution)
        report.positive = False
        return report

    return forced, domains


@pytest.mark.parametrize("failing_call, kind", [
    (0, "raise"), (0, "non-positive"), (1, "raise"), (1, "non-positive")],
    ids=["subgrid_raises", "subgrid_non_positive", "h_from_interpolant_raises",
         "h_from_interpolant_non_positive"])
def test_phi_falls_back_to_plain_start(dumbbell2_setup, monkeypatch,
                                       failing_call, kind):
    sp, dom = dumbbell2_setup["species"][0], rebuilt(dumbbell2_setup["domain"])
    plain = _plain_phi(sp, dom)
    forced, domains = _forced_solve_ball(failing_call, kind)
    monkeypatch.setattr(scalar_module, "solve_ball", forced)
    eigen_solves = count_calls(monkeypatch, scalar_module, "principal_eigenvalue")
    phi = supersolution_phi(sp, dom)
    # the subgrid, then h from u = 1 (after the interpolant's h solve)
    assert domains[0].h == 2 * dom.h
    assert domains[1:] == [dom] * (failing_call + 1)
    np.testing.assert_array_equal(phi.values, plain.values)
    # a non-positive state from the interpolant asks lambda_1 first, once
    assert len(eigen_solves) == (failing_call == 1 and kind == "non-positive")


@pytest.mark.parametrize("n, sub_nodes", [(8, 9), (9, 16)])
def test_phi_subgrid_on_unit_square(n, sub_nodes, monkeypatch):
    # an odd node count per axis (n = 8) needs no padding, an even one does
    dom = sg.unit_square_domain(n)
    sp = SpeciesParams(lam=40.0, p=2.0)
    plain = _plain_phi(sp, dom)
    forced, domains = _forced_solve_ball()
    monkeypatch.setattr(scalar_module, "solve_ball", forced)
    phi = supersolution_phi(sp, dom)
    sub, fine = domains
    assert fine is dom
    assert sub.n_interior == sub_nodes and sub.h == 2 * dom.h
    assert norm(phi - plain, "H1") <= 1e-12 * norm(plain, "H1")


def test_phi_logs_both_levels(dumbbell2_setup, monkeypatch, caplog):
    # every h solve is named, the discarded one from the interpolant too
    sp, dom = dumbbell2_setup["species"][0], dumbbell2_setup["domain"]
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        supersolution_phi(sp, rebuilt(dom))
        forced, _ = _forced_solve_ball(1, "raise")
        monkeypatch.setattr(scalar_module, "solve_ball", forced)
        supersolution_phi(sp, rebuilt(dom))
    direct, retried = [r.getMessage() for r in caplog.records
                       if r.name == "seglv.scalar"]
    subgrid = r"global profile: 2h subgrid of \d+ interior nodes, Newton iterations \d+"
    assert re.fullmatch(
        subgrid + r"; h solve from the subgrid profile, Newton iterations \d+",
        direct)
    assert re.fullmatch(
        subgrid + r"; h solve from the subgrid profile, raised; h solve from "
        r"u = 1, Newton iterations \d+", retried)


def test_phi_below_fine_threshold_skips_plain_start(chain3_domain, monkeypatch):
    # lambda = 5.60 lies between the subgrid's lambda_1 = 5.5475 and the
    # fine grid's 5.6314: the subgrid profile is positive, the h solve from
    # its interpolant converges to the trivial state, and lambda_1 decides
    # before a u = 1 solve would reach the same state
    solves = count_calls(monkeypatch, scalar_module, "solve_ball")
    with pytest.raises(PhiUnavailable, match="lambda 5.6 <= lambda_1 5.63142"):
        supersolution_phi(SpeciesParams(lam=5.60, p=2.0), chain3_domain)
    assert len(solves) == 2


def test_phi_retries_plain_start_when_interpolant_solve_raises(caplog):
    # at lambda = 30 lambda_1 on the 9 x 9 square the h solve from the
    # subgrid's interpolant raises and the u = 1 solve converges
    dom = sg.unit_square_domain(9)
    lam1, _ = principal_eigenvalue(None, dom)
    sp = SpeciesParams(lam=30 * lam1, p=2.0)
    plain = _plain_phi(sp, dom)
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        phi = supersolution_phi(sp, dom)
    [line] = [r.getMessage() for r in caplog.records if r.name == "seglv.scalar"]
    assert line.endswith("h solve from the subgrid profile, raised; "
                         "h solve from u = 1, Newton iterations 5")
    np.testing.assert_array_equal(phi.values, plain.values)


def test_phi_with_empty_subgrid(caplog):
    # one interior node at h = 1/2, where -Lap u = f(u) reads
    # 16 u = lambda u (1 - u) and lambda_1 = 16; the 2h subgrid is empty
    dom = sg.unit_square_domain(2)
    with caplog.at_level(logging.DEBUG, logger="seglv.scalar"):
        phi = supersolution_phi(SpeciesParams(lam=20.0, p=2.0), dom)
        with pytest.raises(PhiUnavailable, match="lambda 12 <= lambda_1 16;"):
            supersolution_phi(SpeciesParams(lam=12.0, p=2.0), dom)
    assert phi.values[dom.interior_mask] == pytest.approx([1 - 16 / 20],
                                                          rel=1e-14)
    # the second call's lambda_1 then folds its one node onto itself
    lines = [r.getMessage() for r in caplog.records if r.name == "seglv.scalar"]
    assert len(lines) == 3
    for line in lines[:2]:
        assert line.startswith("global profile: 2h subgrid of 0 interior "
                               "nodes, Newton iterations None; h solve from "
                               "u = 1, ")
    assert lines[2] == ("principal_eigenvalue: folded along y = 0.5, x = 0.5: "
                        "1 of 1 nodes")


def _bad_region(domain, kind):
    if kind == "shape":
        return np.ones((3, 3), dtype=bool)
    if kind == "non-interior":
        region = domain.interior_mask.copy()
        region[0, 0] = True
        return region
    return np.zeros_like(domain.interior_mask)


@pytest.mark.parametrize("kind, message", [
    ("shape", "shape does not match"),
    ("non-interior", "non-interior nodes"),
    ("empty", "region is empty")])
def test_invalid_region_rejected(ball16, kind, message):
    region = _bad_region(ball16, kind)
    sp = SpeciesParams(lam=12.0, p=2.0)
    one = ScalarField(ball16, ball16.interior_mask.astype(float))
    calls = [lambda: ball16.laplacian(region),
             lambda: principal_eigenvalue(region, ball16),
             lambda: solve_ball(sp, region, ball16, one),
             lambda: nd_margin(one, sp, region)]
    for call in calls:
        with pytest.raises(sg.DomainError, match=message):
            call()
