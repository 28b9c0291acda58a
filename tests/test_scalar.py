import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

import seglv as sg
from seglv import (EigenSolveError, NonlinearSolveError, PhiUnavailable,
                   ScalarField, SpeciesParams, nd_margin, norm,
                   positive_branch_guess, principal_eigenvalue, solve_ball,
                   supersolution_phi)


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


@pytest.fixture(scope="module")
def chain3_domain():
    """Three unit balls joined by width-0.2 corridors at h = 1/32."""
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((3.0, 0.0), 1.0, 1),
             sg.BallSpec((6.0, 0.0), 1.0, 2)]
    corridors = [sg.CorridorSpec(0, 1, 0.2), sg.CorridorSpec(1, 2, 0.2)]
    return sg.build_domain(balls, corridors, (-1.25, -1.25, 7.25, 1.25), 1 / 32)


def test_eigenvalue_resolves_clustered_spectrum(chain3_domain):
    # the lowest three eigenvalues sit at 5.631, 5.650, 5.650
    lam, e = principal_eigenvalue(None, chain3_domain)
    A, _ = chain3_domain.laplacian()
    reference = float(eigsh(A.tocsc(), k=1, sigma=0)[0][0])
    assert lam == pytest.approx(reference, rel=1e-8)
    assert lam == pytest.approx(5.63141991579, rel=1e-10)
    assert e.values.min() >= 0.0


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


def test_ball_solve_budget_failure_carries_history(ball16):
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    with pytest.raises(NonlinearSolveError) as err:
        solve_ball(sp, region, ball16, guess, max_newton=1)
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


def test_nd_margin_logistic_baseline_positive(ball16):
    region = ball16.species_ball_mask(0)
    guess, lam1 = positive_branch_guess(ball16, region)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    u0 = solve_ball(sp, region, ball16, guess).solution
    report = nd_margin(u0, sp, region)
    assert report.margin > 0


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
