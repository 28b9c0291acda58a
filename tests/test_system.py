import numpy as np
import pytest

import seglv as sg
from seglv import newton
from seglv import (ModelKind, NonlinearSolveError, ScalarField, SpeciesParams,
                   StateField, norm, residual, solve_near, solve_system)


def test_model_kind_validation(dumbbell2_setup):
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelKind("predator_prey")
    with pytest.raises(ValueError, match="requires a baseline"):
        ModelKind("barrier")
    ModelKind.lotka_volterra()
    ModelKind.barrier(dumbbell2_setup["baseline"])


def test_lv_residual_decouples_at_kappa_zero(dumbbell2_setup):
    setup = dumbbell2_setup
    U = setup["baseline"]
    species = setup["species"]
    r = residual(U, species, ModelKind.lotka_volterra(), 0.0)
    for i in range(2):
        u = U[i]
        expect = sg.apply_laplacian(u).values - sg.f_eval(species[i], np.maximum(u.values, 0.0))
        expect = np.where(setup["domain"].interior_mask, expect, 0.0)
        assert np.allclose(r[i].values, expect, atol=1e-12)


def test_lv_with_baseline_hint_keeps_plain_residual(dumbbell2_setup):
    # a baseline attached to the plain model is a warm-start hint only
    setup = dumbbell2_setup
    U = setup["baseline"]
    plain = residual(U, setup["species"], ModelKind.lotka_volterra(), 32.0)
    hinted = residual(U, setup["species"], ModelKind.lotka_volterra(U), 32.0)
    for i in range(2):
        assert np.array_equal(plain[i].values, hinted[i].values)


def test_barrier_residual_vanishes_at_baseline_disconnected():
    h = 1 / 8
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((3.0, 0.0), 1.0, 1)]
    dom = sg.build_domain(balls, [], (-1.4, -1.4, 4.4, 1.4), h)
    base, species = [], []
    for i in range(2):
        region = dom.species_ball_mask(i)
        guess, lam1 = sg.positive_branch_guess(dom, region)
        sp = SpeciesParams(lam=2 * lam1, p=2.0)
        species.append(sp)
        base.append(sg.solve_ball(sp, region, dom, guess).solution)
    U0 = StateField(base)
    r = residual(U0, species, ModelKind.barrier(U0), 1e4)
    # baselines solve each ball problem; cross terms vanish on disjoint balls
    assert max(norm(c, "L2") for c in r) <= 1e-9


def test_positive_part_residual_at_negated_baseline(dumbbell2_setup):
    # u_i = -u_i^0 makes every positive part vanish; oddness folds the
    # residual onto the negated baseline residual, which is tiny on the
    # balls (the zero-extension still carries its flux spike on the collar)
    setup = dumbbell2_setup
    dom = setup["domain"]
    U0 = setup["baseline"]
    species = setup["species"]
    U = StateField([-1.0 * u for u in U0])
    r = residual(U, species, ModelKind.positive_part(U0), 1e3)
    for i in range(2):
        expect = -(sg.apply_laplacian(U0[i]).values
                   - sg.f_eval(species[i], U0[i].values))
        expect = np.where(dom.interior_mask, expect, 0.0)
        assert np.allclose(r[i].values, expect, atol=1e-11)
        ball = dom.species_ball_mask(i)
        assert np.abs(r[i].values[ball]).max() <= 1e-9


def test_k1_system_matches_scalar_positive_branch(ball16):
    guess, lam1 = sg.positive_branch_guess(ball16, None)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    scalar = sg.solve_ball(sp, ball16.interior_mask, ball16, guess).solution
    for kind in ("lotka_volterra", "barrier", "positive_part"):
        model = (ModelKind.lotka_volterra() if kind == "lotka_volterra"
                 else ModelKind(kind, StateField([ScalarField.zeros(ball16)])))
        solved, _ = solve_system(StateField([guess]), [sp], model, 7.0, 1e-10)
        assert np.allclose(solved[0].values, scalar.values, atol=1e-8), kind


def test_kappa_zero_system_decouples(dumbbell2_setup):
    setup = dumbbell2_setup
    dom = setup["domain"]
    species = setup["species"]
    guess, _ = sg.positive_branch_guess(dom, None)
    U, _ = solve_system(StateField([guess, guess]), species,
                        ModelKind.lotka_volterra(), 0.0, 1e-10)
    single = sg.solve_ball(species[0], dom.interior_mask, dom, guess).solution
    for i in range(2):
        assert np.allclose(U[i].values, single.values, atol=1e-8)


def test_symmetric_pair_mirror_solution(dumbbell2_setup):
    setup = dumbbell2_setup
    U0 = setup["baseline"]
    model = ModelKind.barrier(U0)
    U, _ = solve_system(U0, setup["species"], model, 256.0, 1e-10)
    # domain and parameters are mirror symmetric about the corridor midpoint
    assert np.allclose(U[0].values, U[1].values[:, ::-1], atol=1e-9)


def test_converged_lv_solutions_nonnegative(dumbbell2_setup):
    setup = dumbbell2_setup
    U, _ = solve_system(setup["baseline"], setup["species"],
                        ModelKind.lotka_volterra(), 64.0, 1e-10)
    for u in U:
        assert u.values.min() >= -1e-12


def test_positive_part_lower_bound(dumbbell2_setup):
    setup = dumbbell2_setup
    U0 = setup["baseline"]
    U, _ = solve_system(U0, setup["species"], ModelKind.positive_part(U0),
                        512.0, 1e-10)
    for i in range(2):
        assert np.all(U[i].values >= -U0[i].values - 1e-9)


def test_residual_contract_reevaluable(dumbbell2_setup):
    setup = dumbbell2_setup
    U0 = setup["baseline"]
    model = ModelKind.barrier(U0)
    tol = 1e-10
    U, _ = solve_system(U0, setup["species"], model, 1024.0, tol)
    r = residual(U, setup["species"], model, 1024.0)
    res_norm = np.sqrt(sum(norm(c, "L2") ** 2 for c in r))
    rhs = [ScalarField(setup["domain"],
                       sg.apply_laplacian(U[i]).values - r[i].values)
           for i in range(2)]
    rhs_norm = np.sqrt(sum(norm(c, "L2") ** 2 for c in rhs))
    assert res_norm <= tol * max(1.0, rhs_norm)


def test_solver_failure_carries_history(dumbbell2_setup):
    setup = dumbbell2_setup
    with pytest.raises(NonlinearSolveError) as err:
        solve_system(setup["baseline"], setup["species"],
                     ModelKind.barrier(setup["baseline"]), 1e4, 1e-10,
                     max_newton=1, max_backtracks=0)
    assert err.value.residual_history
    assert err.value.last_iterate is not None


def test_polish_reuses_last_newton_factor(dumbbell2_setup, monkeypatch):
    setup = dumbbell2_setup
    U0 = setup["baseline"]
    factorizations = 0
    splu = newton.splu

    def counting_splu(*args, **kwargs):
        nonlocal factorizations
        factorizations += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(newton, "splu", counting_splu)
    _, iterations = solve_system(U0, setup["species"], ModelKind.barrier(U0),
                                 1024.0, 1e-10)
    assert 0 < factorizations < iterations


def test_solve_near_matches_solve_system(dumbbell2_setup):
    setup = dumbbell2_setup
    model = ModelKind.barrier(setup["baseline"])
    center, _ = solve_system(setup["baseline"], setup["species"], model,
                             64.0, 1e-10)
    starts = [center + sg.seeded_perturbation(setup["domain"], 2, 0.02, s)
              for s in (1, 2, 3)]
    results = solve_near(center, starts, setup["species"], model, 64.0, 1e-10)
    assert len(results) == len(starts)
    for start, near in zip(starts, results):
        direct, _ = solve_system(start, setup["species"], model, 64.0, 1e-10)
        rel = sg.h1_distance(near, direct) / sg.state_h1_norm(direct)
        assert rel <= 1e-12


def test_chord_fallback_refactors_and_converges(dumbbell2_setup, monkeypatch):
    # the LU at the baseline is a poor chord factor for the kappa = 1024
    # barrier solve: a chord step stalls and the kernel factors again
    setup = dumbbell2_setup
    U0 = setup["baseline"]
    model = ModelKind.barrier(U0)
    direct, _ = solve_system(U0, setup["species"], model, 1024.0, 1e-10)
    factorizations = 0
    splu = newton.splu

    def counting_splu(*args, **kwargs):
        nonlocal factorizations
        factorizations += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(newton, "splu", counting_splu)
    [near] = solve_near(U0, [U0], setup["species"], model, 1024.0, 1e-10)
    assert factorizations >= 2
    assert sg.h1_distance(near, direct) / sg.state_h1_norm(direct) <= 1e-12


def test_solve_near_singular_center_raises(dumbbell2_setup, monkeypatch):
    setup = dumbbell2_setup
    U0 = setup["baseline"]

    def singular_splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(newton, "splu", singular_splu)
    with pytest.raises(NonlinearSolveError, match="singular linearization"):
        solve_near(U0, [U0], setup["species"], ModelKind.barrier(U0), 64.0)
