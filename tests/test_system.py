import numpy as np
import pytest

import seglv as sg
from seglv import newton
from seglv import (ModelKind, NonlinearSolveError, ScalarField, SpeciesParams,
                   StateField, norm, residual, solve_near, solve_system)
from seglv.system import _System


@pytest.fixture(scope="module")
def dumbbell2_caps(dumbbell2_setup):
    setup = dumbbell2_setup
    return StateField([sg.supersolution_phi(p, setup["domain"])
                       for p in setup["species"]])


def model_of(kind, baseline, caps=None):
    if kind == "lotka_volterra":
        return ModelKind.lotka_volterra()
    return ModelKind(kind, baseline, caps)


def barrier_reference(A, u, u0, species, kappa):
    """The barrier residual as its three coupling terms, species by species."""
    total_u, total_u0 = sum(u), sum(u0)
    res = []
    for i, p in enumerate(species):
        su, su0 = total_u - u[i], total_u0 - u0[i]
        coupling = kappa * (u[i] * (su + su0) + u0[i] * su)
        res.append(A @ u[i] - sg.f_eval(p, u[i]) + coupling)
    return np.concatenate(res)


def positive_part_reference(A, u, u0, species, kappa):
    """The positive-part residual with its clip, species by species."""
    P = [np.maximum(u_i + u0_i, 0.0) for u_i, u0_i in zip(u, u0)]
    res = []
    for i, p in enumerate(species):
        coupling = kappa * P[i] * (sum(P) - P[i])
        res.append(A @ u[i] - sg.f_eval(p, P[i] - u0[i]) + coupling)
    return np.concatenate(res)


def test_model_kind_validation(dumbbell2_setup):
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelKind("predator_prey")
    with pytest.raises(ValueError, match="requires a baseline"):
        ModelKind("barrier")
    ModelKind.lotka_volterra()
    ModelKind.barrier(dumbbell2_setup["baseline"])


def test_overlapping_baselines_rejected(dumbbell2_setup):
    U0 = dumbbell2_setup["baseline"]
    overlapping = StateField([U0[0], U0[0] + U0[1]])
    for kind in ("barrier", "positive_part"):
        with pytest.raises(ValueError, match="overlap"):
            ModelKind(kind, overlapping)
    # the plain model's baseline is a warm-start hint, not part of its formula
    ModelKind.lotka_volterra(overlapping)


@pytest.mark.parametrize("kind, reference", [
    ("barrier", barrier_reference),
    ("positive_part", positive_part_reference),
    ("lotka_volterra", positive_part_reference),
])
def test_residual_matches_reference_formulas(dumbbell2_setup, kind, reference):
    setup = dumbbell2_setup
    dom, species = setup["domain"], setup["species"]
    model = model_of(kind, setup["baseline"])
    system = _System(dom, species, model, 4096.0)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2 * dom.n_interior)
    A, _ = dom.laplacian()
    u0 = np.split(system.stack(setup["baseline"]), 2)
    if kind == "lotka_volterra":
        u0 = [np.zeros_like(u0_i) for u0_i in u0]
    expect = reference(A, np.split(x, 2), u0, species, 4096.0)
    got = system.residual(x)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("truncated", [False, True], ids=["plain", "caps"])
@pytest.mark.parametrize("kind", ["lotka_volterra", "barrier", "positive_part"])
def test_jacobian_matches_finite_differences(dumbbell2_setup, dumbbell2_caps,
                                             kind, truncated):
    setup = dumbbell2_setup
    dom, species = setup["domain"], setup["species"]
    model = model_of(kind, setup["baseline"], dumbbell2_caps if truncated else None)
    system = _System(dom, species, model, 64.0)
    rng = np.random.default_rng(5)
    # a random state at least 1e-3 away from the clip kink (u + u^0 = 0)
    # and, where the reaction argument moves with the state, from the cap
    # kink (reaction argument = cap) at every node
    clip = kind != "barrier"
    u0 = system.stack(setup["baseline"]) if kind != "lotka_volterra" else 0.0
    cap = system.stack(dumbbell2_caps)
    x = rng.uniform(-1.0, 1.0, 2 * dom.n_interior)
    for _ in range(10):
        v = x + u0
        s = np.maximum(v, 0.0) - u0 if clip else x
        near = truncated & (v > 0.0 if clip else True) & (np.abs(s - cap) < 1e-3)
        if clip:
            near |= np.abs(v) < 1e-3
        if not near.any():
            break
        x[near] += 5e-3
    assert not near.any()
    direction = rng.uniform(-1.0, 1.0, x.size)
    eps = 1e-6
    fd = (system.residual(x + eps * direction)
          - system.residual(x - eps * direction)) / (2 * eps)
    jv = system.jacobian(x) @ direction
    assert np.linalg.norm(jv - fd) <= 1e-6 * np.linalg.norm(jv)


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
