import logging

import numpy as np
import pytest

import seglv as sg
from seglv import newton
from seglv import system as system_module
from seglv import (ModelKind, NonlinearSolveError, ScalarField, SpeciesParams,
                   StateField, norm, residual, solve_near, solve_system)
from seglv.system import _newton, _System

from conftest import count_calls, folded_order, singular_after


@pytest.fixture(scope="module")
def dumbbell2_caps(dumbbell2_setup):
    setup = dumbbell2_setup
    return StateField([sg.supersolution_phi(p, setup["domain"])
                       for p in setup["species"]])


@pytest.fixture(scope="module")
def warm_solve(dumbbell2_setup, dumbbell2_trace):
    """The barrier solve at kappa = 16384 from the trace's kappa = 8192
    state: a warm solve of two Newton steps, folded along y = 0 and along
    the dumbbell's x = 2 mirror, which swaps its species.  Its unknowns are
    species 0's on the nodes at or below y = 0, one block."""
    [start] = [step.state for step in dumbbell2_trace.steps if step.kappa == 8192.0]
    model = ModelKind.barrier(dumbbell2_setup["baseline"])
    return start, dumbbell2_setup["species"], model, 16384.0


@pytest.fixture(scope="module")
def tiny3_setup(tiny3):
    """Three species on the single-node grid; only species 0 has a baseline."""
    def state(values):
        return StateField([ScalarField.from_interior(tiny3, np.array([v]))
                           for v in values])

    return {"domain": tiny3,
            "species": [SpeciesParams(lam=lam, p=2.0) for lam in (3.0, 4.0, 5.0)],
            "baseline": state((0.5, 0.0, 0.0)), "caps": state((0.9, 0.7, 0.6))}


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
    U0 = dumbbell2_setup["baseline"]
    ModelKind.barrier(U0)
    elsewhere = StateField.zeros(sg.unit_square_domain(4), 2)
    for model, message in ((ModelKind.barrier(elsewhere), "baseline"),
                           (ModelKind.barrier(U0, elsewhere), "truncation caps")):
        with pytest.raises(sg.DomainMismatchError, match=message):
            solve_system(U0, dumbbell2_setup["species"], model, 4.0)


def test_foreign_model_fields_raise_before_the_species_count(dumbbell2_setup):
    # the baselines first, then the caps, then a guess of the wrong size
    U0, species = dumbbell2_setup["baseline"], dumbbell2_setup["species"]
    elsewhere = StateField.zeros(sg.unit_square_domain(4), 2)
    one = StateField([U0[0]])
    for model, error, message in (
            (ModelKind.barrier(elsewhere, elsewhere), sg.DomainMismatchError,
             "baseline lives"),
            (ModelKind.barrier(U0, elsewhere), sg.DomainMismatchError,
             "truncation caps"),
            (ModelKind.barrier(U0), ValueError, "species list")):
        with pytest.raises(error, match=message):
            solve_system(one, species, model, 4.0)


@pytest.mark.parametrize("entry", ["residual", "solve_system"])
@pytest.mark.parametrize("which", ["baseline", "caps"])
@pytest.mark.parametrize("count", [1, 3])
def test_model_fields_of_the_wrong_count_raise(dumbbell2_setup, entry, which,
                                               count):
    # baselines or caps of another count than the species raise the count
    # error of a guess, from either entry, not a broadcast or numpy error
    U0, species = dumbbell2_setup["baseline"], dumbbell2_setup["species"]
    domain = U0.domain
    other = StateField([U0[0]] + [ScalarField.zeros(domain)] * (count - 1))
    model = (ModelKind.barrier(other) if which == "baseline"
             else ModelKind.barrier(U0, caps=other))
    call = residual if entry == "residual" else solve_system
    with pytest.raises(ValueError, match="species list and state size disagree"):
        call(U0, species, model, 10.0)


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
    got, _, _ = system.residual(x)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def check_jacobian(system, caps, kind, truncated):
    """The assembled Jacobian of `system` at a random state matches central
    differences of its residual, and ``apply`` matches the assembled one."""
    rng = np.random.default_rng(5)
    # a random state at least 1e-3 away from the clip kink (u + u^0 = 0)
    # and, where the reaction argument moves with the state, from the cap
    # kink (reaction argument = cap) at every node; the node-wise values
    # of a folded system are gathered from its unknowns
    clip = kind != "barrier"
    u0 = system.u0
    cap = np.stack([c.values[system.fold.nodes] for c in caps])
    unknown = system._nodewise(np.arange(system.size))
    x = rng.uniform(-1.0, 1.0, system.size)
    for _ in range(10):
        v = system._nodewise(x) + u0
        s = np.maximum(v, 0.0) - u0 if clip else v - u0
        near = truncated & (v > 0.0 if clip else True) & (np.abs(s - cap) < 1e-3)
        if clip:
            near |= np.abs(v) < 1e-3
        if not near.any():
            break
        x[np.unique(unknown[near])] += 5e-3
    assert not near.any()
    direction = rng.uniform(-1.0, 1.0, x.size)
    eps = 1e-6
    fd = (system.residual(x + eps * direction)[0]
          - system.residual(x - eps * direction)[0]) / (2 * eps)
    jv = system.jacobian(x) @ direction
    assert np.linalg.norm(jv - fd) <= 1e-6 * np.linalg.norm(jv)
    # the Newton steps' matrix-free product is the assembled Jacobian's
    applied = system.linearize(x).apply(direction)
    assert np.linalg.norm(applied - jv) <= 1e-12 * np.linalg.norm(jv)


jacobian_cases = [
    pytest.mark.parametrize("truncated", [False, True], ids=["plain", "caps"]),
    pytest.mark.parametrize("kind", ["lotka_volterra", "barrier", "positive_part"])]


@jacobian_cases[0]
@jacobian_cases[1]
def test_jacobian_matches_finite_differences(dumbbell2_setup, dumbbell2_caps,
                                             kind, truncated):
    setup = dumbbell2_setup
    model = model_of(kind, setup["baseline"], dumbbell2_caps if truncated else None)
    system = _System(setup["domain"], setup["species"], model, 64.0)
    check_jacobian(system, dumbbell2_caps, kind, truncated)


@jacobian_cases[0]
@jacobian_cases[1]
@pytest.mark.parametrize("axes", [(0,), (0, 1)], ids=["y", "swap"])
def test_folded_jacobian_matches_finite_differences(dumbbell2_setup,
                                                    dumbbell2_caps, axes, kind,
                                                    truncated):
    # folded along y = 0, and also along x = 2, which swaps the species: the
    # swap fold's Jacobian R J G carries the couplings D[0, 1] moved to the
    # mirror image of their node, summed onto the diagonal on x = 2
    setup = dumbbell2_setup
    domain = setup["domain"]
    model = model_of(kind, setup["baseline"], dumbbell2_caps if truncated else None)
    folded = _System(domain, setup["species"], model, 64.0, None,
                     [m for m in domain.mirrors() if m[0] in axes])
    n = folded_order(domain, axes=(0,))
    assert folded.size == n * (2 if axes == (0,) else 1)
    check_jacobian(folded, dumbbell2_caps, kind, truncated)


def trace_jacobian_case(dumbbell2_setup, dumbbell2_trace, kappa):
    """The barrier system at the trace's `kappa` state and that state."""
    [state] = [step.state for step in dumbbell2_trace.steps
               if step.kappa == kappa]
    system = _System(dumbbell2_setup["domain"], dumbbell2_setup["species"],
                     ModelKind.barrier(dumbbell2_setup["baseline"]), kappa)
    return system, system.stack(state)


def full_jacobian(system, x):
    """Dense Jacobian at x with every coupling entry: block (i, j) is
    diag(D[i, j]), plus the Laplacian when i = j."""
    D, A = system._coupling(x), system.A.toarray()
    k, n = system.k, system.n
    J = np.zeros((k * n, k * n))
    for i in range(k):
        for j in range(k):
            J[i * n:(i + 1) * n, j * n:(j + 1) * n] = (
                np.diag(D[i, j]) + (A if i == j else 0.0))
    return J


def test_jacobian_leaves_out_round_off_couplings(dumbbell2_setup,
                                                 dumbbell2_trace, caplog):
    system, x = trace_jacobian_case(dumbbell2_setup, dumbbell2_trace, 65536.0)
    k, n = system.k, system.n
    full = full_jacobian(system, x)
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        J = system.jacobian(x)
    # the coupling entries above eps sqrt(|J_ii| |J_jj|), and no other
    diagonal = np.abs(np.diag(full))
    bound = np.finfo(float).eps * np.sqrt(np.outer(diagonal, diagonal))
    node = np.arange(k * n) % n
    coupling = (node[:, None] == node[None, :]) & ~np.eye(k * n, dtype=bool)
    kept = coupling & (np.abs(full) > bound)
    rows, cols = J.nonzero()
    stored = np.zeros_like(kept)
    stored[rows, cols] = True
    assert np.array_equal(stored & coupling, kept)
    assert np.array_equal(stored & ~coupling, full * ~coupling != 0.0)
    dropped = int(coupling.sum() - kept.sum())
    assert dropped >= 1000  # 1568 of the 3502 couplings at this state
    assert caplog.messages == [f"assembled Jacobian of order {k * n}: "
                               f"{dropped} of {coupling.sum()} couplings "
                               "below round-off dropped"]
    # every kept entry is the full Jacobian's, and its LU solves that
    assert np.array_equal(J.toarray()[stored], full[stored])
    b = np.random.default_rng(9).standard_normal(k * n)
    s = newton.factorize(J).solve(b)
    assert np.linalg.norm(full @ s - b) <= 1e-12 * np.linalg.norm(b)


def test_jacobian_without_round_off_couplings_is_complete(dumbbell2_setup,
                                                          dumbbell2_trace,
                                                          caplog):
    # at kappa = 64 no coupling is below round-off: the assembly stores
    # every nonzero of the full Jacobian and nothing else, entry for entry
    system, x = trace_jacobian_case(dumbbell2_setup, dumbbell2_trace, 64.0)
    k, n = system.k, system.n
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        J = system.jacobian(x)
    assert caplog.messages == [f"assembled Jacobian of order {k * n}: 0 of "
                               f"{k * (k - 1) * n} couplings below round-off "
                               "dropped"]
    full = full_jacobian(system, x)
    assert J.nnz == np.count_nonzero(full)
    assert np.array_equal(J.toarray(), full)


krylov_cases = pytest.mark.parametrize("kind, truncated", [
    ("barrier", False), ("positive_part", False), ("positive_part", True),
    ("lotka_volterra", False)])


def krylov_case(request, dumbbell2_caps, geometry, kind, truncated):
    """A kappa = 64 system, a state with nodes below -u^0 in its last
    species, a right-hand side and the generator that drew them."""
    setup = request.getfixturevalue(f"{geometry}_setup")
    caps = dumbbell2_caps if geometry == "dumbbell2" else setup["caps"]
    model = model_of(kind, setup["baseline"], caps if truncated else None)
    system = _System(setup["domain"], setup["species"], model, 64.0)
    k, n = system.k, system.n
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, k * n)
    # every other node of the last species lies below -u^0 (clipped where
    # the model clips); the cross-species blocks must not vanish
    x[-n::2] -= 2.0
    if kind != "barrier":
        assert (x.reshape(k, n) + system.u0 < 0.0).any()
    assert system._coupling(x)[~np.eye(k, dtype=bool)].any()
    b = rng.standard_normal(k * n)
    return system, x, b, rng


@pytest.mark.parametrize("geometry", ["dumbbell2", "tiny3"])
@krylov_cases
def test_block_solver_meets_krylov_tolerance(request, dumbbell2_caps, geometry,
                                             kind, truncated, monkeypatch):
    system, x, b, _ = krylov_case(request, dumbbell2_caps, geometry, kind,
                                  truncated)
    solver = system.linearize(x)
    lus = count_calls(monkeypatch, newton, "splu")
    s = solver.solve(b)
    assert not lus  # GMRES met its tolerance: no assembled LU
    J = system.jacobian(x)
    assert np.linalg.norm(J @ s - b) <= 1e-6 * np.linalg.norm(b)


@pytest.mark.parametrize("geometry", ["dumbbell2", "tiny3"])
@krylov_cases
def test_held_block_solver_meets_krylov_tolerance(request, dumbbell2_caps,
                                                  geometry, kind, truncated,
                                                  monkeypatch):
    system, x, b, rng = krylov_case(request, dumbbell2_caps, geometry, kind,
                                    truncated)
    # block LUs from a nearby state precondition the solve at x
    blocks = system.linearize(
        x + 0.05 * rng.uniform(-1.0, 1.0, system.k * system.n))._blocks
    solver = system.linearize(x)
    lus = count_calls(monkeypatch, newton, "splu")
    s = solver.solve(b)
    assert solver._blocks is blocks
    assert not lus  # GMRES met its tolerance: no assembled LU
    J = system.jacobian(x)
    assert np.linalg.norm(J @ s - b) <= 1e-6 * np.linalg.norm(b)


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


def test_region_system_lives_on_the_region(dumbbell2_setup):
    dom = dumbbell2_setup["domain"]
    ball = dom.species_ball_mask(0)
    U0 = StateField([dumbbell2_setup["baseline"][0]])
    system = _System(dom, dumbbell2_setup["species"][:1],
                     ModelKind.barrier(U0, caps=U0), 0.0, ball)
    assert system.n == np.count_nonzero(ball)
    assert np.array_equal(system.u0[0], U0[0].values[ball])
    assert np.array_equal(system.caps[0], U0[0].values[ball])
    x = np.random.default_rng(5).standard_normal(system.n)
    U = system.unstack(x)
    assert not U[0].values[~ball].any()
    assert np.array_equal(system.stack(U), x)


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
    # domain and parameters are mirror symmetric about the corridor midpoint,
    # so the solve folds along that mirror and the species are exact images
    np.testing.assert_array_equal(U[0].values, U[1].values[:, ::-1])


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


def test_solver_failure_carries_history(dumbbell2_setup, monkeypatch):
    setup = dumbbell2_setup
    monkeypatch.setattr(newton, "MAX_NEWTON", 1)
    monkeypatch.setattr(newton, "MAX_BACKTRACKS", 0)
    with pytest.raises(NonlinearSolveError) as err:
        solve_system(setup["baseline"], setup["species"],
                     ModelKind.barrier(setup["baseline"]), 1e4, 1e-10)
    assert err.value.residual_history
    assert err.value.last_iterate is not None


@pytest.mark.parametrize("failure, message", [
    ("gmres", "singular linearization: Factor"),
    ("singular_block", "singular linearization: Factor is exactly singular")])
def test_krylov_failure_carries_history(dumbbell2_setup, monkeypatch, failure,
                                        message):
    # a GMRES miss takes its step on the assembled Jacobian's LU, so it
    # fails only when that LU is singular too
    def failing_gmres(apply, b, precondition):
        return np.zeros_like(b), 3, False

    if failure == "gmres":
        monkeypatch.setattr(system_module, "right_gmres", failing_gmres)
        singular_after(monkeypatch, 1)  # the swap fold's one block LU
    else:
        singular_after(monkeypatch, 0)
    U0 = dumbbell2_setup["baseline"]
    with pytest.raises(NonlinearSolveError, match=message) as err:
        solve_system(U0, dumbbell2_setup["species"], ModelKind.barrier(U0),
                     1024.0, 1e-10)
    assert err.value.residual_history
    assert err.value.last_iterate is not None


def test_polish_reuses_last_newton_factor(dumbbell2_setup, monkeypatch):
    setup = dumbbell2_setup
    U0 = setup["baseline"]
    linearizations = 0
    linearize = _System.linearize

    def counting_linearize(self, x):
        nonlocal linearizations
        linearizations += 1
        return linearize(self, x)

    monkeypatch.setattr(_System, "linearize", counting_linearize)
    _, iterations = solve_system(U0, setup["species"], ModelKind.barrier(U0),
                                 1024.0, 1e-10)
    assert 0 < linearizations < iterations


def test_warm_solve_factors_blocks_once(warm_solve, monkeypatch):
    start, species, model, kappa = warm_solve
    linearizations = count_calls(monkeypatch, _System, "linearize")
    factorizations = count_calls(monkeypatch, newton, "splu")
    solve_system(start, species, model, kappa, 1e-10)
    assert len(linearizations) >= 2
    assert len(factorizations) == 1


def test_forced_refactor_matches_held_blocks(warm_solve, monkeypatch):
    start, species, model, kappa = warm_solve
    held, _ = solve_system(start, species, model, kappa, 1e-10)
    monkeypatch.setattr(system_module, "KRYLOV_REFACTOR", 0)
    linearizations = count_calls(monkeypatch, _System, "linearize")
    factorizations = count_calls(monkeypatch, newton, "splu")
    refactored, _ = solve_system(start, species, model, kappa, 1e-10)
    assert len(linearizations) >= 2
    assert len(factorizations) == len(linearizations)
    assert sg.h1_distance(held, refactored) / sg.state_h1_norm(held) <= 1e-12


@pytest.mark.parametrize("misses, converges", [({2}, True), ({1}, False)],
                         ids=["held_miss", "fresh_miss_singular_lu"])
def test_gmres_miss_steps_on_assembled_lu(warm_solve, monkeypatch, misses,
                                          converges):
    # call 1 solves on fresh blocks, call 2 on held ones; a miss on either
    # takes its step on the LU of the assembled Jacobian, and fails only
    # when that LU is singular
    start, species, model, kappa = warm_solve
    direct, _ = solve_system(start, species, model, kappa, 1e-10)
    calls = 0
    right_gmres = system_module.right_gmres

    def missing_gmres(apply, b, precondition):
        nonlocal calls
        calls += 1
        if calls in misses:
            return np.zeros_like(b), 3, False
        return right_gmres(apply, b, precondition)

    monkeypatch.setattr(system_module, "right_gmres", missing_gmres)
    k, n = 1, folded_order(start.domain, axes=(0,))
    if not converges:
        orders = singular_after(monkeypatch, k)
        with pytest.raises(NonlinearSolveError,
                           match="singular linearization: Factor is exactly "
                           "singular") as err:
            solve_system(start, species, model, kappa, 1e-10)
        assert calls == 1
        assert orders == [n] * k + [k * n]
        assert err.value.residual_history
        assert err.value.last_iterate is not None
        return
    factorizations = count_calls(monkeypatch, newton, "splu")
    state, _ = solve_system(start, species, model, kappa, 1e-10)
    # the held blocks stay: the miss left the mock's 3 iterations behind
    assert len(factorizations) == k + 1
    assert sg.h1_distance(state, direct) / sg.state_h1_norm(direct) <= 1e-12


def test_gmres_miss_logged(warm_solve, caplog, monkeypatch):
    # the miss logs its iteration count, then the assembled Jacobian's LU
    start, species, model, kappa = warm_solve
    calls = 0
    right_gmres = system_module.right_gmres

    def missing_gmres(apply, b, precondition):
        nonlocal calls
        calls += 1
        if calls == 2:
            return np.zeros_like(b), 3, False
        return right_gmres(apply, b, precondition)

    monkeypatch.setattr(system_module, "right_gmres", missing_gmres)
    with caplog.at_level(logging.DEBUG, logger="seglv"):
        solve_system(start, species, model, kappa, 1e-10)
    lines = [r.getMessage() for r in caplog.records
             if r.name in ("seglv.newton", "seglv.system")]
    miss = ("GMRES missed in 3 iterations; solving on the assembled "
            "Jacobian's LU")
    assert lines.count(miss) == 1
    order = folded_order(start.domain, axes=(0,))
    after = lines[lines.index(miss) + 1:]
    assert after[0].startswith(f"assembled Jacobian of order {order}: ")
    assert after[1].startswith(f"LU of order {order}: fill ")


def test_second_gmres_miss_ends_gmres(warm_solve, caplog, monkeypatch):
    # GMRES misses at every step, out of iterations: the first miss and the
    # second each come after fresh block LUs, and every later step goes
    # straight to the assembled Jacobian's LU
    start, species, model, kappa = warm_solve
    direct, _ = solve_system(start, species, model, kappa, 1e-10)
    calls = 0

    def missing_gmres(apply, b, precondition):
        nonlocal calls
        calls += 1
        return np.zeros_like(b), newton.KRYLOV_MAXITER, False

    splu, orders = newton.splu, []

    def recording_splu(J, *args, **kwargs):
        orders.append(J.shape[0])
        return splu(J, *args, **kwargs)

    monkeypatch.setattr(system_module, "right_gmres", missing_gmres)
    monkeypatch.setattr(newton, "splu", recording_splu)
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        state, _ = solve_system(start, species, model, kappa, 1e-10)
    k, n = 1, folded_order(start.domain, axes=(0,))
    assert calls == 2
    assert orders[:2 * k + 2] == [n] * k + [k * n] + [n] * k + [k * n]
    assert set(orders[2 * k + 2:]) == {k * n}
    assert caplog.messages.count("kappa 16384: second GMRES miss; the "
                                 "remaining steps solve on the assembled "
                                 "Jacobian's LU") == 1
    assert sg.h1_distance(state, direct) / sg.state_h1_norm(direct) <= 1e-12


@pytest.fixture(scope="module")
def far_ramp():
    """The dumbbell of ``configs/dumbbell2.json`` (h = 1/8, 413 nodes)
    ramped to kappa = 262144 (9 steps of factor 4): its final state, the
    species and the model."""
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((3.0, 0.0), 1.0, 1)]
    domain = sg.build_domain(balls, [sg.CorridorSpec(0, 1, 0.5)],
                             (-1.25, -1.25, 4.25, 1.25), 0.125)
    species = [SpeciesParams(lam=12.0, p=2.0)] * 2
    baselines = []
    for i, sp in enumerate(species):
        region = domain.species_ball_mask(i)
        guess, _ = sg.positive_branch_guess(domain, region)
        baselines.append(sg.solve_ball(sp, region, domain, guess).solution)
    model = ModelKind.barrier(StateField(baselines))
    trace = sg.continuation_run(domain, species, model,
                                sg.ContinuationSchedule(4.0, 4.0, 9))
    assert trace.failure is None and trace.kappas()[-1] == 262144.0
    return trace.final_state(), species, model


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_probe_start_far_into_ramp_steps_on_assembled_lu(far_ramp,
                                                         monkeypatch, seed):
    """From a probe start of H1 size 0.02 around the ramp's final state the
    block Gauss-Seidel preconditioner fails the first Newton step on fresh
    block LUs: that GMRES solve runs its one cycle of KRYLOV_MAXITER
    iterations and misses.  The step then goes on one LU of the assembled
    Jacobian, and the solve converges back to the ramp's final state."""
    final, species, model = far_ramp
    start = final + sg.seeded_perturbation(final.domain, 2, 0.02, seed)
    right_gmres, splu = system_module.right_gmres, newton.splu
    events = []  # ("gmres", iterations, converged) and ("lu", order)

    def recording_gmres(apply, b, precondition):
        x, its, converged = right_gmres(apply, b, precondition)
        events.append(("gmres", its, converged))
        return x, its, converged

    def recording_splu(J, *args, **kwargs):
        events.append(("lu", J.shape[0]))
        return splu(J, *args, **kwargs)

    monkeypatch.setattr(system_module, "right_gmres", recording_gmres)
    monkeypatch.setattr(newton, "splu", recording_splu)
    state, _ = solve_system(start, species, model, 262144.0, 1e-10)
    assert sg.h1_distance(state, final) / sg.state_h1_norm(final) <= 1e-12
    order = len(species) * final.domain.n_interior
    miss = ("gmres", newton.KRYLOV_MAXITER, False)
    assert [e for e in events if e[1] == newton.KRYLOV_MAXITER] == [miss]
    assert [e for e in events if e == ("lu", order)] == [("lu", order)]
    assert events[events.index(miss) + 1] == ("lu", order)


def test_solve_near_fallback_finishes_refused_starts(far_ramp, monkeypatch):
    # every chord round is refused on the center LU, so every start goes on
    # by damped Newton, whose first step misses in GMRES as above
    final, species, model = far_ramp
    starts = [final + sg.seeded_perturbation(final.domain, 2, 0.02, seed)
              for seed in (1, 2, 3)]
    splu, made, refused = newton.splu, [], []

    class RefusingLU:
        nnz = 0

        def solve(self, b):
            refused.append(b.shape)
            raise RuntimeError("refused")

    def center_refuses(J, *args, **kwargs):
        # the first LU solve_near makes is the center's
        made.append(J.shape[0])
        return RefusingLU() if len(made) == 1 else splu(J, *args, **kwargs)

    monkeypatch.setattr(newton, "splu", center_refuses)
    outcomes = solve_near(final, starts, species, model, 262144.0, 1e-10)
    order = len(species) * final.domain.n_interior
    assert made[0] == order and refused == [(order, 3)]
    assert outcomes.chord_only == 0
    for state in outcomes:
        assert sg.h1_distance(state, final) / sg.state_h1_norm(final) <= 1e-12


@pytest.mark.parametrize("converges", [True, False], ids=["converged", "failed"])
def test_solve_releases_held_blocks(warm_solve, monkeypatch, converges):
    start, species, model, kappa = warm_solve
    system = _System(start.domain, species, model, kappa)
    unstack = _System.unstack
    solving, held_at_unstack = [], []

    def recording_unstack(self, x):
        # the solving system: the fold along y = 0, not this mirror-free one
        solving.append(self)
        held_at_unstack.append(self._blocks)
        return unstack(self, x)

    monkeypatch.setattr(_System, "unstack", recording_unstack)
    if not converges:
        monkeypatch.setattr(newton, "MAX_NEWTON", 1)
        with pytest.raises(NonlinearSolveError, match="budget exhausted"):
            _newton(start.domain, species, model, kappa, start, 1e-10)
    else:
        _newton(start.domain, species, model, kappa, start, 1e-10)
        # the result is allocated after the block LUs are released
        assert held_at_unstack[-1] is None
    assert solving[-1].fold is not system.fold and solving[-1]._blocks is None


def test_refactor_decisions_logged(warm_solve, caplog, monkeypatch):
    start, species, model, kappa = warm_solve
    linearizations = count_calls(monkeypatch, _System, "linearize")
    with caplog.at_level(logging.DEBUG, logger="seglv"):
        solve_system(start, species, model, kappa, 1e-10)
    lines = [r.getMessage() for r in caplog.records
             if r.name in ("seglv.newton", "seglv.system")]
    # the fold comes first; the one factoring logs a line per block LU
    # after its decision
    n = folded_order(start.domain, axes=(0,))
    assert lines[0] == (f"kappa 16384: folded along y = 0, x = 2 swaps species "
                        f"0, 1: {n} of {2 * start.domain.n_interior} unknowns")
    lus = lines[2:3]  # one block: species 1 is species 0's mirror image
    decisions = lines[1:2] + lines[3:]
    assert len(decisions) == len(linearizations) >= 2
    assert decisions[0] == ("kappa 16384: factoring block LUs; last GMRES "
                            "iterations: None")
    assert all(line.startswith("kappa 16384: holding block LUs; last GMRES "
                               "iterations: ") for line in decisions[1:])
    assert all(line.startswith(f"LU of order {n}: fill ") for line in lus)


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


@pytest.fixture(scope="module")
def near64(dumbbell2_setup):
    """The barrier solve at kappa = 64 (the center) and three starts near
    it, with the species and the model."""
    setup = dumbbell2_setup
    model = ModelKind.barrier(setup["baseline"])
    center, _ = solve_system(setup["baseline"], setup["species"], model,
                             64.0, 1e-10)
    starts = [center + sg.seeded_perturbation(setup["domain"], 2, 0.02, s)
              for s in (1, 2, 3)]
    return center, starts, setup["species"], model


def record_center_solves(monkeypatch, size):
    """Wrap newton.splu so that the LU of a size x size matrix records the
    shape of every right-hand side it solves; returns that record."""
    shapes = []
    splu = newton.splu

    class RecordingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            shapes.append(b.shape)
            return self.lu.solve(b)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def recording_splu(J, *args, **kwargs):
        lu = splu(J, *args, **kwargs)
        return RecordingLU(lu) if J.shape[0] == size else lu

    monkeypatch.setattr(newton, "splu", recording_splu)
    return shapes


def test_solve_near_mixed_batch(near64):
    # from three times the center the first chord step is refused: that
    # start falls back to damped Newton, the near ones finish in the rounds
    center, near, species, model = near64
    starts = near + [center * 3.0]
    outcomes = solve_near(center, starts, species, model, 64.0, 1e-10)
    assert len(outcomes) == len(starts)
    assert outcomes.chord_only == len(near)
    for start, state in zip(starts, outcomes):
        direct, _ = solve_system(start, species, model, 64.0, 1e-10)
        assert sg.h1_distance(state, direct) / sg.state_h1_norm(direct) <= 1e-12


def test_solve_near_one_solve_per_round(near64, monkeypatch):
    center, starts, species, model = near64
    shapes = record_center_solves(monkeypatch, 2 * center.domain.n_interior)
    alone = []  # each start alone: its steps, and at most one refused
    for start in starts:
        solve_near(center, [start], species, model, 64.0, 1e-10)
        alone.append(len(shapes))
        shapes.clear()
    outcomes = solve_near(center, starts, species, model, 64.0, 1e-10)
    assert outcomes.chord_only == len(starts)
    assert all(len(shape) == 2 for shape in shapes)
    assert shapes[0][1] == len(starts)
    assert [cols for _, cols in shapes] == sorted((cols for _, cols in shapes),
                                                  reverse=True)
    assert len(shapes) <= max(alone) + 1
    assert len(shapes) < sum(alone)


def test_solve_near_without_starts(near64, monkeypatch):
    center, _, species, model = near64
    factorizations = count_calls(monkeypatch, newton, "splu")
    assert solve_near(center, [], species, model, 64.0) == []
    assert not factorizations


def test_solve_near_checks_every_start(near64):
    center, starts, species, model = near64
    with pytest.raises(ValueError, match="species list and state size"):
        solve_near(center, starts + [StateField([center[0]])], species,
                   model, 64.0)


def test_solve_near_budget_record(near64, monkeypatch):
    # one chord step is fewer than a near start needs
    center, starts, species, model = near64
    monkeypatch.setattr(newton, "MAX_NEWTON", 1)
    outcomes = solve_near(center, starts[:1], species, model, 64.0, 1e-10)
    [failure] = outcomes
    assert isinstance(failure, NonlinearSolveError)
    assert str(failure).startswith("newton budget exhausted")
    assert outcomes.chord_only == 0
    system = _System(center.domain, species, model, 64.0)
    _, rnorm, _ = system.residual(system.stack(starts[0]))
    assert failure.residual_history[0] == rnorm
    assert len(failure.residual_history) == newton.MAX_NEWTON + 1


def test_chord_rounds_logged(near64, caplog, monkeypatch):
    center, starts, species, model = near64
    shapes = record_center_solves(monkeypatch, 2 * center.domain.n_interior)
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        solve_near(center, starts, species, model, 64.0, 1e-10)
    assembly, *lines = [r.getMessage() for r in caplog.records
                        if r.name == "seglv.system"]
    n = 2 * center.domain.n_interior
    assert assembly == (f"assembled Jacobian of order {n}: 0 of {n} couplings "
                        "below round-off dropped")
    assert len(lines) == len(shapes) >= 2
    assert lines[0] == ("chord round 1: 3 trials stepped, 3 steps accepted, "
                        "0 fell back")
    for number, (line, (_, cols)) in enumerate(zip(lines, shapes), 1):
        assert line.startswith(f"chord round {number}: {cols} trials stepped, ")
        assert line.endswith(" 0 fell back")


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
    outcomes = solve_near(U0, [U0], setup["species"], model, 1024.0, 1e-10)
    [near] = outcomes
    assert factorizations >= 2
    assert outcomes.chord_only == 0
    assert sg.h1_distance(near, direct) / sg.state_h1_norm(direct) <= 1e-12


def test_solve_near_singular_center_raises(dumbbell2_setup, monkeypatch):
    setup = dumbbell2_setup
    U0 = setup["baseline"]

    def singular_splu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(newton, "splu", singular_splu)
    with pytest.raises(NonlinearSolveError, match="singular linearization"):
        solve_near(U0, [U0], setup["species"], ModelKind.barrier(U0), 64.0)


def test_species_count_must_match_state(dumbbell2_setup):
    U0 = dumbbell2_setup["baseline"]
    model = ModelKind.barrier(U0)
    for species in (dumbbell2_setup["species"][:1], dumbbell2_setup["species"] * 2):
        for call in (lambda: residual(U0, species, model, 64.0),
                     lambda: solve_system(U0, species, model, 64.0),
                     lambda: solve_near(U0, [U0], species, model, 64.0)):
            with pytest.raises(ValueError, match="species list and state size"):
                call()
