import numpy as np
import pytest

import seglv as sg
from seglv import (ScalarField, SpeciesParams, StateField, energy,
                   free_boundary, h1_distance, inequality_check, noninvasion,
                   norm, overlap, uniqueness_probe)
from conftest import random_field

SP = SpeciesParams(lam=1.0, p=2.0)


def indicator(domain, nodes, value=1.0):
    vals = np.zeros((domain.ny, domain.nx))
    for iy, ix in nodes:
        vals[iy, ix] = value
    return ScalarField(domain, vals)


def test_overlap_disjoint_supports(square16):
    U = StateField([indicator(square16, [(3, 3)]), indicator(square16, [(7, 7)])])
    assert np.all(overlap(U) == 0.0)


def test_overlap_unit_measure_indicators(tiny3):
    # one node at h = 1 is a unit-measure set: h^2 * count = 1
    u = indicator(tiny3, [(1, 1)])
    M = overlap(StateField([u, u]))
    assert M[0, 1] == pytest.approx(1.0)
    assert M[0, 0] == 0.0


def test_overlap_symmetry_random(square16):
    rng = np.random.default_rng(21)
    for _ in range(25):
        U = StateField([random_field(square16, rng) for _ in range(3)])
        M = overlap(U)
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 0.0)


def test_inequality_check_converged_scalar(ball16):
    guess, lam1 = sg.positive_branch_guess(ball16, None)
    sp = SpeciesParams(lam=2 * lam1, p=2.0)
    report = sg.solve_ball(sp, ball16.interior_mask, ball16, guess)
    sub, sup = inequality_check(StateField([report.solution]), [sp], 1e-9)
    assert sub[0].count == 0 and sup[0].count == 0


def test_inequality_check_flags_flat_oversized_state(square16):
    vals = np.where(square16.interior_mask, 2.0, 0.0)
    U = StateField([ScalarField(square16, vals)])
    sub, sup = inequality_check(U, [SP], 1e-9)
    # interior-deep nodes: -Lap u = 0 > f(2) = -2, a genuine sub violation
    assert sub[0].count > 0
    assert sub[0].max_magnitude >= 2.0 - 1e-12


def test_noninvasion_zero_state(dumbbell2):
    assert np.all(noninvasion(StateField.zeros(dumbbell2, 2)) == 0.0)


def test_noninvasion_global_profiles_invade(dumbbell2_setup):
    # without competition each species spreads over the whole domain
    setup = dumbbell2_setup
    phi = [sg.supersolution_phi(sp, setup["domain"]) for sp in setup["species"]]
    M = noninvasion(StateField(phi))
    for i in range(2):
        for j in range(2):
            if i != j:
                assert M[i, j] > 0.1 * M[j, j]


def test_energy_zero_and_gradient_only(square16):
    assert energy(StateField.zeros(square16, 2), [SP, SP]) == 0.0
    rng = np.random.default_rng(33)
    u = random_field(square16, rng)
    U = StateField([u])
    no_potential = [SpeciesParams(lam=0.0, p=2.0)]
    assert energy(U, no_potential) == pytest.approx(
        0.5 * norm(u, "H1_seminorm") ** 2)


def test_energy_matches_direct_sum(square16):
    rng = np.random.default_rng(34)
    u, v = random_field(square16, rng), random_field(square16, rng)
    species = [SP, SpeciesParams(lam=2.0, p=3.0)]
    expect = 0.0
    for w, sp in zip((u, v), species):
        expect += 0.5 * norm(w, "H1_seminorm") ** 2
        expect -= square16.h ** 2 * float(np.sum(sg.potential_eval(sp, w.values)))
    assert energy(StateField([u, v]), species) == pytest.approx(expect)


def test_free_boundary_zero_state(square16):
    assert len(free_boundary(StateField.zeros(square16, 1))) == 0


def test_free_boundary_half_grid_indicator(square16):
    vals = np.zeros((square16.ny, square16.nx))
    vals[square16.interior_mask] = 1.0
    vals[:, square16.nx // 2:] = 0.0
    U = StateField([ScalarField(square16, vals)])
    fb = free_boundary(U, threshold=0.5)
    mid = square16.nx // 2
    expected = {(0, (iy, mid - 1), (iy, mid)) for iy in range(1, square16.ny - 1)}
    assert fb.edges == frozenset(expected)


def test_free_boundary_relabel_and_reflection_invariance(square16):
    rng = np.random.default_rng(8)
    u, v = random_field(square16, rng), random_field(square16, rng)
    U = StateField([u, v])
    V = StateField([v, u])
    thr = 0.3
    assert len(free_boundary(U, thr)) == len(free_boundary(V, thr))
    mirrored = StateField([ScalarField(square16, u.values[:, ::-1]),
                           ScalarField(square16, v.values[:, ::-1])])
    assert len(free_boundary(mirrored, thr)) == len(free_boundary(U, thr))


def test_free_boundary_interface_sits_in_corridor(dumbbell2_trace, dumbbell2):
    final = dumbbell2_trace.final_state()
    fb = free_boundary(final)
    assert len(fb) > 0
    for _, (iy1, ix1), (iy2, ix2) in fb.edges:
        assert dumbbell2.corridor_flag[iy1, ix1] and dumbbell2.corridor_flag[iy2, ix2]


def test_free_boundary_edges_touch_support(square16):
    rng = np.random.default_rng(61)
    thr = 0.4
    for _ in range(20):
        U = StateField([random_field(square16, rng) for _ in range(2)])
        for i, a, b in free_boundary(U, thr).edges:
            above_a = U[i].values[a] > thr
            above_b = U[i].values[b] > thr
            assert above_a != above_b  # exactly one endpoint in the support


def test_h1_distance_metric_properties(square16):
    rng = np.random.default_rng(55)
    U = StateField([random_field(square16, rng) for _ in range(2)])
    V = StateField([random_field(square16, rng) for _ in range(2)])
    W = StateField([random_field(square16, rng) for _ in range(2)])
    assert h1_distance(U, U) == 0.0
    assert h1_distance(U, V) == pytest.approx(h1_distance(V, U))
    assert h1_distance(U, W) <= h1_distance(U, V) + h1_distance(V, W) + 1e-12


def test_seeded_perturbation_reproducible_and_sized(dumbbell2):
    a = sg.seeded_perturbation(dumbbell2, 2, 0.02, 99)
    b = sg.seeded_perturbation(dumbbell2, 2, 0.02, 99)
    c = sg.seeded_perturbation(dumbbell2, 2, 0.02, 100)
    assert h1_distance(a, b) == 0.0
    assert sg.state_h1_norm(a) == pytest.approx(0.02, rel=1e-12)
    assert h1_distance(a, c) > 0
    assert sg.state_h1_norm(sg.seeded_perturbation(dumbbell2, 2, 0.0, 7)) == 0.0


def test_uniqueness_probe_degenerate_cases(dumbbell2_setup):
    setup = dumbbell2_setup
    model = sg.ModelKind.barrier(setup["baseline"])
    kappa = 64.0
    center, _ = sg.solve_system(setup["baseline"], setup["species"], model,
                                kappa, 1e-10)
    single = uniqueness_probe(setup["domain"], setup["species"], model, kappa,
                              center, 0.02, 1, 5)
    assert single.max_pairwise_h1_distance == 0.0
    zero_delta = uniqueness_probe(setup["domain"], setup["species"], model,
                                  kappa, center, 0.0, 3, 5)
    assert zero_delta.max_pairwise_h1_distance <= 1e-12
    assert zero_delta.all_converged and zero_delta.converged == 3


def test_probe_factors_coupled_jacobian_once(dumbbell2_setup, monkeypatch):
    from seglv import newton

    setup = dumbbell2_setup
    model = sg.ModelKind.barrier(setup["baseline"])
    center, _ = sg.solve_system(setup["baseline"], setup["species"], model,
                                64.0, 1e-10)
    coupled = 2 * setup["domain"].n_interior
    sizes = []
    splu = newton.splu

    def recording_splu(J, *args, **kwargs):
        sizes.append(J.shape[0])
        return splu(J, *args, **kwargs)

    monkeypatch.setattr(newton, "splu", recording_splu)
    report = uniqueness_probe(setup["domain"], setup["species"], model, 64.0,
                              center, 0.02, 3, 5)
    assert sizes.count(coupled) == 1
    assert report.all_converged and report.converged == 3
    assert report.max_pairwise_h1_distance <= 1e-12


def test_probe_respects_newton_budget(dumbbell2_setup):
    setup = dumbbell2_setup
    model = sg.ModelKind.barrier(setup["baseline"])
    center, _ = sg.solve_system(setup["baseline"], setup["species"], model,
                                64.0, 1e-10)
    report = uniqueness_probe(setup["domain"], setup["species"], model, 64.0,
                              center, 0.02, 3, 5, max_newton=1)
    assert not report.all_converged
    assert report.converged < report.trials


def test_box_violation_count(dumbbell2_setup):
    setup = dumbbell2_setup
    U0 = setup["baseline"]
    ok = sg.box_violation_count(U0, 1e-9, baseline=U0)
    assert ok == 0
    # a state dipping below -u^0 violates the lower bound
    bad = StateField([-1.5 * u for u in U0])
    assert sg.box_violation_count(bad, 1e-9, baseline=U0) > 0


def test_diagnostics_report_json_round_trip(dumbbell2_trace):
    import json

    report = dumbbell2_trace.steps[-1].diagnostics
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert set(doc) == {"overlap_matrix", "sub_violations", "super_violations",
                        "noninvasion", "energy", "box_violations", "h1_norms"}
    assert len(doc["h1_norms"]) == 2
    assert doc["overlap_matrix"][0][1] == pytest.approx(
        report.overlap_matrix[0, 1])
