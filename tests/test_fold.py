"""Newton solves on the folded lattice: a solve whose region, guess,
baselines and caps are invariant under lattice mirrors runs on one node per
mirror orbit and gives the full lattice's result to round-off.  A mirror
that swaps species folds the (species, node) pairs: on the dumbbell, x = 2
sends species 0 to species 1, so species 1 keeps no unknowns.  The full
lattice is forced by a mirror finder that finds none.  The construction of
the folds (``GridDomain.fold``) is checked against orbits found by brute
force, and is built once per region, species count and mirrors; a solve
that folds builds no fold without mirrors."""

import itertools
import logging
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import seglv as sg
from seglv import ModelKind, ScalarField, SpeciesParams, StateField
from seglv import domain as domain_module
from seglv import system as system_module
from seglv.system import _System

from conftest import dumbbell2_domain, folded_order, rebuilt, record_orders

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def no_mirrors(monkeypatch):
    monkeypatch.setattr(sg.GridDomain, "mirrors", lambda self, region=None: {})


def fold_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "seglv.system"
            and ("folded" in r.getMessage())]


def max_rel(U, V):
    """Largest nodewise difference of U and V relative to V's peak."""
    a = np.stack([u.values for u in U])
    b = np.stack([v.values for v in V])
    return float(np.abs(a - b).max() / np.abs(b).max())


def baselines(domain, species):
    states = []
    for i, sp in enumerate(species):
        region = domain.species_ball_mask(i)
        guess, _ = sg.positive_branch_guess(domain, region)
        states.append(sg.solve_ball(sp, region, domain, guess).solution)
    return StateField(states)


@pytest.fixture(scope="module")
def dumbbell():
    """A dumbbell of its own with its baselines and barrier model."""
    domain = dumbbell2_domain()
    species = [SpeciesParams(lam=12.0, p=2.0)] * 2
    return domain, species, ModelKind.barrier(baselines(domain, species))


def test_ramp_folded_matches_full_lattice(dumbbell, monkeypatch, caplog):
    domain, species, model = dumbbell
    schedule = sg.ContinuationSchedule(4.0, 4.0, 8)
    orders = record_orders(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        folded = sg.continuation_run(domain, species, model, schedule)
    # every step folds along both mirrors, x = 2 swapping the species: one
    # block LU per linearization that factors, species 0's on the nodes at
    # or below y = 0
    n = folded_order(domain, axes=(0,))
    assert fold_lines(caplog) == [
        f"kappa {4 ** (s + 1)}: folded along y = 0, x = 2 swaps species 0, 1: "
        f"{n} of {2 * domain.n_interior} unknowns" for s in range(8)]
    factoring = [m for m in caplog.messages if "factoring block LUs" in m]
    assert orders == [n] * len(factoring)
    made = len(orders)
    no_mirrors(monkeypatch)
    full = sg.continuation_run(domain, species, model, schedule)
    assert set(orders[made:]) == {domain.n_interior}
    assert folded.failure is None and full.failure is None
    assert ([s.newton_iterations for s in folded.steps]
            == [s.newton_iterations for s in full.steps])
    assert max_rel(folded.final_state(), full.final_state()) <= 1e-14


def test_baselines_tested_once_per_model(dumbbell, monkeypatch):
    # the baselines' asymmetry under each of the two mirrors is found on the
    # first solve of a model and kept; the guess's on every solve
    domain, species, model = dumbbell
    model = ModelKind.barrier(model.baseline)
    rows, asymmetry = [], system_module._asymmetry

    def counting(fields, *args):
        rows.append(len(fields))
        return asymmetry(fields, *args)

    monkeypatch.setattr(system_module, "_asymmetry", counting)
    for kappa in (16.0, 64.0, 256.0):
        sg.solve_system(model.baseline, species, model, kappa)
    assert len(rows) == 2 + 3 * 2
    # a new model tests its baselines again
    sg.solve_system(model.baseline, species, ModelKind.barrier(model.baseline),
                    16.0)
    assert len(rows) == 8 + 2 + 2


def test_folded_residual_norm_and_unfold(dumbbell):
    # a state invariant under y = 0: a random one plus its mirror image
    domain, species, model = dumbbell
    system = _System(domain, species, model, 256.0)
    [(mirror, image)] = [(m, i.image) for m, i in domain.mirrors().items()
                         if m[0] == 0]
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, system.n))
    x = (x + x[:, image]).ravel()
    state = system.unstack(x)
    folded = _System(domain, species, model, 256.0, None, [mirror])
    assert folded.n == folded_order(domain, axes=(0,)) < system.n
    r, rnorm, rhs = system.residual(x)
    r_f, rnorm_f, rhs_f = folded.residual(folded.stack(state))
    assert rnorm_f == pytest.approx(rnorm, rel=1e-14)
    assert rhs_f == pytest.approx(rhs, rel=1e-14)
    assert max_rel(folded.unstack(r_f), system.unstack(r)) <= 1e-14
    for u, v in zip(folded.unstack(folded.stack(state)), state):
        np.testing.assert_array_equal(u.values, v.values)


def test_perturbed_start_not_folded(dumbbell, monkeypatch, caplog):
    domain, species, model = dumbbell
    center, _ = sg.solve_system(model.baseline, species, model, 64.0)
    start = center + sg.seeded_perturbation(domain, 2, 0.02, 1)
    orders = record_orders(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        state, _ = sg.solve_system(start, species, model, 64.0)
    [line] = fold_lines(caplog)
    assert line.startswith("kappa 64: not folded; largest relative asymmetry ")
    assert line.endswith(" under y = 0, x = 2")
    assert orders and set(orders) <= {domain.n_interior, 2 * domain.n_interior}
    assert domain.n_interior in orders
    assert sg.h1_distance(state, center) / sg.state_h1_norm(center) <= 1e-12


def test_ball_off_the_axis_not_folded(monkeypatch, caplog):
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((4.0, 0.25), 1.0, 1)]
    domain = sg.build_domain(balls, [sg.CorridorSpec(0, 1, 0.3)],
                             (-1.25, -1.25, 5.25, 1.5), 1 / 16)
    species = [SpeciesParams(lam=12.0, p=2.0)] * 2
    model = ModelKind.barrier(baselines(domain, species))
    assert domain.mirrors() == {}
    orders = record_orders(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        sg.solve_system(model.baseline, species, model, 64.0)
    assert fold_lines(caplog) == ["kappa 64: not folded; the region has no "
                                  "lattice mirror"]
    assert orders and set(orders) == {domain.n_interior}


def test_chain3_phi_folds_on_both_axes(monkeypatch, caplog):
    balls = [sg.BallSpec((3.0 * i, 0.0), 1.0, i) for i in range(3)]
    corridors = [sg.CorridorSpec(0, 1, 0.2), sg.CorridorSpec(1, 2, 0.2)]
    domain = sg.build_domain(balls, corridors, (-1.25, -1.25, 7.25, 1.25), 1 / 32)
    sp = SpeciesParams(lam=11.3394, p=2.0)
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        folded = sg.supersolution_phi(sp, domain)
    # the 2h subgrid's solve, then h's
    assert fold_lines(caplog) == [
        "kappa 0: folded along y = 0, x = 3: 660 of 2481 unknowns",
        f"kappa 0: folded along y = 0, x = 3: 2599 of {domain.n_interior} "
        "unknowns"]
    no_mirrors(monkeypatch)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        full = sg.supersolution_phi(sp, rebuilt(domain))
    assert fold_lines(caplog) == ["kappa 0: not folded; the region has no "
                                  "lattice mirror"] * 2
    assert max_rel([folded], [full]) <= 1e-14


def test_axis_midway_between_rows_folds(monkeypatch):
    # 6 rows: the y mirror runs midway between rows 3 and 4; 9 columns: the
    # x mirror runs on column 5
    mask = np.zeros((8, 11), dtype=bool)
    mask[1:7, 1:10] = True
    mask[1, 1] = mask[1, 9] = mask[6, 1] = mask[6, 9] = False
    domain = sg.GridDomain.from_mask(mask, 0.1)
    assert list(domain.mirrors()) == [(0, 7), (1, 10)]
    fold = domain.fold(None, 1, [(0, 7), (1, 10)])
    A_f, orbit, w = fold.A, fold.orbit, fold.w
    assert A_f.shape == (14, 14) and sorted(set(w)) == [2, 4]
    A, _ = domain.laplacian()
    v = np.random.default_rng(2).standard_normal(14)
    np.testing.assert_allclose(A @ v[orbit], (A_f @ v)[orbit], rtol=1e-14)
    sp = SpeciesParams(lam=60.0, p=2.0)
    one = ScalarField(domain, mask.astype(float))
    folded = sg.solve_ball(sp, mask, domain, one)
    no_mirrors(monkeypatch)
    full = sg.solve_ball(sp, mask, domain, one)
    assert folded.positive and full.positive
    assert folded.newton_iterations == full.newton_iterations
    assert max_rel([folded.solution], [full.solution]) <= 1e-14


def test_unequal_species_refuse_the_swap(monkeypatch, caplog):
    domain = dumbbell2_domain()
    species = [SpeciesParams(lam=12.0, p=2.0), SpeciesParams(lam=12.5, p=2.0)]
    model = ModelKind.barrier(baselines(domain, species))
    orders = record_orders(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        sg.solve_system(model.baseline, species, model, 64.0)
    n = folded_order(domain, axes=(0,))
    assert fold_lines(caplog) == [
        f"kappa 64: folded along y = 0: {2 * n} of {2 * domain.n_interior} "
        "unknowns; not along x = 2, species 0, 1 differ"]
    assert orders and set(orders) == {n}


def test_start_not_swap_invariant_folds_along_y(dumbbell, monkeypatch, caplog):
    # species 0 moves by a y-symmetric bump and species 1 does not: the
    # start is invariant under y = 0 but no longer under x = 2's swap
    domain, species, model = dumbbell
    center, _ = sg.solve_system(model.baseline, species, model, 64.0)
    bump = sg.seeded_perturbation(domain, 1, 0.02, 1)[0].values
    start = StateField([ScalarField(domain, center[0].values + bump + bump[::-1]),
                        center[1]])
    orders = record_orders(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        state, _ = sg.solve_system(start, species, model, 64.0)
    n = folded_order(domain, axes=(0,))
    [line] = fold_lines(caplog)
    assert line.startswith(f"kappa 64: folded along y = 0: {2 * n} of "
                           f"{2 * domain.n_interior} unknowns; not along x = 2, "
                           "relative asymmetry ")
    assert orders and set(orders) <= {n, 2 * n}
    assert n in orders
    assert sg.h1_distance(state, center) / sg.state_h1_norm(center) <= 1e-12


def test_domain_without_balls_folds_species_in_place(monkeypatch, caplog):
    # a from_mask rectangle has both mirrors but no balls, so no species
    # map: two species fold along both mirrors, each in its own place
    mask = np.zeros((9, 12), dtype=bool)
    mask[1:8, 1:11] = True
    domain = sg.GridDomain.from_mask(mask, 0.1)
    assert [m.species for m in domain.mirrors().values()] == [None, None]
    species = [SpeciesParams(lam=60.0, p=2.0), SpeciesParams(lam=50.0, p=2.0)]
    model = ModelKind.lotka_volterra()
    guess = StateField([ScalarField(domain, mask * 0.8),
                        ScalarField(domain, mask * 0.5)])
    with caplog.at_level(logging.DEBUG, logger="seglv.system"):
        folded, folded_iterations = sg.solve_system(guess, species, model, 2.0)
    q = domain.fold(None, 1, list(domain.mirrors())).A.shape[0]
    assert fold_lines(caplog) == [
        f"kappa 2: folded along y = 0.4, x = 0.55: {2 * q} of "
        f"{2 * domain.n_interior} unknowns"]
    no_mirrors(monkeypatch)
    full, full_iterations = sg.solve_system(guess, species, model, 2.0)
    assert folded_iterations == full_iterations
    assert max_rel(folded, full) <= 1e-14


def chain3_domain(h):
    balls = [sg.BallSpec((3.0 * i, 0.0), 1.0, i) for i in range(3)]
    corridors = [sg.CorridorSpec(0, 1, 0.2), sg.CorridorSpec(1, 2, 0.2)]
    return sg.build_domain(balls, corridors, (-1.25, -1.25, 7.25, 1.25), h)


def subsets(items):
    return [list(subset) for size in range(len(items) + 1)
            for subset in itertools.combinations(items, size)]


def oracle_orbits(domain, mask, k, mirrors):
    """The orbits of the (species, node) pairs of k species on the region
    `mask` under `mirrors`, by brute force: every subset of the mirrors
    applied as an explicit permutation of the pairs, pair (i, m) at
    i n + m.  Returns the first pair of each pair's orbit (k n of them),
    and each node's orbit under the subsets that keep every species."""
    coords = list(zip(*np.nonzero(mask)))
    row = {c: m for m, c in enumerate(coords)}
    n = len(coords)
    found = domain.mirrors(mask)
    permutations, node_maps = [], []
    for subset in subsets(mirrors):
        species = list(range(k))
        images = []
        for iy, ix in coords:
            node = [iy, ix]
            for axis, c in subset:
                node[axis] = c - node[axis]
            images.append(row[tuple(node)])
        for m in subset:
            sigma = found[m].species
            if sigma is not None and len(sigma) == k:
                species = [sigma[i] for i in species]
        permutations.append([species[i] * n + images[m]
                             for i in range(k) for m in range(n)])
        if species == list(range(k)):
            node_maps.append(images)
    first = [min(p[pair] for p in permutations) for pair in range(k * n)]
    return first, [{images[m] for images in node_maps} for m in range(n)]


def check_fold(domain, region, k, mirrors):
    A, index_map = domain.laplacian(region)
    mask = index_map >= 0
    first, node_orbits = oracle_orbits(domain, mask, k, mirrors)
    n = len(node_orbits)
    fold = domain.fold(region, k, mirrors)
    # node layout: one node per orbit under the species-keeping subsets,
    # its first in C order, with the orbit sizes as node weights
    reps = sorted({min(orbit) for orbit in node_orbits})
    q = len(reps)
    assert np.flatnonzero(fold.nodes[mask]).tolist() == reps
    assert fold.orbit.tolist() == [reps.index(min(o)) for o in node_orbits]
    assert fold.w.tolist() == [len(node_orbits[r]) for r in reps]
    # the unknowns: each pair orbit's first pair, in the stacked order
    unknowns = sorted(set(first))
    pick = (np.arange(k * q) if fold.pick is None else fold.pick).tolist()
    assert [p // q * n + reps[p % q] for p in pick] == unknowns
    assert fold.size == len(unknowns)
    count = Counter(first)
    assert (fold.weight is None) == (not mirrors)
    weight = np.ones(k * n, dtype=int) if fold.weight is None else fold.weight
    assert weight.tolist() == [count[u] for u in unknowns]
    assert weight.sum() == k * n
    position = {u: b for b, u in enumerate(unknowns)}
    gather = [position[first[i * n + r]] for i in range(k) for r in reps]
    assert (fold.gather is None) == (gather == list(range(k * q)))
    if fold.gather is not None:
        assert fold.gather.tolist() == gather
    # each block: species i's unknowns and the Laplacian R A P among them
    assert [b.species for b in fold.blocks] == sorted({u // n for u in unknowns})
    for block in fold.blocks:
        i, start = block.species, block.unknowns.start
        own = unknowns[block.unknowns]
        assert [u // n for u in own] == [i] * len(own)
        rows = [u - i * n for u in own]
        P = np.zeros((n, len(own)))
        for m in range(n):
            P[m, position[first[i * n + m]] - start] = 1.0
        np.testing.assert_array_equal(block.A.toarray(), (A @ P)[rows])
        # the species gathered from the block, where each layout node's
        # value sits in it, and where that value is the block's own unknown
        members = {j: [position[first[j * n + r]] - start for r in reps]
                   for j in range(k) if first[j * n] // n == i}
        assert [j for j, _ in block.members] == list(members)
        for j, where in block.members:
            assert np.arange(q)[where].tolist() == members[j]
        assert [j for j, _ in block.diagonal] == [j for j in members if j != i]
        for j, diagonal in block.diagonal:
            assert diagonal.tolist() == [position[first[j * n + m]] - start == b
                                         for b, m in enumerate(rows)]


ORACLE_CASES = {
    "dumbbell2": (dumbbell2_domain, False, 2),
    "chain3": (lambda: chain3_domain(1 / 16), False, 3),
    "chain3_ball": (lambda: chain3_domain(1 / 16), True, 1),
    "unit_square": (lambda: sg.unit_square_domain(12), False, 2),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_fold_matches_brute_force_orbits(case):
    # every subset of the region's two mirrors, the empty one included: on
    # chain3 y = 0 keeps every species and x = 3 swaps species 0 and 2, and
    # the unit square has no balls, so its mirrors keep species in place
    make, ball, k = ORACLE_CASES[case]
    domain = make()
    region = domain.ball_mask(1) if ball else None
    mirrors = sorted(domain.mirrors(region))
    assert len(mirrors) == 2
    for subset in subsets(mirrors):
        check_fold(domain, region, k, subset)


def test_one_fold_construction_per_key(tmp_path, monkeypatch):
    # the eigen-solves, the ball solves and the ramp on dumbbell2 share the
    # domain's folds: each (region, k, mirrors) is built once, and each
    # region's Laplacian and mirrors once
    config = sg.load_config(CONFIGS / "dumbbell2.json")
    config.output.directory = str(tmp_path)
    requested, built = [], []
    fold, construct = sg.GridDomain.fold, domain_module._fold
    assembled, searched = [], []
    laplacian, mirrors = domain_module._laplacian, domain_module._mirrors

    def assembling(mask, h):
        assembled.append(mask.tobytes())
        return laplacian(mask, h)

    def searching(domain, mask, index_map):
        searched.append(mask.tobytes())
        return mirrors(domain, mask, index_map)

    def recording_fold(self, region, k, mirrors):
        mask = self.laplacian(region)[1] >= 0
        key = (self, mask.tobytes(), k, tuple(sorted(mirrors)))
        requested.append(key)
        made = len(built)
        result = fold(self, region, k, mirrors)
        if len(built) > made:
            built[-1] = key
        return result

    def counting(*args):
        built.append(None)
        return construct(*args)

    monkeypatch.setattr(sg.GridDomain, "fold", recording_fold)
    monkeypatch.setattr(domain_module, "_fold", counting)
    monkeypatch.setattr(domain_module, "_laplacian", assembling)
    monkeypatch.setattr(domain_module, "_mirrors", searching)
    summary = sg.run(config, until="continuation")
    assert summary.continuation_failure is None
    assert Counter(built) == Counter(set(requested))
    # ball 0's fold along both of its mirrors serves its eigen-solves and its
    # Newton solve, and ball 1 takes ball 0's results; the ramp folds the
    # two species along y = 0 and x = 1.5
    domain = requested[0][0]
    ball = (domain.ball_mask(0).tobytes(), 1)
    uses = Counter(key[1:3] + (len(key[3]),) for key in requested)
    assert uses[ball + (2,)] >= 4
    assert uses[(domain.interior_mask.tobytes(), 2, 2)] >= 6
    # the interior and ball 0 are the regions: ball 1 computes nothing
    regions = [domain.interior_mask.tobytes(), ball[0]]
    assert Counter(assembled) == Counter(searched) == Counter(regions)


def test_folding_solves_build_no_mirror_free_fold(tmp_path, monkeypatch):
    # chain3's ramp at h = 1/32 and its global profile at h = 1/64: every
    # Newton solve folds, so it builds no fold without mirrors, and each
    # mirrored fold is built once; the public residual is mirror-free
    config = sg.load_config(CONFIGS / "chain3.json")
    config.output.directory = str(tmp_path)
    config.output.emit_images = False
    built, constructing = [], []
    fold, construct = sg.GridDomain.fold, domain_module._fold

    def recording_fold(self, region, k, mirrors):
        mask = self.laplacian(region)[1] >= 0
        constructing.append((self, mask.tobytes(), k, tuple(sorted(mirrors))))
        try:
            return fold(self, region, k, mirrors)
        finally:
            constructing.pop()

    def counting(*args):
        built.append(constructing[-1])
        return construct(*args)

    monkeypatch.setattr(sg.GridDomain, "fold", recording_fold)
    monkeypatch.setattr(domain_module, "_fold", counting)
    summary = sg.run(config, until="continuation")
    assert summary.continuation_failure is None
    d = config.domain
    domain = sg.build_domain(d.balls, d.corridors, d.bbox, d.h / 2)
    sp = config.species[0]
    phi = sg.supersolution_phi(sp, domain)
    assert built and all(key[3] for key in built)
    assert max(Counter(built).values()) == 1
    sg.residual(StateField([phi]), [sp],
                ModelKind.barrier(StateField.zeros(domain, 1)), 0.0)
    assert built[-1] == (domain, domain.interior_mask.tobytes(), 1, ())
