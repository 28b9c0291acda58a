import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scipy.sparse as sp

import seglv as sg
from seglv import BallSpec, CorridorSpec, DomainError, build_domain, region_membership
from conftest import dumbbell2_domain

BBOX = (-1.5, -1.5, 8.5, 1.5)
H = 1 / 8

THREE_BALLS = [BallSpec((0.0, 0.0), 1.0, 0), BallSpec((3.0, 0.0), 1.0, 1),
               BallSpec((6.0, 0.0), 1.0, 2)]


def coo_laplacian(dom, mask):
    """The 5-point -Laplace on `mask` as a COO matrix of diagonal and
    neighbour entries, converted to CSR."""
    n = int(mask.sum())
    index_map = -np.ones(mask.shape, dtype=np.int64)
    index_map[mask] = np.arange(n)
    iy, ix = np.nonzero(mask)
    invh2 = 1.0 / dom.h ** 2
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 4.0 * invh2)]
    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nb = index_map[iy + dy, ix + dx]
        rows.append(np.flatnonzero(nb >= 0))
        cols.append(nb[nb >= 0])
        vals.append(np.full(rows[-1].size, -invh2))
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def _laplacian_case(name):
    if name == "chain3":
        corridors = [CorridorSpec(0, 1, 0.2), CorridorSpec(1, 2, 0.2)]
        return build_domain(THREE_BALLS, corridors, (-1.25, -1.25, 7.25, 1.25),
                            1 / 32), None
    dom = dumbbell2_domain()
    regions = {"dumbbell2": None, "ball": dom.ball_mask(0),
               "not_a_ball": dom.interior_mask & ~dom.ball_mask(0)}
    return dom, regions[name]


@pytest.mark.parametrize("name", ["chain3", "dumbbell2", "ball", "not_a_ball"])
def test_laplacian_matches_coo_assembly(name):
    dom, region = _laplacian_case(name)
    A, index_map = dom.laplacian(region)
    B = coo_laplacian(dom, index_map >= 0)
    for a, b in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_three_disjoint_balls_three_components():
    dom = build_domain(THREE_BALLS, [], BBOX, H)
    assert dom.connected_components() == 3


def test_chained_corridors_one_component():
    corridors = [CorridorSpec(0, 1, 0.5), CorridorSpec(1, 2, 0.5)]
    dom = build_domain(THREE_BALLS, corridors, BBOX, H)
    assert dom.connected_components() == 1


@pytest.mark.parametrize("nodes, count", [
    ([], 0),                          # empty interior
    ([(1, 1), (2, 2)], 2),            # diagonal neighbours stay apart
    ([(1, 1), (1, 2), (2, 2)], 1),    # joined through an edge
], ids=["empty", "diagonal", "edge"])
def test_components_are_four_connected(nodes, count):
    mask = np.zeros((5, 5), dtype=bool)
    for iy, ix in nodes:
        mask[iy, ix] = True
    assert sg.GridDomain.from_mask(mask, 0.5).connected_components() == count


def test_import_leaves_scipy_ndimage_out():
    # components are counted on the Laplacian's graph, not by ndimage.label
    env = dict(os.environ, PYTHONPATH=str(Path(sg.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", "import seglv, sys; "
                    "assert 'scipy.ndimage' not in sys.modules"],
                   env=env, check=True)


def test_overlapping_balls_rejected():
    balls = [BallSpec((0.0, 0.0), 1.0, 0), BallSpec((1.5, 0.0), 1.0, 1)]
    with pytest.raises(DomainError, match="not disjoint"):
        build_domain(balls, [], BBOX, H)


def test_tangent_balls_rejected():
    balls = [BallSpec((0.0, 0.0), 1.0, 0), BallSpec((2.0, 0.0), 1.0, 1)]
    with pytest.raises(DomainError, match="not disjoint"):
        build_domain(balls, [], BBOX, H)


def test_unresolved_corridor_rejected():
    corridors = [CorridorSpec(0, 1, 2.5 * H)]
    with pytest.raises(DomainError, match="corridor unresolved"):
        build_domain(THREE_BALLS[:2], corridors, BBOX, H)


def test_corridor_width_must_stay_below_radii():
    corridors = [CorridorSpec(0, 1, 1.0)]
    with pytest.raises(DomainError):
        build_domain(THREE_BALLS[:2], corridors, BBOX, H)


def test_corridor_endpoint_validation():
    with pytest.raises(DomainError):
        CorridorSpec(0, 0, 0.5)
    with pytest.raises(DomainError, match="missing ball"):
        build_domain(THREE_BALLS[:2], [CorridorSpec(0, 5, 0.5)], BBOX, H)


@pytest.mark.parametrize("build, message", [
    (lambda: BallSpec((0.0, 0.0), 0.0, 0), "ball radius must be positive"),
    (lambda: BallSpec((0.0, 0.0), 1.0, -1), "species_index must be >= 0"),
    (lambda: CorridorSpec(0, 1, 0.0), "corridor width must be positive"),
    (lambda: build_domain(THREE_BALLS[:1], [], (1.5, -1.5, -1.5, 1.5), H),
     "bbox must have positive extent"),
    (lambda: build_domain(THREE_BALLS[:1], [], BBOX, 0.0), "spacing must be positive"),
    (lambda: build_domain([], [], (0.0, 0.0, 0.1, 1.0), H), "fewer than 3 nodes"),
    # 8.5e6 x 3e6 nodes: refused before any array is built
    (lambda: build_domain(THREE_BALLS, [], BBOX, 1e-6), "exceeds 4194304 nodes"),
    # disjoint disks whose nodes 0.925 and 1.05 are grid neighbours
    (lambda: build_domain([BallSpec((0.0, 0.0), 1.0, 0), BallSpec((2.02, 0.0), 1.0, 1)],
                          [], (-1.45, -1.5, 3.6, 1.5), H), "grid-adjacent"),
    (lambda: build_domain(THREE_BALLS[:1], [], BBOX, H).species_ball_mask(1),
     "no ball hosts species 1"),
    (lambda: sg.GridDomain.from_mask(np.zeros(4, dtype=bool), H), "must be a 2-d array"),
    (lambda: sg.GridDomain(H, (0.0, 0.0), np.zeros((4, 4), dtype=bool),
                           -np.ones((3, 3)), np.zeros((4, 4), dtype=bool)),
     "label arrays must match"),
], ids=["radius", "species_index", "corridor_width", "bbox", "spacing", "tiny_bbox",
        "unbounded_grid", "adjacent_balls", "unhosted_species", "mask_dims", "label_shape"])
def test_invalid_geometry_rejected(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_ball_outside_bbox_rejected():
    with pytest.raises(DomainError, match="strictly inside"):
        build_domain([BallSpec((0.0, 0.0), 2.0, 0)], [], (-2.0, -2.0, 2.0, 2.0), H)


def test_region_membership_partition():
    corridors = [CorridorSpec(0, 1, 0.5)]
    dom = build_domain(THREE_BALLS[:2], corridors, (-1.5, -1.5, 4.5, 1.5), H)
    kinds = np.zeros((dom.ny, dom.nx), dtype=object)
    for iy in range(dom.ny):
        for ix in range(dom.nx):
            kinds[iy, ix] = region_membership(dom, ix, iy)[0]
    interior = kinds != "exterior"
    assert np.array_equal(interior, dom.interior_mask)
    # interior nodes split exactly into ball and corridor
    assert np.all((kinds[dom.interior_mask] == "ball")
                  | (kinds[dom.interior_mask] == "corridor"))


def test_region_membership_examples():
    corridors = [CorridorSpec(0, 1, 0.5)]
    dom = build_domain(THREE_BALLS[:2], corridors, (-1.5, -1.5, 4.5, 1.5), H)
    ix0 = int(round((0.0 - dom.origin[0]) / dom.h))
    iy0 = int(round((0.0 - dom.origin[1]) / dom.h))
    assert region_membership(dom, ix0, iy0) == ("ball", 0)
    # corridor midline midpoint between the balls
    ixm = int(round((1.5 - dom.origin[0]) / dom.h))
    assert region_membership(dom, ixm, iy0) == ("corridor", None)
    assert region_membership(dom, 0, 0) == ("exterior", None)
    with pytest.raises(IndexError):
        region_membership(dom, dom.nx, 0)


def test_corridor_width_monotonicity():
    masks = []
    for width in (0.4, 0.5, 0.8):
        dom = build_domain(THREE_BALLS[:2], [CorridorSpec(0, 1, width)],
                           (-1.5, -1.5, 4.5, 1.5), H)
        masks.append(dom.interior_mask)
    assert np.all(masks[0] <= masks[1])
    assert np.all(masks[1] <= masks[2])


def test_refinement_monotonicity():
    corridors = [CorridorSpec(0, 1, 0.5)]
    coarse = build_domain(THREE_BALLS[:2], corridors, (-1.5, -1.5, 4.5, 1.5), 1 / 8)
    fine = build_domain(THREE_BALLS[:2], corridors, (-1.5, -1.5, 4.5, 1.5), 1 / 16)
    # every coarse interior node is a fine interior node (even indices)
    assert np.all(fine.interior_mask[::2, ::2][coarse.interior_mask])


def test_ball_label_covers_balls_and_wins_overlap():
    corridors = [CorridorSpec(0, 1, 0.5)]
    dom = build_domain(THREE_BALLS[:2], corridors, (-1.5, -1.5, 4.5, 1.5), H)
    X, Y = dom.coords()
    inside0 = (X ** 2 + Y ** 2) < 1.0
    assert np.array_equal(dom.ball_label == 0, inside0)
    assert not np.any(dom.corridor_flag & (dom.ball_label >= 0))


def test_species_ball_mask_respects_permutation():
    balls = [BallSpec((0.0, 0.0), 1.0, 1), BallSpec((3.0, 0.0), 1.0, 0)]
    dom = build_domain(balls, [], (-1.5, -1.5, 4.5, 1.5), H)
    m0 = dom.species_ball_mask(0)
    assert np.array_equal(m0, dom.ball_mask(1))


def test_ball_class_keys_whole_balls_by_shape():
    # unit disks at x = 0, 3, 6 are grid translates at h = 1/8; a disk of
    # radius 0.9 rasterizes to another shape
    balls = THREE_BALLS[:2] + [BallSpec((6.0, 0.0), 0.9, 2)]
    dom = build_domain(balls, [CorridorSpec(0, 1, 0.5)], BBOX, H)
    keys = [dom.ball_class(dom.ball_mask(b)) for b in range(3)]
    assert keys[0] is not None and keys[0] == keys[1] != keys[2]
    shape, _ = keys[0]
    assert shape == (15, 15)
    part = dom.ball_mask(0).copy()
    part[np.nonzero(part)[0][0], np.nonzero(part)[1][0]] = False
    both = dom.ball_mask(0) | dom.ball_mask(1)
    for region in (None, dom.interior_mask, part, both, np.zeros_like(part)):
        assert dom.ball_class(region) is None


def test_mask_may_not_touch_border():
    mask = np.ones((4, 4), dtype=bool)
    with pytest.raises(DomainError, match="border"):
        sg.GridDomain.from_mask(mask, 0.5)


def test_domain_arrays_immutable(dumbbell2):
    with pytest.raises(ValueError):
        dumbbell2.interior_mask[0, 0] = True


def test_chain3_mirrors_and_folds():
    # chain3 at h = 1/32: node row 40 is y = 0 and node column 136 is x = 3
    corridors = [CorridorSpec(0, 1, 0.2), CorridorSpec(1, 2, 0.2)]
    dom = build_domain(THREE_BALLS, corridors, (-1.25, -1.25, 7.25, 1.25), 1 / 32)
    mirrors = dom.mirrors()
    assert list(mirrors) == [(0, 80), (1, 272)]
    A, index_map = dom.laplacian()
    iy, ix = np.nonzero(index_map >= 0)
    np.testing.assert_array_equal(mirrors[(0, 80)].image, index_map[80 - iy, ix])
    # y = 0 keeps every ball; x = 3 swaps balls 0 and 2, and their species
    assert [m.species for m in mirrors.values()] == [(0, 1, 2), (2, 1, 0)]
    assert dom.mirrors() is mirrors  # cached
    ball = dom.ball_mask(1)
    assert list(dom.mirrors(ball)) == [(0, 80), (1, 272)]
    assert dom.mirrors(dom.ball_mask(0)).keys() == {(0, 80), (1, 80)}
    for region, axes, order in ((None, [(0, 80)], 5166),
                                (None, list(mirrors), 2599),
                                (ball, list(mirrors), 833)):
        fold = dom.fold(region, 1, axes)
        A_f, orbit, w = fold.A, fold.orbit, fold.w
        assert A_f.shape == (order, order) and fold.nodes.sum() == order
        assert w.sum() == orbit.size == np.count_nonzero(
            dom.interior_mask if region is None else region)
        assert dom.fold(region, 1, axes) is fold  # cached
        A, _ = dom.laplacian(region)
        v = np.random.default_rng(order).standard_normal(order)
        # A P v = P A_f v
        np.testing.assert_allclose(A @ v[orbit], (A_f @ v)[orbit], rtol=1e-14,
                                   atol=1e-12)
    # balls 0 and 1 without their corridor: also x = 1.5, on column 88
    pair = dom.ball_mask(0) | dom.ball_mask(1)
    assert dom.mirrors(pair).keys() == {(0, 80), (1, 176)}
    assert dom.mirrors(pair)[(1, 176)].species == (1, 0)
    # ball 1 alone hosts species 1 only, so no map of species 0, ..., K-1
    assert dom.mirrors(ball)[(1, 272)].species is None
    assert dom.mirrors(dom.ball_mask(0))[(1, 80)].species == (0,)
    # ball 0 and the corridor up to x = 2: y = 0 alone
    assert dom.mirrors(dom.interior_mask & (dom.coords()[0] < 2.0)).keys() == {(0, 80)}
