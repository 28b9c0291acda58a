"""Masked uniform grids for "balls joined by thin corridors" domains.

The computational domain is a union of k disjoint open disks (the native
territories, one per species) optionally bridged by thin straight
rectangular corridors running center to center.  It is embedded in a
rectangular bounding box and discretized on a uniform square-cell lattice:
a node belongs to the domain iff it lies strictly inside one of the
continuous regions.  Nodes outside the mask carry homogeneous Dirichlet
data in every field defined on the grid.

Rasterization is refinement-monotone (a node interior at spacing h stays
interior at h/2) and shrinking a corridor width can only shrink the node
set, which the property tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import DomainError

# largest bbox lattice build_domain rasterizes, checked before any array is
# built, so that a tiny h fails at once instead of allocating the lattice;
# chain3's lattice at h = 1/128, the finest grid of the refinement study,
# has 349,569 nodes
MAX_GRID_NODES = 2 ** 22


@dataclass(frozen=True)
class BallSpec:
    """One open disk: center, radius, and the species native to it."""

    center: tuple[float, float]
    radius: float
    species_index: int

    def __post_init__(self):
        if not self.radius > 0:
            raise DomainError(f"ball radius must be positive, got {self.radius}")
        if self.species_index < 0:
            raise DomainError(f"species_index must be >= 0, got {self.species_index}")


@dataclass(frozen=True)
class CorridorSpec:
    """A straight rectangular bridge between two ball centers.

    The axis is the center-to-center segment; the corridor is the open
    rectangle of the given width around it.
    """

    from_ball: int
    to_ball: int
    width: float

    def __post_init__(self):
        if self.from_ball == self.to_ball:
            raise DomainError("corridor endpoints must be distinct balls")
        if not self.width > 0:
            raise DomainError(f"corridor width must be positive, got {self.width}")


class Mirror(NamedTuple):
    """A lattice mirror of a region (``GridDomain.mirrors``).

    ``image[m]`` is the row, in the C-order numbering of the region's
    Laplacian, of the mirror image of node m.  ``species`` is the mirror's
    species map: entry i is the species native to the image of species i's
    ball.  It is None unless the region holds balls, the mirror sends every
    ball node to a ball node and each species' balls to balls of one
    species, and the region's species are exactly 0, ..., K-1.
    """

    image: np.ndarray
    species: tuple[int, ...] | None

    def permutation(self, k):
        """The mirror's map of k species: ``species`` when that permutes
        0, ..., k-1 (so the region's balls host exactly these species),
        else the identity."""
        if self.species is not None and len(self.species) == k:
            return self.species
        return tuple(range(k))


class Block(NamedTuple):
    """The unknowns of one species in a ``Fold``: one per layout node,
    unless a mirror makes the species another one's image (no block) or
    its own (one per orbit).

    ``unknowns`` is their slice of the stacked vector, ``nodes`` their
    layout nodes (an index, or a whole slice) and ``A`` the Laplacian among
    them.  ``members`` pairs every species gathered from these unknowns
    with the index, into the block, of its value at each layout node.
    ``diagonal`` pairs each such species j other than the block's own with
    the mask of the unknowns that species j's value at the same node is
    gathered from: the nodes that are their own images.
    """

    species: int
    unknowns: slice
    nodes: np.ndarray | slice
    A: sp.csr_matrix
    members: tuple
    diagonal: tuple


@dataclass(eq=False)
class Fold:
    """The (species, node) pairs of k species on a region, one unknown per
    orbit of a group of its mirrors (``GridDomain.fold``).

    The node-wise layout holds the q nodes of the ``nodes`` mask, one per
    orbit of the mirrors that keep every species in place, and ``A`` is
    the Laplacian among them, A_f = R A P.  ``orbit`` is the row in A_f of
    each region node's representative (P v = v[orbit]) and ``w`` the orbit
    sizes.  The stacked unknowns are the layout pairs that are first of
    their orbit: ``pick`` holds their indices i q + r in the (k, q) layout
    and ``gather`` the unknown of every layout pair, both None when no
    mirror moves a species, so that every layout pair is an unknown.
    ``weight`` counts the region's pairs in each unknown's orbit (None
    without mirrors, where each counts one), and ``blocks`` holds the
    unknowns of each species that keeps any.
    """

    nodes: np.ndarray
    A: sp.csr_matrix
    orbit: np.ndarray
    w: np.ndarray
    pick: np.ndarray | None
    gather: np.ndarray | None
    weight: np.ndarray | None
    blocks: tuple

    @property
    def size(self):
        """The number of unknowns."""
        if self.pick is None:
            return len(self.blocks) * self.A.shape[0]
        return self.pick.size


def _fold(A, mask, k, mirrors):
    """The ``Fold`` of k species on the region `mask`, of Laplacian A,
    along its ``Mirror``s `mirrors` (see ``GridDomain.fold``)."""
    n, same = A.shape[0], np.arange(k)
    # every product of the mirrors, as its maps of the nodes and the species
    group = [(np.arange(n), same)]
    for mirror in mirrors:
        species = np.asarray(mirror.permutation(k))
        group += [(mirror.image[image], species[s]) for image, s in group]
    # each node's representative: the first node of its orbit under the
    # products that keep every species in place
    rep = np.min([image for image, s in group if (s == same).all()], axis=0)
    keep = rep == np.arange(n)
    orbit = np.cumsum(keep)[rep] - 1
    q = int(keep.sum())
    nodes = np.zeros_like(mask)
    nodes[mask] = keep
    if mirrors:  # the product reorders the entries of A, even for P = I
        P = sp.csr_matrix((np.ones(n), (np.arange(n), orbit)), shape=(n, q))
        A = (A[np.flatnonzero(keep)] @ P).tocsr()
    # the layout index of the first pair, i n + m, of every pair's orbit
    first = np.min([s[:, None] * n + image for image, s in group], axis=0)
    unknown = first // n * q + orbit[first % n]
    picked = np.zeros(k * q, dtype=bool)
    picked[unknown] = True
    pick = np.flatnonzero(picked)
    index = np.cumsum(picked)[unknown] - 1  # each pair's unknown
    gather = index[:, keep].ravel()
    if pick.size == k * q:
        blocks = tuple(Block(i, slice(i * q, (i + 1) * q), slice(None), A,
                             ((i, slice(None)),), ()) for i in range(k))
        pick = gather = None
    else:
        blocks = []
        for i in np.unique(pick // q):
            unknowns = slice(*np.searchsorted(pick, [i * q, (i + 1) * q]))
            rows = pick[unknowns] - i * q
            members = tuple((j, gather[j * q:(j + 1) * q] - unknowns.start)
                            for j in range(k) if unknown[j, 0] // q == i)
            own = np.arange(rows.size)
            diagonal = tuple((j, where[rows] == own)
                             for j, where in members if j != i)
            P = sp.csr_matrix((np.ones(q), (np.arange(q), dict(members)[i])),
                              shape=(q, own.size))
            blocks.append(Block(int(i), unknowns, rows, (A[rows] @ P).tocsr(),
                                members, diagonal))
    w = np.bincount(orbit)
    for arr in (nodes, orbit, w):
        arr.setflags(write=False)
    weight = np.bincount(index.ravel()) if mirrors else None
    return Fold(nodes, A, orbit, w, pick, gather, weight, tuple(blocks))


def _laplacian(mask, h):
    """The 5-point -Laplace on the nodes of `mask`, spacing h, and its
    index map (see ``GridDomain.laplacian``)."""
    n = int(mask.sum())
    index_map = -np.ones(mask.shape, dtype=np.int64)
    index_map[mask] = np.arange(n)
    iy, ix = np.nonzero(mask)
    # each node's row in column order: its neighbours at (iy - 1, ix) and
    # (iy, ix - 1), itself, (iy, ix + 1) and (iy + 1, ix), -1 off the
    # region; a region keeps off the grid border
    stencil = np.stack([index_map[iy - 1, ix], index_map[iy, ix - 1],
                        np.arange(n), index_map[iy, ix + 1],
                        index_map[iy + 1, ix]], axis=1)
    inside = stencil >= 0
    invh2 = 1.0 / (h * h)
    weights = np.array([-invh2, -invh2, 4.0 * invh2, -invh2, -invh2])
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    A = sp.csr_matrix((np.broadcast_to(weights, stencil.shape)[inside],
                       stencil[inside].astype(np.int32), indptr), shape=(n, n))
    index_map.setflags(write=False)
    return A, index_map


def _mirrors(domain, mask, index_map):
    """The ``Mirror``s of the region `mask` of `domain`, of index map
    `index_map` (see ``GridDomain.mirrors``)."""
    iy, ix = np.nonzero(mask)
    labels = domain.ball_label[mask]
    found = {}
    for axis, i in ((0, iy), (1, ix)):
        c = int(i.min() + i.max())  # the only line the extent allows
        image = [iy, ix]
        image[axis] = c - i
        rows = index_map[image[0], image[1]]
        if (rows >= 0).all():
            # int32 halves the stored maps; no lattice that fits in memory
            # has 2**31 nodes
            rows = rows.astype(np.int32)
            rows.setflags(write=False)
            found[(axis, c)] = Mirror(rows, domain._species_map(labels,
                                                                labels[rows]))
    return found


class GridDomain:
    """Uniform grid with an interior mask and per-node region labels.

    Arrays are indexed ``[iy, ix]`` with node coordinates
    ``(x0 + ix*h, y0 + iy*h)``.  ``ball_label`` holds the index of the ball
    containing each node (-1 for none); nodes where a corridor overlaps a
    ball are labeled ball so that ball regions cover the disks completely.
    Instances are immutable after construction and safe to share.

    Results computed on the domain live in one store on the instance
    (``_result``), each under a key that starts with its kind and holds
    only the inputs its computation reads: the Laplacian of a region
    ("laplacian", ``laplacian``) and its lattice mirrors ("mirrors",
    ``mirrors``), keyed by the region's mask; the fold of k species along
    some of them ("fold", ``fold``), keyed by (mask, k, mirrors); an LU of
    a fold's Laplacian that a principal eigen-solve leaves for the next
    eigen-solve on that fold ("lu", ``scalar._top_eigenpair``), keyed by
    the stored ``Fold``; and the results that ``scalar`` stores per ball
    class (``ball_class``) and for the whole interior, under the name of
    the function that computes them.  The store holds arrays, numbers and
    LUs, never a field, so that no reference cycle runs through the
    domain.
    """

    def __init__(self, h, origin, interior_mask, ball_label, corridor_flag,
                 balls=(), corridors=()):
        interior_mask = np.asarray(interior_mask, dtype=bool)
        ball_label = np.asarray(ball_label, dtype=np.int64)
        corridor_flag = np.asarray(corridor_flag, dtype=bool)
        if interior_mask.ndim != 2:
            raise DomainError("interior mask must be a 2-d array")
        if ball_label.shape != interior_mask.shape or corridor_flag.shape != interior_mask.shape:
            raise DomainError("label arrays must match the mask shape")
        ny, nx = interior_mask.shape
        if interior_mask[0, :].any() or interior_mask[-1, :].any() \
                or interior_mask[:, 0].any() or interior_mask[:, -1].any():
            raise DomainError("interior mask must not touch the grid border")
        self.h = float(h)
        self.origin = (float(origin[0]), float(origin[1]))
        self.nx = nx
        self.ny = ny
        self.interior_mask = interior_mask
        self.ball_label = ball_label
        self.corridor_flag = corridor_flag
        self.balls = tuple(balls)
        self.corridors = tuple(corridors)
        self.n_interior = int(interior_mask.sum())
        for arr in (self.interior_mask, self.ball_label, self.corridor_flag):
            arr.setflags(write=False)
        self._results: dict[tuple, object] = {}

    def _result(self, key, compute):
        """The result stored under `key`, or compute()'s, stored under it.
        A raise stores nothing."""
        if key not in self._results:
            self._results[key] = compute()
        return self._results[key]

    # -- coordinates -------------------------------------------------------

    def coords(self):
        """Meshgrid arrays (X, Y) with the same [iy, ix] layout as fields."""
        x = self.origin[0] + self.h * np.arange(self.nx)
        y = self.origin[1] + self.h * np.arange(self.ny)
        return np.meshgrid(x, y)

    # -- regions -----------------------------------------------------------

    def ball_mask(self, ball_index):
        return self.ball_label == ball_index

    def species_ball_mask(self, species_index):
        """Interior mask of the ball whose native species is `species_index`."""
        for b, spec in enumerate(self.balls):
            if spec.species_index == species_index:
                return self.ball_mask(b)
        raise DomainError(f"no ball hosts species {species_index}")

    def ball_class(self, region):
        """Translation-class key of `region`, or None unless it is exactly
        one ball's whole mask: the region cropped to its bounding box, as
        (shape, bytes).  Grid translates share the key, and with it the CSR
        Laplacian and the C-order node numbering."""
        if region is None:
            return None
        region = np.asarray(region, dtype=bool)
        iy, ix = np.nonzero(region)
        if region.shape != self.ball_label.shape or iy.size == 0:
            return None
        b = self.ball_label[iy[0], ix[0]]
        if b < 0 or not np.array_equal(region, self.ball_label == b):
            return None
        crop = region[iy[0]:iy[-1] + 1, ix.min():ix.max() + 1]
        return crop.shape, crop.tobytes()

    def connected_components(self):
        """Number of 4-connected components of the interior mask, counted
        on the graph of the 5-point Laplacian."""
        return int(csgraph.connected_components(self.laplacian()[0],
                                                directed=False)[0])

    # -- interior vector packing -------------------------------------------

    def extract(self, values):
        """Interior nodes of a grid array as a flat vector (C order)."""
        return np.asarray(values)[self.interior_mask]

    def insert(self, vec, region=None):
        """Flat vector over `region` (default: the interior mask) back to a
        full grid array, zero elsewhere."""
        out = np.zeros((self.ny, self.nx))
        out[self.interior_mask if region is None else region] = vec
        return out

    # -- discrete Laplacian ------------------------------------------------

    def laplacian(self, region=None):
        """Sparse 5-point matrix of -Laplace on `region` (default: full interior).

        Returns (A, index_map) where A is CSR over the region nodes in
        C order and index_map is an (ny, nx) int array sending grid nodes
        to matrix rows (-1 outside the region).  Neighbors outside the
        region act as homogeneous Dirichlet nodes.  Results are stored
        (``_result``).
        """
        if region is None:
            mask = self.interior_mask
        else:
            mask = np.asarray(region, dtype=bool)
            if mask.shape != self.interior_mask.shape:
                raise DomainError("region mask shape does not match the grid")
            if (mask & ~self.interior_mask).any():
                raise DomainError("region contains non-interior nodes")
            if not mask.any():
                raise DomainError("region is empty")
        return self._result(("laplacian", mask.tobytes()),
                            lambda: _laplacian(mask, self.h))

    # -- mirror symmetry ---------------------------------------------------

    def mirrors(self, region=None):
        """The lattice mirrors of `region` (default: the interior).

        A mirror is a horizontal or vertical line, on a node row or column
        or midway between two, that maps the mask onto itself.  It is keyed
        (axis, c): it sends index i along array axis `axis` (0 for a line
        y = const, 1 for x = const) to c - i, so the line runs on a node
        line for even c and midway between two for odd c.  Returns a dict
        from each mirror's key to its ``Mirror``: the image of every node
        and the species map that the region's balls give.  Results are
        stored (``_result``).
        """
        _, index_map = self.laplacian(region)
        mask = index_map >= 0
        return self._result(("mirrors", mask.tobytes()),
                            lambda: _mirrors(self, mask, index_map))

    def _species_map(self, labels, images):
        """The species map of a mirror that sends nodes of ball labels
        `labels` to nodes of labels `images`, or None (see ``Mirror``)."""
        inside = labels >= 0
        if not inside.any() or not np.array_equal(inside, images >= 0):
            return None
        species, count = {}, len(self.balls)
        for pair in np.unique(labels[inside] * count + images[inside]):
            a, b = divmod(int(pair), count)
            s, t = self.balls[a].species_index, self.balls[b].species_index
            if species.setdefault(s, t) != t:
                return None
        ordered = list(range(len(species)))
        if sorted(species) != ordered or sorted(species.values()) != ordered:
            return None
        return tuple(species[i] for i in ordered)

    def fold(self, region, k, mirrors):
        """The ``Fold`` of k species on `region` along `mirrors`, keys of
        ``mirrors(region)``.

        Each mirror maps the (species, node) pair (i, m) to (sigma(i), m'),
        with sigma its map of k species (``Mirror.permutation``) and m'
        the image of node m; the mirrors generate a group of such maps.  The
        layout folds the nodes along the group's maps that keep every
        species, onto the first node in C order of each orbit, the one
        with index i <= c - i along each such mirror.  With P the (n, q)
        map that copies a representative's value to its whole orbit and R
        the (q, n) selection of the representatives' rows, A_f = R A P in
        CSR over them in C order; a vector invariant under those mirrors
        is P v, and A P v = P A_f v.  A_f is not symmetric: a
        representative on a mirror couples twice to its neighbour off the
        line, which couples once back.  Of each orbit of the pairs, the one
        first in the stacked order i n + m of the region's pairs is an
        unknown; the order of the unknowns is that order.  Each species
        that keeps unknowns gets a block of them, its Laplacian R A_f P
        among them.  Without mirrors the layout is the region and A_f its
        Laplacian.  Results are stored (``_result``).
        """
        A, index_map = self.laplacian(region)
        mask = index_map >= 0
        mirrors = tuple(sorted(mirrors))
        return self._result(("fold", mask.tobytes(), k, mirrors), lambda: _fold(
            A, mask, k, [self.mirrors(mask)[m] for m in mirrors]))

    @classmethod
    def from_mask(cls, mask, h, origin=(0.0, 0.0)):
        """Ad-hoc domain from an arbitrary interior mask (no region labels).

        Used for manufactured-solution and convergence studies; such
        domains carry no ball/corridor structure.
        """
        mask = np.asarray(mask, dtype=bool)
        label = -np.ones(mask.shape, dtype=np.int64)
        flag = np.zeros(mask.shape, dtype=bool)
        return cls(h, origin, mask, label, flag)


def unit_square_domain(n):
    """Unit square (0,1)^2 with spacing 1/n; interior nodes i, j in 1..n-1."""
    mask = np.zeros((n + 1, n + 1), dtype=bool)
    mask[1:-1, 1:-1] = True
    return GridDomain.from_mask(mask, 1.0 / n, origin=(0.0, 0.0))


def _validate_geometry(balls, corridors, bbox, h):
    x0, y0, x1, y1 = (float(v) for v in bbox)
    if not (x1 > x0 and y1 > y0):
        raise DomainError("bbox must have positive extent")
    if not h > 0:
        raise DomainError(f"spacing must be positive, got {h}")
    for a in range(len(balls)):
        for b in range(a + 1, len(balls)):
            ca, cb = balls[a], balls[b]
            dist = math.hypot(ca.center[0] - cb.center[0], ca.center[1] - cb.center[1])
            if dist <= ca.radius + cb.radius:
                raise DomainError("balls not disjoint")
    nx = int(math.floor((x1 - x0) / h + 1e-12)) + 1
    ny = int(math.floor((y1 - y0) / h + 1e-12)) + 1
    if nx < 3 or ny < 3:
        raise DomainError("bbox holds fewer than 3 nodes per direction")
    if nx * ny > MAX_GRID_NODES:
        raise DomainError(f"bbox lattice of {nx} x {ny} nodes exceeds "
                          f"{MAX_GRID_NODES} nodes")
    # strict containment against the node lattice hull, so the border ring
    # of nodes can never rasterize as interior
    xmax = x0 + (nx - 1) * h
    ymax = y0 + (ny - 1) * h
    for i, ball in enumerate(balls):
        cx, cy = ball.center
        if not (cx - ball.radius > x0 and cx + ball.radius < xmax
                and cy - ball.radius > y0 and cy + ball.radius < ymax):
            raise DomainError(f"ball {i} is not strictly inside the bbox lattice")
    for c, cor in enumerate(corridors):
        if not (0 <= cor.from_ball < len(balls)) or not (0 <= cor.to_ball < len(balls)):
            raise DomainError(f"corridor {c} references a missing ball")
        rmin = min(balls[cor.from_ball].radius, balls[cor.to_ball].radius)
        if not cor.width < rmin:
            raise DomainError(f"corridor {c} width must be below the endpoint radii")
        if cor.width < 3.0 * h:
            raise DomainError("corridor unresolved")
    return x0, y0, nx, ny


def build_domain(balls, corridors, bbox, h):
    """Rasterize balls and corridors into a GridDomain.

    A node is interior iff it lies strictly inside some ball or corridor
    rectangle.  Raises DomainError when balls overlap, a corridor is
    unresolved (width below 3h), geometry leaks out of the bbox, or two
    ball regions become grid-adjacent.
    """
    balls = list(balls)
    corridors = list(corridors)
    x0, y0, nx, ny = _validate_geometry(balls, corridors, bbox, h)
    x = x0 + h * np.arange(nx)
    y = y0 + h * np.arange(ny)
    X, Y = np.meshgrid(x, y)

    ball_label = -np.ones((ny, nx), dtype=np.int64)
    for i, ball in enumerate(balls):
        cx, cy = ball.center
        inside = (X - cx) ** 2 + (Y - cy) ** 2 < ball.radius ** 2
        ball_label[inside] = i

    corridor_flag = np.zeros((ny, nx), dtype=bool)
    for cor in corridors:
        ax, ay = balls[cor.from_ball].center
        bx, by = balls[cor.to_ball].center
        ex, ey = bx - ax, by - ay
        L2 = ex * ex + ey * ey
        t = ((X - ax) * ex + (Y - ay) * ey) / L2
        dperp = np.abs((X - ax) * ey - (Y - ay) * ex) / math.sqrt(L2)
        inside = (t > 0.0) & (t < 1.0) & (dperp < 0.5 * cor.width)
        corridor_flag |= inside
    corridor_flag &= ball_label < 0  # ball wins where regions overlap

    interior = (ball_label >= 0) | corridor_flag

    # distinct ball labels must never touch through a stencil edge
    for axis in (0, 1):
        a = ball_label if axis == 0 else ball_label.T
        la, lb = a[:-1, :], a[1:, :]
        if ((la >= 0) & (lb >= 0) & (la != lb)).any():
            raise DomainError("balls not resolved: distinct balls are grid-adjacent")

    return GridDomain(h, (x0, y0), interior, ball_label, corridor_flag,
                      balls=balls, corridors=corridors)


def region_membership(domain, ix, iy):
    """Classify node (ix, iy): ("exterior", None), ("ball", i) or ("corridor", None)."""
    if not (0 <= ix < domain.nx and 0 <= iy < domain.ny):
        raise IndexError(f"node ({ix}, {iy}) outside the {domain.nx}x{domain.ny} grid")
    if not domain.interior_mask[iy, ix]:
        return ("exterior", None)
    label = int(domain.ball_label[iy, ix])
    if label >= 0:
        return ("ball", label)
    return ("corridor", None)
