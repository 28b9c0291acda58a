"""Nodal fields and discrete operators on a masked grid.

Fields are value-semantic wrappers around (ny, nx) arrays that are exactly
zero outside the interior mask, which is how the homogeneous Dirichlet
condition is represented.  The Laplacian is the standard 5-point stencil
with neighbors outside the mask contributing zero, applied as the
domain's sparse interior matrix (``GridDomain.laplacian``), the one
operator of every solve, so for fields u, v on the same domain the
summation-by-parts identity

    inner(u, apply_laplacian(u)) == norm(u, "H1_seminorm")**2

holds to round-off, and apply_laplacian is symmetric positive definite on
nonzero interior data.  Poisson solves go through the same sparse LU as
every other linear solve in the package (``newton.factorize``).  Norms
and inner products sum by numpy's pairwise summation, the package's one
reduction rule (``newton._l2``), never by a BLAS call, so their values do
not depend on the BLAS thread count.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import GridDomain
from .errors import DomainMismatchError
from .newton import _l2, factorize

NORM_KINDS = ("L2", "H1_seminorm", "H1", "Linf")


class ScalarField:
    """One nodal grid function, zero outside the domain's interior mask."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: GridDomain, values):
        values = np.array(values, dtype=float)
        if values.shape != (domain.ny, domain.nx):
            raise ValueError(
                f"field shape {values.shape} does not match grid "
                f"({domain.ny}, {domain.nx})")
        if not np.all(np.isfinite(values[domain.interior_mask])):
            raise ValueError("field holds non-finite values")
        values[~domain.interior_mask] = 0.0
        values.setflags(write=False)
        self.domain = domain
        self.values = values

    @classmethod
    def zeros(cls, domain: GridDomain):
        return cls(domain, np.zeros((domain.ny, domain.nx)))

    @classmethod
    def from_interior(cls, domain: GridDomain, vec):
        """Build a field from a flat vector over interior nodes (C order)."""
        return cls(domain, domain.insert(np.asarray(vec, dtype=float)))

    def interior(self):
        """Values at interior nodes as a flat vector (C order)."""
        return self.domain.extract(self.values)

    # small arithmetic surface; enough for perturbations and tests
    def _check(self, other):
        if other.domain is not self.domain:
            raise DomainMismatchError("fields live on different domains")

    def __add__(self, other):
        self._check(other)
        return ScalarField(self.domain, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return ScalarField(self.domain, self.values - other.values)

    def __mul__(self, scalar):
        return ScalarField(self.domain, self.values * float(scalar))

    __rmul__ = __mul__


class StateField:
    """A k-tuple of ScalarFields sharing one GridDomain."""

    __slots__ = ("domain", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a state needs at least one component")
        domain = components[0].domain
        for u in components[1:]:
            if u.domain is not domain:
                raise DomainMismatchError("state components live on different domains")
        self.domain = domain
        self.components = components

    @classmethod
    def zeros(cls, domain: GridDomain, k: int):
        return cls([ScalarField.zeros(domain) for _ in range(k)])

    @property
    def k(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def _check(self, other):
        if other.domain is not self.domain or other.k != self.k:
            raise DomainMismatchError("states are not conforming")

    def __add__(self, other):
        self._check(other)
        return StateField([u + v for u, v in zip(self.components, other.components)])

    def __sub__(self, other):
        self._check(other)
        return StateField([u - v for u, v in zip(self.components, other.components)])

    def __mul__(self, scalar):
        return StateField([u * scalar for u in self.components])

    __rmul__ = __mul__


def apply_laplacian(u: ScalarField) -> ScalarField:
    """5-point -Laplace of u: (4u_p - u_N - u_S - u_E - u_W) / h^2.

    Neighbors outside the mask contribute zero; the output is zero at
    non-interior nodes.  Applied as the domain's interior matrix
    (``GridDomain.laplacian``), the operator of every solve.
    """
    A, _ = u.domain.laplacian()
    return ScalarField.from_interior(u.domain, A @ u.interior())


def inner(u: ScalarField, v: ScalarField) -> float:
    """Discrete L2 pairing h^2 * sum(u_p v_p)."""
    if u.domain is not v.domain:
        raise DomainMismatchError("inner product of fields on different domains")
    return float(u.domain.h ** 2 * np.sum(u.values * v.values))


def norm(u: ScalarField, kind: str = "L2") -> float:
    """Field norm: L2, H1_seminorm, H1 (their root-sum-square) or Linf.

    The seminorm sums squared one-sided differences over every grid edge;
    edges leaving the mask see the Dirichlet zero, which is already encoded
    in the stored values.
    """
    v = u.values
    if kind == "L2":
        return u.domain.h * _l2(v)
    if kind == "H1_seminorm":
        dx = np.diff(v, axis=1)
        dy = np.diff(v, axis=0)
        return float(math.sqrt(np.sum(dx * dx) + np.sum(dy * dy)))
    if kind == "H1":
        return float(math.hypot(norm(u, "L2"), norm(u, "H1_seminorm")))
    if kind == "Linf":
        return float(np.max(np.abs(v)))
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def state_h1_norm(U: StateField) -> float:
    """Root-sum-square of component H1 norms."""
    return float(math.sqrt(sum(norm(u, "H1") ** 2 for u in U)))


def solve_spd(rhs: ScalarField) -> ScalarField:
    """Solve A u = rhs with homogeneous Dirichlet data.

    A is the 5-point -Laplace matrix on the interior nodes, factored by the
    sparse LU of ``newton.factorize``.
    """
    domain = rhs.domain
    A, _ = domain.laplacian()
    return ScalarField.from_interior(domain, factorize(A).solve(rhs.interior()))
