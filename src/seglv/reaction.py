"""Logistic reaction terms and the hat-transformed quantities.

Each species carries f(s) = lambda * (s - |s|^(p-1) s), an odd C^1
nonlinearity that is positive on (0, 1) and nonpositive beyond 1, so the
constant 1 is a natural supersolution scale.  |s|^(p-1) s is evaluated as
sign(s) * |s|^p so oddness is exact for non-integer p.

The hat field of species i is u_i minus the sum of all other densities,
and its right-hand side is f_i(u_i) - sum_{j != i} f_j(u_j).  The hat
helpers are these definitions, and the tests' oracle for the segregation
diagnostics, which reach the same residuals by linearity
(``diagnostics.inequality_check``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ScalarField, StateField


@dataclass(frozen=True)
class SpeciesParams:
    """Growth coefficient and superlinear exponent of one species."""

    lam: float
    p: float

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if not self.p > 1:
            raise ValueError(f"exponent p must exceed 1, got {self.p}")


def f_eval(sp: SpeciesParams, s):
    """f(s) = lambda * (s - sign(s) |s|^p); scalar or elementwise."""
    s = np.asarray(s, dtype=float)
    out = sp.lam * (s - np.sign(s) * np.abs(s) ** sp.p)
    return out if out.ndim else float(out)


def f_prime(sp: SpeciesParams, s):
    """f'(s) = lambda * (1 - p |s|^(p-1))."""
    s = np.asarray(s, dtype=float)
    out = sp.lam * (1.0 - sp.p * np.abs(s) ** (sp.p - 1.0))
    return out if out.ndim else float(out)


def potential_eval(sp: SpeciesParams, s):
    """Antiderivative F(s) = lambda * (s^2/2 - |s|^(p+1)/(p+1)), F(0) = 0."""
    s = np.asarray(s, dtype=float)
    out = sp.lam * (0.5 * s * s - np.abs(s) ** (sp.p + 1.0) / (sp.p + 1.0))
    return out if out.ndim else float(out)


def f_truncated_eval(sp: SpeciesParams, s, cap):
    """f frozen above the cap, f(min(s, cap)); a cap of +inf leaves f as is."""
    return f_eval(sp, np.minimum(s, cap))


def f_truncated_prime(sp: SpeciesParams, s, cap):
    """Derivative of the truncated reaction: f'(s) on the active branch, 0 beyond."""
    s = np.asarray(s, dtype=float)
    cap = np.asarray(cap, dtype=float)
    out = np.where(s <= cap, f_prime(sp, np.minimum(s, cap)), 0.0)
    return out if out.ndim else float(out)


def hat_transform(U: StateField, i: int) -> ScalarField:
    """u_i minus the sum of all other components."""
    vals = U[i].values - sum(u.values for j, u in enumerate(U) if j != i)
    return ScalarField(U.domain, np.asarray(vals, dtype=float))


def hat_rhs(U: StateField, species, i: int) -> ScalarField:
    """f_i(u_i) - sum_{j != i} f_j(u_j), evaluated nodewise from the state."""
    vals = f_eval(species[i], U[i].values) - sum(
        f_eval(species[j], U[j].values) for j in range(U.k) if j != i)
    return ScalarField(U.domain, np.asarray(vals, dtype=float))
