import math

import numpy as np
import pytest

import seglv as sg
from seglv import (ScalarField, StateField, apply_laplacian, inner, norm,
                   solve_spd)
from conftest import random_field, stencil_laplacian


def field_on(domain, center_value):
    vals = np.zeros((domain.ny, domain.nx))
    vals[1, 1] = center_value
    return ScalarField(domain, vals)


def test_laplacian_of_zero_is_zero(square16):
    z = ScalarField.zeros(square16)
    assert norm(apply_laplacian(z), "Linf") == 0.0


def test_single_node_stencil(tiny3):
    u = field_on(tiny3, 1.0)
    assert apply_laplacian(u).values[1, 1] == pytest.approx(4.0)


def test_single_node_norms(tiny3):
    c = -2.5
    u = field_on(tiny3, c)
    assert norm(u, "L2") == pytest.approx(abs(c))
    assert norm(u, "H1_seminorm") == pytest.approx(2 * abs(c))
    assert norm(u, "H1") == pytest.approx(math.hypot(abs(c), 2 * abs(c)))
    assert norm(u, "Linf") == pytest.approx(abs(c))
    assert norm(ScalarField.zeros(tiny3), "H1") == 0.0


def test_unknown_norm_kind_rejected(tiny3):
    with pytest.raises(ValueError, match="norm kind"):
        norm(field_on(tiny3, 1.0), "L3")


def test_laplacian_is_the_solves_matrix_and_the_stencil(dumbbell2):
    # the domain's interior matrix applied to the interior values, byte for
    # byte, and the bounding-box stencil up to the order of rounding
    A, _ = dumbbell2.laplacian()
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = random_field(dumbbell2, rng)
        Au = apply_laplacian(u)
        assert Au.interior().tobytes() == (A @ u.interior()).tobytes()
        assert np.all(Au.values[~dumbbell2.interior_mask] == 0.0)
        ref = stencil_laplacian(u).values
        assert np.max(np.abs(Au.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_manufactured_laplacian_richardson():
    # sampled sine product is a discrete eigenfunction; the consistency error
    # against 2 pi^2 u shrinks at second order
    errs = []
    for n in (16, 32, 64):
        dom = sg.unit_square_domain(n)
        X, Y = dom.coords()
        u = ScalarField(dom, np.sin(np.pi * X) * np.sin(np.pi * Y))
        resid = apply_laplacian(u).values - 2 * np.pi ** 2 * u.values
        errs.append(np.abs(resid[dom.interior_mask]).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_inner_examples(tiny3):
    u = field_on(tiny3, 3.0)
    assert inner(u, u) == pytest.approx(norm(u, "L2") ** 2)
    assert inner(u, ScalarField.zeros(tiny3)) == 0.0


def test_inner_disjoint_supports(square16):
    a = np.zeros((square16.ny, square16.nx))
    b = np.zeros((square16.ny, square16.nx))
    a[3, 3] = 1.0
    b[7, 7] = 2.0
    assert inner(ScalarField(square16, a), ScalarField(square16, b)) == 0.0


def test_domain_mismatch_rejected(tiny3, square16):
    u, v = field_on(tiny3, 1.0), ScalarField.zeros(square16)
    for call in (lambda: inner(u, v), lambda: u - v, lambda: StateField([u, v]),
                 lambda: StateField([u]) + StateField([u, u])):
        with pytest.raises(sg.DomainMismatchError):
            call()


def test_malformed_fields_rejected(tiny3):
    with pytest.raises(ValueError, match="does not match grid"):
        ScalarField(tiny3, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="at least one component"):
        StateField([])


def test_solve_spd_zero_rhs(square16):
    out = solve_spd(ScalarField.zeros(square16))
    assert norm(out, "Linf") == 0.0


def test_solve_spd_single_node(tiny3):
    rhs = field_on(tiny3, 4.0)
    assert solve_spd(rhs).values[1, 1] == pytest.approx(1.0)


def test_solve_spd_manufactured_convergence():
    errs = []
    for n in (32, 64, 128):
        dom = sg.unit_square_domain(n)
        X, Y = dom.coords()
        exact = np.sin(np.pi * X) * np.sin(np.pi * Y)
        exact[~dom.interior_mask] = 0.0
        rhs = ScalarField(dom, 2 * np.pi ** 2 * exact)
        u = solve_spd(rhs)
        errs.append(norm(ScalarField(dom, u.values - exact), "L2"))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_solve_spd_residual(dumbbell2):
    rng = np.random.default_rng(5)
    rhs = random_field(dumbbell2, rng)
    u = solve_spd(rhs)
    resid = apply_laplacian(u).values - rhs.values
    assert norm(ScalarField(dumbbell2, resid), "L2") <= 1e-12 * norm(rhs, "L2")


def test_laplacian_symmetry_and_definiteness(dumbbell2):
    rng = np.random.default_rng(7)
    for _ in range(25):
        u = random_field(dumbbell2, rng)
        v = random_field(dumbbell2, rng)
        lhs = inner(apply_laplacian(u), v)
        rhs = inner(u, apply_laplacian(v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert inner(apply_laplacian(u), u) > 0


def test_summation_by_parts_identity(dumbbell2):
    rng = np.random.default_rng(13)
    for _ in range(25):
        u = random_field(dumbbell2, rng)
        assert inner(u, apply_laplacian(u)) == pytest.approx(
            norm(u, "H1_seminorm") ** 2, rel=1e-12)


def test_field_zeroed_outside_mask(square16):
    vals = np.ones((square16.ny, square16.nx))
    u = ScalarField(square16, vals)
    assert np.all(u.values[~square16.interior_mask] == 0.0)


def test_field_rejects_nonfinite(square16):
    vals = np.zeros((square16.ny, square16.nx))
    vals[4, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(square16, vals)


def test_state_field_arithmetic(dumbbell2):
    rng = np.random.default_rng(3)
    U = StateField([random_field(dumbbell2, rng) for _ in range(2)])
    V = StateField([random_field(dumbbell2, rng) for _ in range(2)])
    W = U + 2.0 * V - V
    expect = U[0].values + V[0].values
    assert np.allclose(W[0].values, expect)
    assert sg.state_h1_norm(U - U) == 0.0
