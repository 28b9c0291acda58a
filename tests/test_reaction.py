import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seglv as sg
from seglv import (SpeciesParams, f_eval, f_prime, f_truncated_eval,
                   f_truncated_prime, hat_rhs, hat_transform, potential_eval)
from conftest import random_field

SP12 = SpeciesParams(lam=1.0, p=2.0)

finite_s = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
lam_vals = st.floats(min_value=0.01, max_value=50.0)
p_vals = st.floats(min_value=1.1, max_value=4.0)


def test_param_validation():
    with pytest.raises(ValueError):
        SpeciesParams(lam=-1.0, p=2.0)
    with pytest.raises(ValueError):
        SpeciesParams(lam=1.0, p=1.0)
    SpeciesParams(lam=0.0, p=2.0)  # lambda = 0 allowed (no potential)


def test_f_point_values():
    assert f_eval(SP12, 0.0) == 0.0
    assert f_eval(SP12, 1.0) == pytest.approx(0.0)
    assert f_eval(SP12, 0.5) == pytest.approx(0.25)
    assert f_eval(SP12, -0.5) == pytest.approx(-0.25)


def test_f_prime_point_values():
    assert f_prime(SP12, 0.0) == pytest.approx(1.0)
    assert f_prime(SP12, 1.0) == pytest.approx(-1.0)
    sp = SpeciesParams(lam=3.0, p=2.5)
    assert f_prime(sp, 0.0) == pytest.approx(3.0)


@given(s=finite_s, lam=lam_vals, p=p_vals)
@settings(max_examples=150)
def test_oddness(s, lam, p):
    sp = SpeciesParams(lam=lam, p=p)
    assert f_eval(sp, -s) == -f_eval(sp, s)


@given(s=st.floats(min_value=1e-6, max_value=1.0 - 1e-9), lam=lam_vals, p=p_vals)
@settings(max_examples=150)
def test_logistic_sign_structure_inside(s, lam, p):
    sp = SpeciesParams(lam=lam, p=p)
    assert f_eval(sp, s) > 0


@given(s=st.floats(min_value=1.0, max_value=1e3), lam=lam_vals, p=p_vals)
@settings(max_examples=150)
def test_logistic_sign_structure_above_one(s, lam, p):
    sp = SpeciesParams(lam=lam, p=p)
    assert f_eval(sp, s) <= 0


def test_finite_difference_derivative():
    sp = SpeciesParams(lam=2.0, p=2.7)
    errs = []
    for e in (1e-3, 5e-4):
        fd = (f_eval(sp, 0.3 + e) - f_eval(sp, 0.3 - e)) / (2 * e)
        errs.append(abs(fd - f_prime(sp, 0.3)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_potential_values_and_derivative():
    assert potential_eval(SP12, 0.0) == 0.0
    assert potential_eval(SP12, 1.0) == pytest.approx(1 / 6)
    sp = SpeciesParams(lam=1.5, p=3.0)
    errs = []
    for e in (1e-3, 5e-4):
        fd = (potential_eval(sp, 0.7 + e) - potential_eval(sp, 0.7 - e)) / (2 * e)
        errs.append(abs(fd - f_eval(sp, 0.7)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@given(s=finite_s)
@settings(max_examples=150)
def test_truncation_matches_below_cap_and_freezes_above(s):
    cap = 0.8
    expect = f_eval(SP12, s) if s <= cap else f_eval(SP12, cap)
    assert f_truncated_eval(SP12, s, cap) == expect


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_infinite_cap_leaves_reaction_bitwise(p):
    sp = SpeciesParams(lam=7.3, p=p)
    s = np.random.default_rng(41).uniform(-3.0, 3.0, 100_000)
    assert np.array_equal(f_truncated_eval(sp, s, np.inf), f_eval(sp, s))
    assert np.array_equal(f_truncated_prime(sp, s, np.inf), f_prime(sp, s))


def test_truncation_continuity_at_cap():
    cap = 0.8
    left = f_truncated_eval(SP12, cap - 1e-12, cap)
    right = f_truncated_eval(SP12, cap + 1e-12, cap)
    assert left == pytest.approx(right, abs=1e-10)


def test_hat_transform_single_species(square16):
    rng = np.random.default_rng(0)
    u = random_field(square16, rng)
    U = sg.StateField([u])
    assert np.array_equal(hat_transform(U, 0).values, u.values)


def test_hat_transform_with_zero_partner(square16):
    rng = np.random.default_rng(1)
    u = random_field(square16, rng)
    U = sg.StateField([u, sg.ScalarField.zeros(square16)])
    assert np.allclose(hat_transform(U, 0).values, u.values)


def test_hat_transform_disjoint_supports(square16):
    a = np.zeros((square16.ny, square16.nx))
    b = np.zeros((square16.ny, square16.nx))
    a[3, 3] = 2.0
    b[7, 7] = 5.0
    U = sg.StateField([sg.ScalarField(square16, a), sg.ScalarField(square16, b)])
    hat0 = hat_transform(U, 0).values
    assert hat0[3, 3] == 2.0 and hat0[7, 7] == -5.0


def test_hat_transform_linearity(square16):
    rng = np.random.default_rng(2)
    for _ in range(25):
        U = sg.StateField([random_field(square16, rng) for _ in range(3)])
        V = sg.StateField([random_field(square16, rng) for _ in range(3)])
        a, b = rng.uniform(-2, 2, 2)
        lhs = hat_transform(a * U + b * V, 1).values
        rhs = a * hat_transform(U, 1).values + b * hat_transform(V, 1).values
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_hat_rhs_examples(square16):
    rng = np.random.default_rng(4)
    u = random_field(square16, rng)
    species = [SP12]
    U = sg.StateField([u])
    assert np.allclose(hat_rhs(U, species, 0).values,
                       np.where(square16.interior_mask, f_eval(SP12, u.values), 0.0))
    zeros = sg.StateField.zeros(square16, 2)
    assert sg.norm(hat_rhs(zeros, [SP12, SP12], 0), "Linf") == 0.0
    # identical params and equal components cancel
    twin = sg.StateField([u, u])
    assert sg.norm(hat_rhs(twin, [SP12, SP12], 0), "Linf") == pytest.approx(0.0, abs=1e-14)
