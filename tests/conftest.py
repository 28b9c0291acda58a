import numpy as np
import pytest

import seglv as sg
from seglv import newton


@pytest.fixture(scope="session")
def tiny3():
    """3x3 grid, h = 1, a single interior node."""
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    return sg.GridDomain.from_mask(mask, 1.0)


@pytest.fixture(scope="session")
def square16():
    return sg.unit_square_domain(16)


@pytest.fixture(scope="session")
def ball16():
    h = 1 / 16
    m = 3 * h
    return sg.build_domain([sg.BallSpec((0.0, 0.0), 1.0, 0)], [],
                           (-1 - m, -1 - m, 1 + m, 1 + m), h)


def dumbbell2_domain(radii=(1.0, 1.0)):
    """Two balls of the given radii at x = 0 and 4, joined by a width-0.3
    corridor, at h = 1/16."""
    balls = [sg.BallSpec((4.0 * i, 0.0), r, i) for i, r in enumerate(radii)]
    corridors = [sg.CorridorSpec(0, 1, 0.3)]
    return sg.build_domain(balls, corridors, (-1.25, -1.25, 5.25, 1.25), 1 / 16)


@pytest.fixture(scope="session")
def dumbbell2():
    return dumbbell2_domain()


@pytest.fixture(scope="session")
def dumbbell2_setup(dumbbell2):
    """Baselines and species for the 2-ball dumbbell (lambda = 2 lambda_1)."""
    base, species = [], []
    for i in range(2):
        region = dumbbell2.species_ball_mask(i)
        guess, lam1 = sg.positive_branch_guess(dumbbell2, region)
        sp = sg.SpeciesParams(lam=2 * lam1, p=2.0)
        species.append(sp)
        report = sg.solve_ball(sp, region, dumbbell2, guess)
        assert report.positive
        base.append(report.solution)
    return {"domain": dumbbell2, "species": species,
            "baseline": sg.StateField(base)}


@pytest.fixture(scope="session")
def dumbbell2_trace(dumbbell2_setup):
    """Barrier continuation on the 2-ball dumbbell up to kappa = 65536."""
    setup = dumbbell2_setup
    model = sg.ModelKind.barrier(setup["baseline"])
    schedule = sg.ContinuationSchedule(4.0, 2.0, 15)
    trace = sg.continuation_run(setup["domain"], setup["species"], model, schedule)
    assert trace.failure is None
    return trace


def rebuilt(domain):
    """A new GridDomain on the grid and regions of `domain`, with an empty
    store, so that a ball solve on it takes no stored result of a
    congruent ball."""
    return sg.GridDomain(domain.h, domain.origin, domain.interior_mask,
                         domain.ball_label, domain.corridor_flag,
                         domain.balls, domain.corridors)


def stored_keys(domain, kind):
    """The keys under which `domain` stores results of one kind ("lu",
    "fold", "laplacian", "mirrors" or the name of a ``scalar`` function),
    each without its kind."""
    return [key[1:] for key in domain._results if key[0] == kind]


def folded_order(domain, region=None, axes=(0, 1)):
    """Node count of `region` folded along its lattice mirrors across the
    array axes `axes` (0 for a line y = const, 1 for x = const)."""
    mirrors = [m for m in domain.mirrors(region) if m[0] in axes]
    return domain.fold(region, 1, mirrors).A.shape[0]


def random_field(domain, rng, scale=1.0):
    vals = np.zeros((domain.ny, domain.nx))
    vals[domain.interior_mask] = rng.standard_normal(domain.n_interior) * scale
    return sg.ScalarField(domain, vals)


def stencil_laplacian(u):
    """Reference 5-point -Laplace of the field u on its bounding box,
    (4u_p - u_N - u_S - u_E - u_W) / h^2 with the values outside the mask
    (zero) as neighbours, zeroed off the interior."""
    v = u.values
    out = 4.0 * v
    out[1:, :] -= v[:-1, :]
    out[:-1, :] -= v[1:, :]
    out[:, 1:] -= v[:, :-1]
    out[:, :-1] -= v[:, 1:]
    out /= u.domain.h * u.domain.h
    return sg.ScalarField(u.domain, out)


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call to it appends its keyword
    arguments to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def record_orders(monkeypatch):
    """Wrap newton.splu so that each LU appends the order of its matrix to
    the returned list."""
    orders, splu = [], newton.splu

    def recording_splu(J, *args, **kwargs):
        orders.append(J.shape[0])
        return splu(J, *args, **kwargs)

    monkeypatch.setattr(newton, "splu", recording_splu)
    return orders


def singular_after(monkeypatch, count):
    """Wrap newton.splu so that every LU after the first `count` raises
    RuntimeError, as SuperLU does on a singular matrix; returns the list of
    the orders of the matrices it was asked to factor."""
    orders = []
    splu = newton.splu

    def splu_or_singular(J, *args, **kwargs):
        orders.append(J.shape[0])
        if len(orders) > count:
            raise RuntimeError("Factor is exactly singular")
        return splu(J, *args, **kwargs)

    monkeypatch.setattr(newton, "splu", splu_or_singular)
    return orders
