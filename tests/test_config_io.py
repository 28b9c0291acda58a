import json

import numpy as np
import pytest

from seglv import (ConfigError, ScalarField, emit_field, emit_image,
                   parse_config, read_field, read_field_values)
from conftest import random_field

MINIMAL = {
    "domain": {
        "bbox": [-1.4, -1.4, 1.4, 1.4],
        "h": 0.125,
        "balls": [{"center": [0.0, 0.0], "radius": 1.0}],
    },
    "species": [{"lambda": 12.0, "p": 2.0}],
}


def test_minimal_config_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.model.kind == "barrier" and cfg.model.truncation is False
    assert cfg.schedule.kappa_start == 1.0 and cfg.schedule.steps == 18
    assert cfg.solver.newton_tol == 1e-10
    assert cfg.solver.eig_tol == 1e-8
    assert cfg.uniqueness is None
    assert cfg.output.directory == "out" and cfg.output.emit_fields


def test_unknown_solver_key_ignored():
    doc = dict(MINIMAL, solver={"newton_tol": 1e-9, "cg_tol": 1e-10})
    cfg = parse_config(json.dumps(doc))
    assert cfg.solver.newton_tol == 1e-9 and not hasattr(cfg.solver, "cg_tol")


def test_species_ball_count_mismatch():
    doc = dict(MINIMAL, species=[{"lambda": 12.0, "p": 2.0}] * 2)
    with pytest.raises(ConfigError, match="species count"):
        parse_config(json.dumps(doc))


def test_negative_tolerance_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"newton_tol": -1e-10}
    with pytest.raises(ConfigError, match="newton_tol"):
        parse_config(json.dumps(doc))


def test_malformed_json_reports_location():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("{not json}")


def test_bad_model_kind_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"] = {"kind": "mutualism"}
    with pytest.raises(ConfigError, match="model.kind"):
        parse_config(json.dumps(doc))


def test_species_index_permutation_enforced():
    doc = json.loads(json.dumps(MINIMAL))
    doc["domain"]["balls"] = [
        {"center": [0.0, 0.0], "radius": 1.0, "species_index": 1}]
    with pytest.raises(ConfigError, match="permutation"):
        parse_config(json.dumps(doc))


def test_probe_section_parsed():
    doc = json.loads(json.dumps(MINIMAL))
    doc["probes"] = {"uniqueness": {"delta": 0.05, "trials": 4, "seed": 3}}
    cfg = parse_config(json.dumps(doc))
    assert cfg.uniqueness.delta == 0.05
    assert cfg.uniqueness.trials == 4


def test_emit_field_header_and_zeros(tiny3, tmp_path):
    path = tmp_path / "zero.csv"
    emit_field(ScalarField.zeros(tiny3), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "3,3,1"
    assert lines[1:] == ["0,0,0"] * 3


def test_emit_read_round_trip_bit_exact(square16, tmp_path):
    rng = np.random.default_rng(17)
    for case in range(30):
        u = random_field(square16, rng, scale=10.0 ** rng.integers(-8, 8))
        path = tmp_path / f"f{case}.csv"
        emit_field(u, path)
        back = read_field(path, square16)
        assert np.array_equal(back.values, u.values)


def test_emit_field_deterministic_bytes(square16, tmp_path):
    u = random_field(square16, np.random.default_rng(23))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_field(u, p1)
    emit_field(u, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_field_validates_grid(square16, tiny3, tmp_path):
    u = random_field(square16, np.random.default_rng(29))
    path = tmp_path / "f.csv"
    emit_field(u, path)
    with pytest.raises(ValueError, match="does not match"):
        read_field(path, tiny3)
    values, h = read_field_values(path)
    assert values.shape == (square16.ny, square16.nx) and h == square16.h


def test_emit_image_zero_and_constant(square16, tmp_path):
    path = tmp_path / "zero.pgm"
    emit_image(ScalarField.zeros(square16), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == f"{square16.nx} {square16.ny}"
    assert lines[2] == "255"
    pixels = np.array([[int(p) for p in row.split()] for row in lines[3:]])
    assert pixels.shape == (square16.ny, square16.nx)
    assert np.all(pixels == 0)

    const = ScalarField(square16, np.ones((square16.ny, square16.nx)))
    emit_image(const, tmp_path / "one.pgm")
    lines = (tmp_path / "one.pgm").read_text().splitlines()
    pixels = np.array([[int(p) for p in row.split()] for row in lines[3:]])
    # rows are emitted top to bottom: flip back to grid orientation
    assert np.array_equal(pixels[::-1] > 0, square16.interior_mask)
    assert set(np.unique(pixels[::-1][square16.interior_mask])) == {255}


def test_emit_image_segregated_state_two_components(dumbbell2_trace, tmp_path):
    from scipy import ndimage

    final = dumbbell2_trace.final_state()
    total = ScalarField(final.domain, final[0].values + final[1].values)
    path = tmp_path / "seg.pgm"
    emit_image(total, path)
    lines = path.read_text().splitlines()
    pixels = np.array([[int(p) for p in row.split()] for row in lines[3:]])
    _, n = ndimage.label(pixels >= 1,
                         structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    assert n == 2
