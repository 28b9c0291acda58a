import json

import numpy as np
import pytest

from seglv import (ConfigError, ScalarField, emit_field, emit_image,
                   parse_config, read_field, read_field_values)
from seglv.cli import main
from conftest import random_field

MINIMAL = {
    "domain": {
        "bbox": [-1.4, -1.4, 1.4, 1.4],
        "h": 0.125,
        "balls": [{"center": [0.0, 0.0], "radius": 1.0}],
    },
    "species": [{"lambda": 12.0, "p": 2.0}],
}
# a test_mistyped_field_rejected value that deletes the key
MISSING = object()


def test_minimal_config_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.model.kind == "barrier" and cfg.model.truncation is False
    assert cfg.schedule.kappa_start == 1.0 and cfg.schedule.steps == 18
    assert cfg.solver.newton_tol == 1e-10
    assert cfg.solver.eig_tol == 1e-8
    assert cfg.uniqueness is None
    assert cfg.output.directory == "out" and cfg.output.emit_fields


def test_unknown_solver_key_ignored():
    # keys of earlier versions still parse: the Newton budget is the kernel's
    stale = {"cg_tol": 1e-10, "max_newton": 0, "max_backtracks": -1}
    doc = dict(MINIMAL, solver={"newton_tol": 1e-9, **stale})
    cfg = parse_config(json.dumps(doc))
    assert cfg.solver.newton_tol == 1e-9
    assert not any(hasattr(cfg.solver, key) for key in stale)


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


@pytest.mark.parametrize("section, key, value, match", [
    ("probes.uniqueness", "trials", "ten", "probes.uniqueness.trials"),
    ("probes.uniqueness", "delta", None, "probes.uniqueness.delta"),
    ("probes.uniqueness", "seed", [1], "probes.uniqueness.seed"),
    ("model", "truncation", "false", "model.truncation"),
    ("output", "emit_fields", "false", "output.emit_fields"),
    ("output", "emit_images", 1, "output.emit_images"),
    ("schedule", "steps", 17.9, "schedule.steps"),
    ("probes.uniqueness", "seed", True, "probes.uniqueness.seed"),
    ("solver", "newton_tol", "1e-10", "solver.newton_tol"),
    ("domain", "h", True, "domain.h"),
    ("domain.balls.0", "species_index", 0.7, "domain geometry"),
    # with the default 18 steps
    ("schedule", "kappa_start", 0, "schedule: kappa_start = 0"),
    ("output", "directory", None, "output.directory"),
    ("output", "directory", 3, "output.directory"),
    ("probes.uniqueness", "seed", -1, "probes.uniqueness.seed must be nonnegative"),
    # json reads NaN and Infinity, which no field may hold
    ("probes.uniqueness", "delta", float("nan"),
     "probes.uniqueness.delta: expected a finite number"),
    ("schedule", "factor", float("inf"), "schedule.factor: expected a finite number"),
    ("domain.balls.0", "radius", float("-inf"), "domain geometry: expected a finite"),
    pytest.param("domain", "h", 10 ** 400, "domain.h: expected a finite number",
                 id="domain-h-beyond_float-domain.h"),
    ("", "domain", MISSING, "missing required section 'domain'"),
    ("", "solver", 5, "section 'solver' must be an object"),
    ("domain", "h", MISSING, "domain.h is required"),
    ("domain", "bbox", [0.0, 1.0], "domain.bbox must be"),
    ("domain", "h", -0.125, "domain.h must be positive"),
    ("domain", "balls", [], "domain.balls must list at least one ball"),
    ("", "species", [], "species must be a non-empty list"),
    ("species.0", "p", MISSING, "each species needs 'lambda' and 'p'"),
    ("species.0", "p", 0.5, "species parameters: exponent p must exceed 1"),
    ("solver", "eig_tol", 0.0, "solver.eig_tol must be positive"),
    ("probes", "uniqueness", [], "probes.uniqueness must be an object"),
    ("probes.uniqueness", "delta", -0.1, "probes.uniqueness.delta must be nonnegative"),
    ("probes.uniqueness", "trials", 0, "probes.uniqueness.trials must be at least 1"),
    # the last kappa of the default ramp, 2^1099 or 1.7e308 * 2^17, is no float
    ("schedule", "steps", 1100, "schedule: the ramp's last kappa exceeds the float range"),
    ("schedule", "kappa_start", 1.7e308,
     "schedule: the ramp's last kappa exceeds the float range"),
])
def test_mistyped_field_rejected(section, key, value, match, tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL))
    target = doc
    for part in filter(None, section.split(".")):
        if isinstance(target, list):
            target = target[int(part)]
        else:
            target = target.setdefault(part, {})
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ConfigError, match=match):
        parse_config(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["nd-check", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config: {match}")
    assert not out.exists()


@pytest.mark.parametrize("center", [[], [0.0], [0, 0, 5], "xy"],
                         ids=["empty", "one", "three", "string"])
def test_ball_center_must_be_a_pair(center):
    doc = json.loads(json.dumps(MINIMAL))
    doc["domain"]["balls"][0]["center"] = center
    with pytest.raises(ConfigError, match=r"^domain\.balls\[0\]\.center must be \[x, y\]$"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("content, message", [
    (b"[1, 2]", "config root must be an object"),
    (json.dumps(MINIMAL).encode("latin-1").replace(b"12.0", b"\xff"),
     "is not UTF-8 text")], ids=["root_not_object", "not_utf8"])
def test_unreadable_config_rejected(content, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["nd-check", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and message in err
    assert not out.exists()


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
    lines = path.read_text().splitlines()
    for name, text, message in (("header.csv", ["3,3"] + lines[1:], "bad header"),
                                ("rows.csv", lines[:-1], "expected")):
        (tmp_path / name).write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=message):
            read_field_values(tmp_path / name)


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


def per_pixel_pgm(values):
    """The graymap bytes written pixel by pixel, the reference formula."""
    ny, nx = values.shape
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        pixels = np.zeros((ny, nx), dtype=int)
    else:
        pixels = np.clip(np.rint(255.0 * values / peak), 0, 255).astype(int)
    lines = ["P2", f"{nx} {ny}", "255"]
    for iy in range(ny - 1, -1, -1):
        lines.append(" ".join(str(p) for p in pixels[iy, :]))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("field", ["random_signed", "zero", "negative"])
def test_emit_image_matches_per_pixel_formula(square16, tmp_path, field):
    rng = np.random.default_rng(11)
    shape = (square16.ny, square16.nx)
    values = {"random_signed": rng.standard_normal(shape),
              "zero": np.zeros(shape),
              "negative": -rng.uniform(0.1, 2.0, shape)}[field]
    u = ScalarField(square16, values)
    path = tmp_path / "field.pgm"
    emit_image(u, path)
    assert path.read_bytes() == per_pixel_pgm(u.values)


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
