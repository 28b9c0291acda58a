"""Run configuration: JSON parsing, validation, and defaults."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .continuation import ContinuationSchedule
from .domain import BallSpec, CorridorSpec
from .errors import ConfigError, DomainError
from .reaction import SpeciesParams
from .system import MODEL_KINDS


@dataclass
class DomainConfig:
    bbox: tuple[float, float, float, float]
    h: float
    balls: list[BallSpec]
    corridors: list[CorridorSpec]


@dataclass
class ModelConfig:
    kind: str = "barrier"
    truncation: bool = False


@dataclass
class SolverConfig:
    newton_tol: float = 1e-10
    eig_tol: float = 1e-8
    max_newton: int = 200
    max_backtracks: int = 30


@dataclass
class UniquenessProbeConfig:
    delta: float = 0.02
    trials: int = 10
    seed: int = 0


@dataclass
class OutputConfig:
    directory: str = "out"
    emit_fields: bool = True
    emit_images: bool = False


@dataclass
class RunConfig:
    domain: DomainConfig
    species: list[SpeciesParams]
    schedule: ContinuationSchedule
    model: ModelConfig = field(default_factory=ModelConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    uniqueness: UniquenessProbeConfig | None = None
    output: OutputConfig = field(default_factory=OutputConfig)


def _section(doc, name, required=False):
    value = doc.get(name)
    if value is None:
        if required:
            raise ConfigError(f"missing required section {name!r}")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return value


def _take(section, name, key, default=None, required=False, kind=None):
    if key not in section:
        if required:
            raise ConfigError(f"{name}.{key} is required")
        return default
    value = section[key]
    if kind is not None:
        try:
            value = kind(value)
        except TypeError as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from exc
    return value


def _json_bool(value):
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _json_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    # json reads NaN and Infinity; integers may also exceed the float range
    if not abs(value) <= sys.float_info.max:
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _json_int(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_str(value):
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises ConfigError with line/column context on malformed JSON, and with
    the violated invariant spelled out on semantic errors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")

    dom = _section(doc, "domain", required=True)
    bbox = _take(dom, "domain", "bbox", required=True)
    if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
        raise ConfigError("domain.bbox must be [x0, y0, x1, y1]")
    h = _take(dom, "domain", "h", required=True, kind=_json_number)
    if not h > 0:
        raise ConfigError("domain.h must be positive")
    try:
        bbox = tuple(_json_number(v) for v in bbox)
        balls = [
            BallSpec(center=(_json_number(b["center"][0]), _json_number(b["center"][1])),
                     radius=_json_number(b["radius"]),
                     species_index=_json_int(b.get("species_index", i)))
            for i, b in enumerate(dom.get("balls", []))
        ]
        corridors = [
            CorridorSpec(from_ball=_json_int(c["from_ball"]),
                         to_ball=_json_int(c["to_ball"]),
                         width=_json_number(c["width"]))
            for c in dom.get("corridors", [])
        ]
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"domain geometry: {exc}") from exc
    if not balls:
        raise ConfigError("domain.balls must list at least one ball")

    species_doc = doc.get("species")
    if not isinstance(species_doc, list) or not species_doc:
        raise ConfigError("species must be a non-empty list")
    try:
        species = [SpeciesParams(lam=_json_number(s["lambda"]), p=_json_number(s["p"]))
                   for s in species_doc]
    except KeyError as exc:
        raise ConfigError(f"each species needs 'lambda' and 'p'; missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"species parameters: {exc}") from exc

    if len(species) != len(balls):
        raise ConfigError(
            f"species count ({len(species)}) must equal ball count ({len(balls)}): "
            "each ball hosts one native species")
    hosted = sorted(b.species_index for b in balls)
    if hosted != list(range(len(species))):
        raise ConfigError("ball species_index values must be a permutation of 0..k-1")

    mod = _section(doc, "model")
    kind = _take(mod, "model", "kind", default="barrier")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {kind!r}")
    model = ModelConfig(kind=kind, truncation=_take(mod, "model", "truncation",
                                                    default=False, kind=_json_bool))

    sch = _section(doc, "schedule")
    # read before the try: a ConfigError is a ValueError too
    ramp = (_take(sch, "schedule", "kappa_start", default=1.0, kind=_json_number),
            _take(sch, "schedule", "factor", default=2.0, kind=_json_number),
            _take(sch, "schedule", "steps", default=18, kind=_json_int))
    try:
        schedule = ContinuationSchedule(*ramp)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    sol = _section(doc, "solver")
    solver = SolverConfig(
        newton_tol=_take(sol, "solver", "newton_tol", default=1e-10, kind=_json_number),
        eig_tol=_take(sol, "solver", "eig_tol", default=1e-8, kind=_json_number),
        max_newton=_take(sol, "solver", "max_newton", default=200, kind=_json_int),
        max_backtracks=_take(sol, "solver", "max_backtracks", default=30,
                             kind=_json_int),
    )
    for name in ("newton_tol", "eig_tol"):
        if not getattr(solver, name) > 0:
            raise ConfigError(f"solver.{name} must be positive")
    if solver.max_newton < 1 or solver.max_backtracks < 0:
        raise ConfigError("solver iteration budgets must be positive")

    probes = _section(doc, "probes")
    uniq_doc = probes.get("uniqueness")
    uniqueness = None
    if uniq_doc is not None:
        if not isinstance(uniq_doc, dict):
            raise ConfigError("probes.uniqueness must be an object")
        name = "probes.uniqueness"
        uniqueness = UniquenessProbeConfig(
            delta=_take(uniq_doc, name, "delta", default=0.02, kind=_json_number),
            trials=_take(uniq_doc, name, "trials", default=10, kind=_json_int),
            seed=_take(uniq_doc, name, "seed", default=0, kind=_json_int),
        )
        if uniqueness.delta < 0:
            raise ConfigError("probes.uniqueness.delta must be nonnegative")
        if uniqueness.trials < 1:
            raise ConfigError("probes.uniqueness.trials must be at least 1")
        if uniqueness.seed < 0:
            raise ConfigError("probes.uniqueness.seed must be nonnegative")

    out = _section(doc, "output")
    output = OutputConfig(
        directory=_take(out, "output", "directory", default="out", kind=_json_str),
        emit_fields=_take(out, "output", "emit_fields", default=True, kind=_json_bool),
        emit_images=_take(out, "output", "emit_images", default=False, kind=_json_bool),
    )

    return RunConfig(domain=DomainConfig(bbox=bbox, h=h,
                                         balls=balls, corridors=corridors),
                     species=species, model=model, schedule=schedule,
                     solver=solver, uniqueness=uniqueness, output=output)


def load_config(path) -> RunConfig:
    """Parse the UTF-8 JSON config at `path`; OSError when it cannot be
    read, ConfigError when it is not UTF-8 text or not a valid config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)
