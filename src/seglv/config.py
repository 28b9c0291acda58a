"""Run configuration: JSON parsing, validation, and defaults."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
class ScheduleConfig:
    kappa_start: float = 1.0
    factor: float = 2.0
    steps: int = 18


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
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from exc
    return value


def _json_bool(value):
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
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
    h = _take(dom, "domain", "h", required=True, kind=float)
    if not h > 0:
        raise ConfigError("domain.h must be positive")
    try:
        balls = [
            BallSpec(center=(float(b["center"][0]), float(b["center"][1])),
                     radius=float(b["radius"]),
                     species_index=int(b.get("species_index", i)))
            for i, b in enumerate(dom.get("balls", []))
        ]
        corridors = [
            CorridorSpec(from_ball=int(c["from_ball"]), to_ball=int(c["to_ball"]),
                         width=float(c["width"]))
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
        species = [SpeciesParams(lam=float(s["lambda"]), p=float(s["p"]))
                   for s in species_doc]
    except KeyError as exc:
        raise ConfigError(f"each species needs 'lambda' and 'p'; missing {exc}") from exc
    except ValueError as exc:
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
    schedule = ScheduleConfig(
        kappa_start=_take(sch, "schedule", "kappa_start", default=1.0, kind=float),
        factor=_take(sch, "schedule", "factor", default=2.0, kind=float),
        steps=_take(sch, "schedule", "steps", default=18, kind=int),
    )
    if schedule.kappa_start < 0:
        raise ConfigError("schedule.kappa_start must be nonnegative")
    if not schedule.factor > 1:
        raise ConfigError("schedule.factor must exceed 1")
    if schedule.steps < 1:
        raise ConfigError("schedule.steps must be at least 1")

    sol = _section(doc, "solver")
    solver = SolverConfig(
        newton_tol=_take(sol, "solver", "newton_tol", default=1e-10, kind=float),
        eig_tol=_take(sol, "solver", "eig_tol", default=1e-8, kind=float),
        max_newton=_take(sol, "solver", "max_newton", default=200, kind=int),
        max_backtracks=_take(sol, "solver", "max_backtracks", default=30, kind=int),
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
            delta=_take(uniq_doc, name, "delta", default=0.02, kind=float),
            trials=_take(uniq_doc, name, "trials", default=10, kind=int),
            seed=_take(uniq_doc, name, "seed", default=0, kind=int),
        )
        if uniqueness.delta < 0:
            raise ConfigError("probes.uniqueness.delta must be nonnegative")
        if uniqueness.trials < 1:
            raise ConfigError("probes.uniqueness.trials must be at least 1")

    out = _section(doc, "output")
    output = OutputConfig(
        directory=str(_take(out, "output", "directory", default="out")),
        emit_fields=_take(out, "output", "emit_fields", default=True, kind=_json_bool),
        emit_images=_take(out, "output", "emit_images", default=False, kind=_json_bool),
    )

    return RunConfig(domain=DomainConfig(bbox=tuple(float(v) for v in bbox), h=h,
                                         balls=balls, corridors=corridors),
                     species=species, model=model, schedule=schedule,
                     solver=solver, uniqueness=uniqueness, output=output)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
