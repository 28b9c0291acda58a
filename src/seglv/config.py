"""Run configuration: JSON parsing, validation, and defaults."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields

from .continuation import ContinuationSchedule
from .domain import BallSpec, CorridorSpec
from .errors import ConfigError, DomainError
from .newton import NEWTON_TOL
from .reaction import SpeciesParams
from .scalar import EIG_TOL
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

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(
                f"model.kind must be one of {MODEL_KINDS}, got {self.kind!r}")


@dataclass
class SolverConfig:
    newton_tol: float = NEWTON_TOL
    eig_tol: float = EIG_TOL

    def __post_init__(self):
        for name in ("newton_tol", "eig_tol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"solver.{name} must be positive")


@dataclass
class UniquenessProbeConfig:
    delta: float = 0.02
    trials: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.delta < 0:
            raise ConfigError("probes.uniqueness.delta must be nonnegative")
        if self.trials < 1:
            raise ConfigError("probes.uniqueness.trials must be at least 1")
        if self.seed < 0:
            raise ConfigError("probes.uniqueness.seed must be nonnegative")


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


def _take(section, name, key, kind=None):
    if key not in section:
        raise ConfigError(f"{name}.{key} is required")
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


def _center(value, i):
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"domain.balls[{i}].center must be [x, y]")
    return _json_number(value[0]), _json_number(value[1])


# a field's annotation, a string under postponed evaluation, names its reader
_READERS = {"float": _json_number, "int": _json_int, "bool": _json_bool,
            "str": _json_str}


def _read(cls, section, name):
    """`cls` read from the JSON object `section` at `name`: each field is
    the key of its name, read by its annotation's reader, and keeps its
    default when absent; keys that name no field are ignored."""
    values = {f.name: _take(section, name, f.name, kind=_READERS[f.type])
              for f in fields(cls) if f.name in section}
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:  # ContinuationSchedule's range rules
        raise ConfigError(f"{name}: {exc}") from exc


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
    bbox = _take(dom, "domain", "bbox")
    if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
        raise ConfigError("domain.bbox must be [x0, y0, x1, y1]")
    h = _take(dom, "domain", "h", kind=_json_number)
    if not h > 0:
        raise ConfigError("domain.h must be positive")
    try:
        bbox = tuple(_json_number(v) for v in bbox)
        balls = [
            BallSpec(center=_center(b["center"], i),
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
    except ConfigError:
        raise
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

    model = _read(ModelConfig, _section(doc, "model"), "model")
    schedule = _read(ContinuationSchedule, _section(doc, "schedule"), "schedule")
    solver = _read(SolverConfig, _section(doc, "solver"), "solver")
    uniq_doc = _section(doc, "probes").get("uniqueness")
    uniqueness = None
    if uniq_doc is not None:
        if not isinstance(uniq_doc, dict):
            raise ConfigError("probes.uniqueness must be an object")
        uniqueness = _read(UniquenessProbeConfig, uniq_doc, "probes.uniqueness")
    output = _read(OutputConfig, _section(doc, "output"), "output")

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
