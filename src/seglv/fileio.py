"""Field serialization: CSV grids, plain-text graymap images and JSON.

CSV layout: header "nx,ny,h", then ny rows of nx comma-separated values in
row-major order with y ascending, 17 significant digits (lossless float64
round trip).  Images are plain P2 graymaps, rows emitted top to bottom,
pixels scaled to the field's max magnitude.  JSON records are indented by 2
with sorted keys and end in a newline, so equal records are equal bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .domain import GridDomain
from .operators import ScalarField


# decimal text of every gray level, indexed by the level
_GRAY = np.array([str(level) for level in range(256)], dtype=object)


def _fmt(x: float) -> str:
    """x as decimal text of 17 significant digits, which reads back as the
    same float: the values of field files and the kappa of trace names."""
    return format(float(x), ".17g")


def emit_field(u: ScalarField, path) -> None:
    """Write a field as a CSV grid; non-interior nodes are written as 0."""
    d = u.domain
    lines = [f"{d.nx},{d.ny},{_fmt(d.h)}"]
    for iy in range(d.ny):
        lines.append(",".join(_fmt(v) for v in u.values[iy, :]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field_values(path):
    """Read a CSV grid back as (values, h); inverse of emit_field."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 3:
            raise ValueError(f"{path}: bad header {header!r}")
        nx, ny, h = int(header[0]), int(header[1]), float(header[2])
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if values.shape != (ny, nx):
        raise ValueError(f"{path}: expected {ny}x{nx} rows, got {values.shape}")
    return values, h


def read_field(path, domain: GridDomain) -> ScalarField:
    """Read a CSV grid onto an existing domain (shapes and spacing must match)."""
    values, h = read_field_values(path)
    if values.shape != (domain.ny, domain.nx) or h != domain.h:
        raise ValueError(f"{path}: grid does not match the domain")
    return ScalarField(domain, values)


def emit_image(u: ScalarField, path) -> None:
    """Write a plain P2 graymap of u * 255 / max|u|, rows top to bottom;
    negative values are written as 0 (black)."""
    d = u.domain
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        pixels = np.zeros((d.ny, d.nx), dtype=int)
    else:
        pixels = np.clip(np.rint(255.0 * u.values / peak), 0, 255).astype(int)
    lines = ["P2", f"{d.nx} {d.ny}", "255"]
    lines.extend(" ".join(row) for row in _GRAY[pixels[::-1]].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_json(obj, path) -> None:
    """Write a JSON record: indent 2, sorted keys, UTF-8, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
