"""File formats: field snapshots, CSV traces, JSON reports, SVG plots.

All numeric text uses shortest-round-trip decimals (repr), which is
bit-exact on reload and never exceeds 17 significant digits.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ConfigError
from .spectral import Field, Grid


def fmt(x) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def write_snapshot(path, field: Field, beta: float, gamma: float, k: int, t: float):
    """Field snapshot: one JSON header line, then one sample per line."""
    header = {
        "n": field.grid.n_points,
        "L": field.grid.length,
        "beta": beta,
        "gamma": gamma,
        "k": k,
        "t": t,
    }
    samples = "\n".join(map(repr, field.samples().tolist()))
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n" + samples + "\n")


SNAPSHOT_KEYS = ("n", "L", "beta", "gamma", "k")  # header keys a reader needs
INTEGER_KEYS = ("n", "k")  # the rest are finite numbers


def read_snapshot(path):
    """Returns (field, header_dict); inverse of write_snapshot bit-exactly.
    ConfigError naming the file when the header is not a JSON object
    holding SNAPSHOT_KEYS with integer n and k and finite L, beta and
    gamma, or a sample is not a finite number, or the sample count differs
    from the header's n."""
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:
            header = None
        if not isinstance(header, dict):
            raise ConfigError(f"snapshot {path}: first line is not a JSON object header")
        missing = [key for key in SNAPSHOT_KEYS if key not in header]
        if missing:
            raise ConfigError(f"snapshot {path}: header lacks {', '.join(missing)}")
        for key in SNAPSHOT_KEYS:
            value = header[key]
            if key in INTEGER_KEYS:
                valid, kind = type(value) is int, "an integer"
            else:
                valid = type(value) in (int, float) and math.isfinite(value)
                kind = "a finite number"
            if not valid:
                raise ConfigError(f"snapshot {path}: header {key} = {value!r} is not {kind}")
        try:
            samples = np.array([float(line) for line in fh if line.strip()])
        except ValueError as err:
            raise ConfigError(f"snapshot {path} holds a non-numeric sample: {err}") from err
    grid = Grid(int(header["n"]), float(header["L"]))
    if samples.size != grid.n_points:
        raise ConfigError(
            f"snapshot {path} holds {samples.size} samples, header says {grid.n_points}"
        )
    if not np.all(np.isfinite(samples)):
        raise ConfigError(f"snapshot {path} holds a non-finite sample")
    return Field.from_samples(grid, samples), header


def write_csv(path, columns: dict):
    """Columns of floats keyed by name, shortest-round-trip formatting."""
    names = list(columns)
    rows = len(next(iter(columns.values())))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(rows):
            fh.write(",".join(fmt(columns[c][i]) for c in names) + "\n")


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


SVG_WIDTH, SVG_HEIGHT = 640, 480


def svg_loglog(points, path, fit=None, title="", xlabel="", ylabel=""):
    """Minimal log-log scatter plus optional fitted power law, written to
    path as SVG.

    points: iterable of (x, y) with x, y > 0; fit: (slope, intercept) in
    log-space, drawn as a line across the x-range.
    """
    width, height = SVG_WIDTH, SVG_HEIGHT
    pts = [(float(x), float(y)) for x, y in points if x > 0 and y > 0]
    if not pts:
        raise ConfigError("nothing to plot")
    lx = [math.log10(p[0]) for p in pts]
    ly = [math.log10(p[1]) for p in pts]
    pad = 0.3
    x0, x1 = min(lx) - pad, max(lx) + pad
    y0, y1 = min(ly) - pad, max(ly) + pad
    margin = 54.0

    def sx(v):
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    axis = (
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>'
    )
    parts.append(axis)
    for d in range(math.ceil(x0), math.floor(x1) + 1):
        parts.append(
            f'<line x1="{sx(d):.1f}" y1="{height - margin}" x2="{sx(d):.1f}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
            f'<text x="{sx(d):.1f}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-size="11">1e{d}</text>'
        )
    for d in range(math.ceil(y0), math.floor(y1) + 1):
        parts.append(
            f'<line x1="{margin - 5}" y1="{sy(d):.1f}" x2="{margin}" y2="{sy(d):.1f}" '
            f'stroke="black"/>'
            f'<text x="{margin - 8}" y="{sy(d) + 4:.1f}" text-anchor="end" '
            f'font-size="11">1e{d}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 8}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>'
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{ylabel}</text>'
    )
    if fit is not None:
        slope, intercept = fit
        ya = slope * (x0 + pad) * math.log(10) + intercept
        yb = slope * (x1 - pad) * math.log(10) + intercept
        parts.append(
            f'<line x1="{sx(x0 + pad):.1f}" y1="{sy(ya / math.log(10)):.1f}" '
            f'x2="{sx(x1 - pad):.1f}" y2="{sy(yb / math.log(10)):.1f}" '
            f'stroke="gray" stroke-dasharray="5,4"/>'
        )
    for px, py in zip(lx, ly):
        parts.append(f'<circle cx="{sx(px):.1f}" cy="{sy(py):.1f}" r="4" fill="black"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
