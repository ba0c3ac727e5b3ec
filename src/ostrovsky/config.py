"""Line-oriented run configuration and the reproducibility manifest.

Config files are plain text: `[section]` headers, `key = value` lines,
`#` comments.  Values stay strings until a typed accessor asks for them,
so error messages can name the offending key and file.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .errors import ConfigError


class Config:
    def __init__(self, sections: dict, source: str = "<memory>"):
        self._sections = sections
        self.source = source

    def section(self, name: str) -> "Section":
        if name not in self._sections:
            raise ConfigError(f"{self.source}: missing section [{name}]")
        return Section(name, self._sections[name], self.source)

    def as_dict(self) -> dict:
        return {k: dict(v) for k, v in self._sections.items()}


class Section:
    def __init__(self, name: str, values: dict, source: str):
        self.name = name
        self._values = values
        self.source = source

    def _fetch(self, key: str):
        if key not in self._values:
            raise ConfigError(
                f"{self.source}: missing required key `{key}` in section [{self.name}]"
            )
        return self._values[key]

    def get_float(self, key: str, default=None) -> float:
        if key not in self._values:
            if default is None:
                self._fetch(key)
            return default
        raw = self._values[key]
        try:
            return float(raw)
        except ValueError as err:
            raise ConfigError(f"{self.source}: key `{key}` = {raw!r} is not a number") from err

    def get_int(self, key: str, default=None) -> int:
        if key not in self._values:
            if default is None:
                self._fetch(key)
            return default
        raw = self._values[key]
        try:
            return int(raw)
        except ValueError as err:
            raise ConfigError(f"{self.source}: key `{key}` = {raw!r} is not an integer") from err

    def get_str(self, key: str, default=None) -> str:
        if key in self._values:
            return self._values[key]
        if default is not None:
            return default
        return self._fetch(key)

    def get_floats(self, key: str, default=None):
        if key not in self._values:
            if default is not None:
                return tuple(default)
            self._fetch(key)
        raw = self._values[key]
        try:
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        except ValueError as err:
            raise ConfigError(f"{self.source}: key `{key}` = {raw!r} is not a number list") from err

    def keys(self):
        return self._values.keys()


def parse_config_text(text: str, source: str = "<memory>") -> Config:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{source}:{lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {raw!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key before any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        sections[current][key] = value
    return Config(sections, source)


def load_config(path) -> Config:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


@dataclass
class RunManifest:
    """Everything needed to reproduce one command bit-exactly."""

    command: str
    config: dict
    seed: int
    out_dir: str
    version: str
    wall_clock_s: float = 0.0
    counts: dict = field(default_factory=dict)
    started_unix: float = field(default_factory=time.time)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "command": self.command,
                    "config": self.config,
                    "seed": self.seed,
                    "out_dir": self.out_dir,
                    "version": self.version,
                    "wall_clock_s": self.wall_clock_s,
                    "counts": self.counts,
                    "started_unix": self.started_unix,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
