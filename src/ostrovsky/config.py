"""Line-oriented run configuration and the reproducibility manifest.

Config files are plain text: `[section]` headers, `key = value` lines,
`#` comments.  Values stay strings until a typed accessor asks for them,
so error messages can name the offending key and file.  A section
remembers which keys were asked for, so a command can reject the keys
it never read (a misspelt key would otherwise be silently ignored).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError


class Config:
    def __init__(self, sections: dict, source: str = "<memory>", lines: dict | None = None):
        self._sections = sections
        self.source = source
        self._lines = lines or {}  # section -> key -> line number in source

    def section(self, name: str) -> "Section":
        if name not in self._sections:
            raise ConfigError(f"{self.source}: missing section [{name}]")
        return Section(name, self._sections[name], self.source, self._lines.get(name))

    def as_dict(self) -> dict:
        return {k: dict(v) for k, v in self._sections.items()}


class Section:
    def __init__(self, name: str, values: dict, source: str, lines: dict):
        self.name = name
        self._values = values
        self.source = source
        self._lines = lines  # key -> line number in source
        self._read = set()

    def _lookup(self, key: str, default, parse, kind: str):
        """parse(value) of key; default when key is absent, ConfigError
        naming key and file when it is absent without a default or when
        parse rejects the value."""
        self._read.add(key)
        if key not in self._values:
            if default is None:
                raise ConfigError(
                    f"{self.source}: missing required key `{key}` in section [{self.name}]"
                )
            return default
        raw = self._values[key]
        try:
            return parse(raw)
        except ValueError as err:
            raise ConfigError(f"{self.source}: key `{key}` = {raw!r} is not {kind}") from err

    def get_float(self, key: str, default=None) -> float:
        return self._lookup(key, default, float, "a number")

    def get_int(self, key: str, default=None) -> int:
        return self._lookup(key, default, int, "an integer")

    def get_str(self, key: str, default=None) -> str:
        return self._lookup(key, default, str, "a string")

    def get_floats(self, key: str, default=None) -> tuple:
        return self._lookup(key, default, _float_list, "a number list")

    def keys(self):
        return self._values.keys()

    def reject_unread(self):
        """ConfigError naming file, line and key for the first key, in file
        order, that no accessor has asked for."""
        for key in self._values:
            if key not in self._read:
                raise ConfigError(
                    f"{self.source}:{self._lines[key]}: unknown key `{key}` in [{self.name}]")


def _float_list(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def parse_config_text(text: str, source: str = "<memory>") -> Config:
    sections: dict = {}
    lines: dict = {}
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
            lines.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {raw!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key before any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"{source}:{lineno}: duplicate key `{key}` in [{current}]")
        sections[current][key] = value
        lines[current][key] = lineno
    return Config(sections, source, lines)


def load_config(path) -> Config:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


@dataclass
class RunManifest:
    """Everything needed to reproduce one command bit-exactly, including its
    argument list and the numpy version and platform the results depend on."""

    command: str
    argv: list
    config: dict
    seed: int
    out_dir: str
    version: str
    wall_clock_s: float = 0.0
    counts: dict = field(default_factory=dict)
    started_unix: float = field(default_factory=time.time)

    def write(self, path):
        record = dict(asdict(self), numpy=np.__version__, platform=platform.platform())
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
