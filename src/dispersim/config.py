"""Flat key=value run configuration: parsing, validation, serialization.

The format is one ``key = value`` pair per line, ``#`` starts a comment,
blank lines are ignored.  Keys are exactly::

    nx, ny, lx, ly, a, b, m, eps, moll_radius, dt, t_end,
    picard_tol, picard_max, lin_tol, ic, ic_params, output_every,
    outdir

Required: nx, ny, a, b, m, dt, t_end, ic.  Everything else has a
documented default.  Errors carry the offending line number.

Keys, types and defaults are the fields of ``GridSpec``, ``PhysParams``,
``RegParams`` and ``RunConfig``; each value rule lives only in the
``__post_init__`` of the dataclass owning the field, and its message
names that field before any other key, which locates the line.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass
from typing import get_type_hints

from .transport import RunConfig


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_HINTS = get_type_hints(RunConfig)
# RunConfig fields that are dataclasses of their own, each contributing its fields as keys
_SECTIONS = {f.name: _HINTS[f.name] for f in fields(RunConfig) if is_dataclass(_HINTS[f.name])}


def _key_table() -> dict[str, tuple[str | None, type]]:
    """key -> (section holding it, or None for a top-level RunConfig field; value type), in file order."""
    table: dict[str, tuple[str | None, type]] = {}
    for f in fields(RunConfig):
        if f.name in _SECTIONS:
            cls = _SECTIONS[f.name]
            hints = get_type_hints(cls)
            table.update((g.name, (f.name, hints[g.name])) for g in fields(cls))
        else:
            table[f.name] = (None, _HINTS[f.name])
    return table


KEYS = _key_table()
# stricter than the dataclasses: RunConfig.ic has a default, the file format does not
REQUIRED_KEYS = ("nx", "ny", "a", "b", "m", "dt", "t_end", "ic")


def _build(values: dict[str, object]) -> RunConfig:
    """Construct the nested dataclasses from flat values; their validators run here."""
    groups: dict[str | None, dict[str, object]] = {None: {}, **{name: {} for name in _SECTIONS}}
    for key, val in values.items():
        groups[KEYS[key][0]][key] = val
    sections = {name: cls(**groups[name]) for name, cls in _SECTIONS.items()}
    return RunConfig(**sections, **groups[None])


def parse_config(text: str) -> RunConfig:
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r} (first set on line {lines[key]})", lineno)
        lines[key] = lineno
        kind = KEYS[key][1]
        try:
            values[key] = kind(val)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {noun}, got {val!r}", lineno) from None

    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")
    try:
        return _build(values)
    except ValueError as exc:
        named = next((w for w in re.findall(r"\w+", str(exc)) if w in KEYS), None)
        raise ConfigError(str(exc), lines.get(named)) from None


def read_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) == parse(text)."""
    out = []
    for key, (section, kind) in KEYS.items():
        val = getattr(getattr(cfg, section) if section else cfg, key)
        out.append(f"{key} = {format(val, '.17g') if kind is float else val}\n")
    return "".join(out)
