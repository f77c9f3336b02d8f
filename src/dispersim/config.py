"""The run configuration: ``RunConfig``, its rules, and its flat key=value file format.

``RunConfig`` holds the problem's data (grid, a, b, m, the regularization,
the initial condition) and the scheme's dt, tolerances and output.  The
rules of ``ic`` and ``ic_params`` (``_preset_params``) and the
acceptance suite's ``reference_config`` live here too; the formulas of the
initial conditions stay with the solver in ``transport``.

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

import math
import re
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .coefficients import PhysParams, RegParams
from .grid import GridSpec


# The most steps a run may plan, t_end/dt: about a thousand times the longest
# run the package makes (mms --case coupled --levels 8, 1,024 steps).  A
# reference step at n = 129 takes about 0.025 s on a 2-core x86-64 host, so
# 10^6 of them already run for 7 hours and write 10^6 diagnostics rows.
_MAX_STEPS = 10**6


@dataclass
class RunConfig:
    grid: GridSpec
    phys: PhysParams
    reg: RegParams
    dt: float
    t_end: float
    picard_tol: float = 1e-10
    picard_max: int = 30
    lin_tol: float = 1e-10
    ic: str = "gaussian"
    ic_params: str = ""
    output_every: int = 0
    outdir: str = ""

    def __post_init__(self):
        for name in ("dt", "t_end", "picard_tol", "lin_tol"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be at least dt, got t_end={self.t_end}, dt={self.dt}")
        # run() takes about t_end/dt steps; past _MAX_STEPS (also when the ratio overflows) it would not finish
        if not self.t_end / self.dt <= _MAX_STEPS:
            raise ValueError(
                f"dt is too small for t_end: t_end/dt = {self.t_end / self.dt:.3g} steps exceeds {_MAX_STEPS:,},"
                f" got dt={self.dt}, t_end={self.t_end}"
            )
        if self.picard_max < 1:
            raise ValueError(f"picard_max must be at least 1, got {self.picard_max}")
        if self.output_every < 0:
            raise ValueError(f"output_every must be nonnegative, got {self.output_every}")
        _preset_params(self.ic, self.ic_params, self.grid)
        # the mollifier radius is bounded by the domain, which RegParams does not know
        if self.reg.moll_radius > 0.5 * min(self.grid.lx, self.grid.ly):
            raise ValueError(f"moll_radius {self.reg.moll_radius} exceeds half the domain size")


def _parse_params(text: str) -> dict[str, float]:
    """The name=value pairs of ``ic_params``; each message names ``ic_params`` first, which locates its line."""
    out: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"ic_params: malformed parameter {part!r}, expected name=value")
        key, val = part.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"ic_params: duplicate parameter {key!r}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ValueError(f"ic_params: parameter {key!r} has non-numeric value {val!r}") from exc
        if not math.isfinite(out[key]):
            raise ValueError(f"ic_params: parameter {key!r} must be finite, got {val!r}")
    return out


_PRESET_ALIASES = {"gaussian-bump": "gaussian", "cosine-checker": "checker"}


def _preset_params(ic: str, ic_params: str, grid: GridSpec) -> tuple[str, dict[str, float]] | None:
    """The preset that ``ic`` names and its parameters, defaults filled in; None for a snapshot path.

    Names the preset does not take, a width that is not positive or so
    small that (lx^2 + ly^2)/(2 width^2) is not a finite float, and any
    parameter given with a snapshot are errors; like those of
    ``_parse_params``, each message names ``ic_params`` first.  An ``ic``
    that is neither a preset nor an existing file is an error naming ``ic``.
    """
    params = _parse_params(ic_params)
    name = ic.strip().lower()
    name = _PRESET_ALIASES.get(name, name)
    defaults = {
        "constant": {"value": 1.0},
        "gaussian": {"amplitude": 1.0, "cx": grid.lx / 2.0, "cy": grid.ly / 2.0, "width": 0.1},
        "stripe": {"amplitude": 1.0, "cx": grid.lx / 2.0, "width": 0.1},
        "checker": {"amplitude": 1.0, "kx": 1.0, "ky": 1.0},
    }.get(name)
    if defaults is None:
        if not Path(ic).is_file():
            raise ValueError(f"ic: unknown ic preset or missing file: {ic!r}")
        if params:
            raise ValueError(f"ic_params: a snapshot initial condition takes no parameters, got {sorted(params)}")
        return None
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"ic_params: unknown ic parameters for {name!r}: {sorted(unknown)}")
    merged = {**defaults, **params}
    if "width" in merged:
        width = merged["width"]
        if not width > 0:
            raise ValueError(f"ic_params: width must be positive, got {width}")
        # (lx^2 + ly^2)/(2 width^2) bounds the exponents the preset evaluates; a width^2 that underflows to 0 fails too
        if not (width * width > 0 and math.isfinite((grid.lx * grid.lx + grid.ly * grid.ly) / (2.0 * width * width))):
            raise ValueError(f"ic_params: width {width} is too small: (lx^2 + ly^2)/(2 width^2) is not a finite float")
    return name, merged


def reference_config(n: int = 65, a: float = 1.0, b: float = 2.0, m: float = 0.5, t_end: float = 0.25) -> RunConfig:
    return RunConfig(
        grid=GridSpec(n, n),
        phys=PhysParams(a, b, m),
        reg=RegParams(),
        dt=1.0 / (n - 1),
        t_end=t_end,
        ic="gaussian",
        ic_params="amplitude=1,width=0.1",
    )


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
