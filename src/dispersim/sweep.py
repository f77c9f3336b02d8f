"""Parameter sweeps: one run directory per value plus a final-diagnostics summary."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .config import KEYS, ConfigError, RunConfig
from .transport import DIAGNOSTIC_COLUMNS, _format_row, run

SWEEPABLE = ("a", "b", "m", "eps", "moll_radius", "dt")


def parse_param_spec(spec: str) -> tuple[str, list[float]]:
    """Parse ``name=v1,v2,...`` into a sweepable parameter name and its values."""
    if "=" not in spec:
        raise ConfigError(f"sweep parameter must look like name=v1,v2,..., got {spec!r}")
    name, _, rest = spec.partition("=")
    name = name.strip()
    if name not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {name!r}; choose one of {', '.join(SWEEPABLE)}")
    values: list[float] = []
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(float(part))
        except ValueError:
            raise ConfigError(f"sweep value {part!r} is not a number") from None
    if not values:
        raise ConfigError(f"no sweep values given in {spec!r}")
    return name, values


def apply_value(cfg: RunConfig, name: str, value: float) -> RunConfig:
    """A copy of ``cfg`` with one parameter changed, validated like a parsed config."""
    section = KEYS[name][0]
    try:
        if section is None:
            return replace(cfg, **{name: value})
        return replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})
    except ValueError as exc:
        raise ConfigError(f"sweep value {name}={value} is invalid: {exc}") from exc


def run_sweep(cfg: RunConfig, name: str, values: list[float], outdir) -> None:
    """Run every parameter value; summary rows are ordered by value.

    Every value is validated, and must get a run directory of its own,
    before anything is written.
    """
    variants = [(f"{name}_{v:g}", v, apply_value(cfg, name, v)) for v in sorted(values)]
    by_dir: dict[str, list[float]] = {}
    for subdir, v, _ in variants:
        by_dir.setdefault(subdir, []).append(v)
    shared = [f"{', '.join(f'{name}={v!r}' for v in vs)} in {d}" for d, vs in by_dir.items() if len(vs) > 1]
    if shared:
        raise ConfigError(f"sweep values would share a run directory: {'; '.join(shared)}")
    base = Path(outdir)
    base.mkdir(parents=True, exist_ok=True)
    with open(base / "summary.csv", "w") as fh:
        fh.write("param,value," + ",".join(DIAGNOSTIC_COLUMNS) + "\n")
        for subdir, v, variant in variants:
            last = run(variant, outdir=base / subdir).diagnostics[-1]
            fh.write(f"{name},{v:.17g}," + _format_row(last) + "\n")
            fh.flush()
