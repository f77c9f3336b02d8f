"""Command-line interface.

Subcommands::

    dispersim run    --config PATH [--outdir PATH]
    dispersim verify [--suite {identities,appendix,solver,all}] [--seed N]
    dispersim mms    --case {poisson,coupled} [--levels N]
    dispersim sweep  --config PATH --param NAME=v1,v2,...

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, read_config
from .elliptic import SolverError


def _seed(text: str) -> int:
    """A random seed: numpy takes nonnegative integers only."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dispersim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="march a configured simulation and persist its artifacts")
    p_run.add_argument("--config", required=True, help="path to a key = value run configuration")
    p_run.add_argument("--outdir", default=None, help="output directory (overrides the config's outdir)")

    p_ver = sub.add_parser("verify", help="run a verification suite and emit a pass/fail table")
    p_ver.add_argument("--suite", default="all", choices=("identities", "appendix", "solver", "all"))
    p_ver.add_argument("--seed", type=_seed, default=None, help="override the suite's fixed random seed")

    p_mms = sub.add_parser("mms", help="convergence-order study on manufactured/self-refined solutions")
    p_mms.add_argument("--case", required=True, choices=("poisson", "coupled"))
    p_mms.add_argument("--levels", type=int, default=4)

    p_sw = sub.add_parser("sweep", help="run one configuration across a list of parameter values")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--param", required=True, help="NAME=v1,v2,... over a, b, m, eps, moll_radius, or dt")
    p_sw.add_argument("--outdir", default=None, help="sweep output root (default: <config outdir or sweep_out>)")
    return parser


def _cmd_run(args) -> int:
    from .transport import run

    cfg = read_config(args.config)
    outdir = args.outdir or cfg.outdir or "run_out"
    tr = run(cfg, outdir=outdir)
    last = tr.diagnostics[-1]
    print(
        f"completed {last.step} steps to t = {last.t:g}; "
        f"umax = {last.umax:.6g}, mass drift = {last.mass_drift:.3e}; artifacts in {outdir}"
    )
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import DEFAULT_SEED
    from .verify import verify_command

    seed = DEFAULT_SEED if args.seed is None else args.seed
    return verify_command(args.suite, seed)


def _cmd_mms(args) -> int:
    from .mms import coupled_time_convergence, format_convergence_table, poisson_convergence

    if args.case == "poisson":
        rows, slope = poisson_convergence(levels=args.levels)
    else:
        rows, slope = coupled_time_convergence(levels=args.levels)
    print(f"case: {args.case}")
    print(format_convergence_table(rows, slope))
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import parse_param_spec, run_sweep

    cfg = read_config(args.config)
    name, values = parse_param_spec(args.param)
    outdir = args.outdir or cfg.outdir or "sweep_out"
    run_sweep(cfg, name, values, outdir)
    print(f"swept {name} over {len(values)} value(s); summary in {outdir}/summary.csv")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "verify": _cmd_verify, "mms": _cmd_mms, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
