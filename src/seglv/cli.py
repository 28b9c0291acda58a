"""Command-line front end.

Subcommands select how far the pipeline runs on one shared config:
solve-baseline, nd-check, continue, probe-uniqueness, plus a standalone
convergence-study.  Exit code 0 on full success; on failure the stage name
goes to stderr and the exit code is nonzero.  Partial outputs and the
summary are flushed either way.  ``-v/--verbose`` sends the package's
DEBUG log (LUs and their fill, Newton-step and chord-round decisions) to
stderr; the outputs are the same with or without it.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, PipelineError
from .fileio import emit_json
from .runner import convergence_study, run

_SUBCOMMAND_STAGE = {
    "solve-baseline": "baseline",
    "nd-check": "nd",
    "continue": "continuation",
    "probe-uniqueness": "uniqueness",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="seglv",
        description="Competing-species systems on ball-and-corridor domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve-baseline", "solve the per-ball baseline profiles"),
        ("nd-check", "baselines plus nondegeneracy margins"),
        ("continue", "full continuation toward the segregation limit"),
        ("probe-uniqueness", "continuation plus the multistart uniqueness probe"),
        ("convergence-study", "manufactured-solution grid refinement study"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "convergence-study":
            p.add_argument("config", help="path to the JSON run config")
        p.add_argument("--output", help="override the output directory")
        p.add_argument("-v", "--verbose", action="store_true",
                       help="log the solvers' DEBUG lines to stderr")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.verbose:
        return _main(args)
    # the package-wide logger, on the stderr of this call only
    logger = logging.getLogger("seglv")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return _main(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _main(args) -> int:
    if args.command == "convergence-study":
        outdir = Path(args.output or "out")
        outdir.mkdir(parents=True, exist_ok=True)
        study = convergence_study()
        emit_json({"convergence_study": study}, outdir / "summary.json")
        for h, err in zip(study["h"], study["l2_error"]):
            print(f"h={h:g}  l2_error={err:.6e}")
        print("ratios: " + ", ".join(f"{r:.3f}" for r in study["ratio"]))
        return 0

    try:
        config = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    if args.output:
        config.output.directory = args.output

    if args.command == "probe-uniqueness" and config.uniqueness is None:
        print("probe-uniqueness: config has no probes.uniqueness section",
              file=sys.stderr)
        return 2

    try:
        summary = run(config, until=_SUBCOMMAND_STAGE[args.command])
    except PipelineError as exc:
        print(f"{exc.stage}: {exc}", file=sys.stderr)
        return 1
    done = ", ".join(summary.stages_completed)
    print(f"completed stages: {done}")
    print(f"outputs in {config.output.directory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
