"""Command-line pipeline driver.

Each subcommand runs one stage for every configured seed, reading and
writing the TSV artifacts under the output directory; run-all chains every
stage and prints the condition summary. Exit status is 0 on success and 1
with a diagnostic on any error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiment
from .experiment import ExperimentConfig


# name -> (help, stage function, what it prints: a template over n, out and
# seeds, or None for the summary of the results the stage returns)
COMMANDS = {
    "generate": ("generate synthetic graphs, cascades, and task features",
                 experiment.run_generate, "generated {n} world(s) under {out}"),
    "pretrain": ("pre-train embedding models (with and without subgraph terms)",
                 experiment.run_pretrain, "pre-trained checkpoints for seeds {seeds}"),
    "embed": ("write node embeddings from saved checkpoints",
              experiment.run_embed, "wrote embeddings for seeds {seeds}"),
    "pairs": ("build and split labeled propagation pairs",
              experiment.run_pairs, "built pairs for seeds {seeds}"),
    "train": ("train the per-condition classifiers",
              experiment.run_train, "trained classifiers for seeds {seeds}"),
    "evaluate": ("evaluate classifiers and write results.tsv", experiment.run_evaluate, None),
    "run-all": ("run every stage in order", experiment.run_all, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskprop",
        description="Heterogeneous-graph pre-training and default-risk propagation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        aliases = [name.replace("-", "_")] if "-" in name else []
        _add_common(sub.add_parser(name, aliases=aliases, help=help_text))
    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="experiment config file")
    p.add_argument("--out", type=Path, default=None, help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="run only this pipeline seed")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def _load_config(args: argparse.Namespace) -> tuple[ExperimentConfig, Path, tuple[int, ...]]:
    exp = experiment.parse_experiment_config(args.config) if args.config else ExperimentConfig()
    out_dir = Path(args.out) if args.out else Path(exp.output_dir)
    seeds = (args.seed,) if args.seed is not None else exp.seeds
    return exp, out_dir, seeds


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _, stage, message = COMMANDS[args.command.replace("_", "-")]
    try:
        exp, out_dir, seeds = _load_config(args)
        result = stage(exp, out_dir, seeds)
        if not args.quiet:
            if message is None:
                print(experiment.summary_text(result))
            else:
                print(message.format(n=len(seeds), out=out_dir, seeds=list(seeds)))
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
