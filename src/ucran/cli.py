"""Command-line front end: one-off trials and Monte Carlo campaigns.

Every scenario parameter is exposed as a flag (kebab-case of the config
field name); a ``key = value`` config file can set the same parameters,
with flags taking precedence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (ALGORITHMS, AuditError, CampaignReport, run_campaign, run_trial,
                      write_csv)
from .topology import FIELD_RULES, SimConfig, make_config


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scenario parameters")
    for field in dataclasses.fields(SimConfig):     # flags in field order
        group.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                           type=FIELD_RULES[field.name][0], metavar="X", default=None)
    group.add_argument("--config", default=None, metavar="FILE",
                       help="key = value file with the same parameter names")


def _config_from(args: argparse.Namespace) -> SimConfig:
    overrides = {name: getattr(args, name) for name in FIELD_RULES}
    return make_config(config_file=args.config, **overrides)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucran",
        description="Two-stage pilot allocation and robust downlink admission "
                    "simulator for ultra-dense user-centric C-RAN.")
    sub = parser.add_subparsers(dest="command", required=True)

    trial = sub.add_parser("trial", help="run a single seeded trial")
    _add_config_flags(trial)
    trial.add_argument("--seed", type=int, default=None,
                       help="trial seed (default: master_seed)")
    trial.add_argument("--algorithm", default="proposed", choices=ALGORITHMS)
    trial.add_argument("--out", default=None, metavar="CSV",
                       help="write the result row here instead of stdout")

    campaign = sub.add_parser("campaign", help="run a seed-averaged sweep")
    _add_config_flags(campaign)
    campaign.add_argument("--algorithms", default="proposed",
                          help="comma-separated subset of " + ",".join(ALGORITHMS))
    campaign.add_argument("--seeds", type=int, default=100,
                          help="number of seeds per sweep cell")
    campaign.add_argument("--cluster-sizes", type=_int_list, default=None,
                          metavar="L1,L2,...")
    campaign.add_argument("--pilot-budgets", type=_int_list, default=None,
                          metavar="T1,T2,...")
    campaign.add_argument("--out", default=None, metavar="CSV",
                          help="write rows here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from(args)
        if args.command == "trial":
            seed = config.master_seed if args.seed is None else args.seed
            result = run_trial(config, seed, args.algorithm)
            report = CampaignReport(cells={}, trials=(result,))
        else:
            algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
            sizes, budgets = args.cluster_sizes, args.pilot_budgets
            cluster_sizes = [config.cluster_size] if sizes is None else sizes
            pilot_budgets = [config.pilot_count] if budgets is None else budgets
            report = run_campaign(config, cluster_sizes, pilot_budgets,
                                  algorithms=algorithms, num_seeds=args.seeds)
        write_csv(report, sys.stdout if args.out is None else args.out)
    except (ValueError, OSError, AuditError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
