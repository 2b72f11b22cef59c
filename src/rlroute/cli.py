"""Command line front end.

    rlroute run --topology t8 --out results/
    rlroute gamma-study --topology t8 --gammas 0.3,0.5,0.7,0.9 --out study/
    rlroute compare-baseline --topology t7 --weights 0,0,0,0,1 --out cmp/
    rlroute validate-topology --topology mynet.json

T7 and T8 carry bundled demand sets used when --demands is omitted; any
other topology requires an explicit demand file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .engine import DEFAULT_HYPERPARAMETERS, Hyperparameters
from .harness import (
    DEFAULT_SEED,
    LOSS_MODES,
    ComparisonReport,
    ExperimentConfig,
    ExperimentReport,
    GammaStudyReport,
    compare_baseline,
    emit_comparison_reports,
    emit_gamma_reports,
    emit_reports,
    run_gamma_study,
    run_sequence,
)
from .network import TrafficDemand
from .rewards import DEFAULT_WEIGHTS, QoSWeights, make_weights
from .topologies import (
    BUILTIN_DEMAND_SETS,
    BUILTIN_TOPOLOGIES,
    builtin_demands,
    is_builtin,
    load_demands,
    resolve_topology,
)

DEFAULT_GAMMAS = (0.3, 0.5, 0.7, 0.9)
TOPOLOGY_HELP = f"topology JSON file, or a builtin id ({','.join(BUILTIN_TOPOLOGIES).upper()})"


def _parse_weights(text: str) -> QoSWeights:
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            f"--weights needs five comma-separated values wc,wt,wr,wi,wu, got {text!r}"
        )
    try:
        return make_weights(*map(float, parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_gammas(text: str) -> tuple[float, ...]:
    try:
        # An empty entry is refused too: float("") raises.
        values = tuple(map(float, text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad gamma list {text!r}") from exc
    # Their range is ExperimentConfig's to check: run_gamma_study builds
    # every group's config before any group runs.
    return values


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", required=True, help=TOPOLOGY_HELP)
    parser.add_argument(
        "--demands",
        help='demand JSON file: [{"src":0,"dst":26,"traffic_bps":1.0e5}, ...]; '
        "T7/T8 fall back to their bundled demand sets",
    )
    parser.add_argument(
        "--weights",
        type=_parse_weights,
        default=DEFAULT_WEIGHTS,
        metavar="WC,WT,WR,WI,WU",
        help="QoS weights: hop count, transmission, reliability, intensity, utilization "
        "(default 1,1,1,1,1)",
    )
    h = DEFAULT_HYPERPARAMETERS
    parser.add_argument("--epsilon", type=float, default=h.epsilon,
                        help=f"exploration probability (default {h.epsilon})")
    parser.add_argument("--alpha", type=float, default=h.alpha,
                        help=f"learning rate (default {h.alpha})")
    parser.add_argument("--gamma", type=float, default=h.gamma,
                        help=f"discount factor (default {h.gamma})")
    parser.add_argument("--ttl", type=int, default=h.ttl,
                        help=f"max hops per temp path (default {h.ttl})")
    parser.add_argument("--episodes", type=int, default=h.episodes,
                        help=f"learning episodes per demand (default {h.episodes})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED})")
    parser.add_argument("--loss-mode", choices=LOSS_MODES, default="off",
                        help="per-hop packet loss: off, or bernoulli with probability "
                        "1 - link reliability (default off)")
    parser.add_argument("--out", metavar="DIR", help="directory for report files")


def _demands_for(args: argparse.Namespace) -> list[TrafficDemand]:
    if args.demands:
        return load_demands(args.demands)
    if is_builtin(args.topology) and args.topology.lower() in BUILTIN_DEMAND_SETS:
        return builtin_demands(args.topology)
    raise SystemExit(
        f"error: --demands is required for topology {args.topology!r} "
        f"(only {', '.join(t.upper() for t in BUILTIN_DEMAND_SETS)} have bundled demand sets)"
    )


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    hyper = Hyperparameters(
        epsilon=args.epsilon,
        alpha=args.alpha,
        gamma=args.gamma,
        ttl=args.ttl,
        episodes=args.episodes,
    )
    return ExperimentConfig(
        topology=args.topology,
        demands=_demands_for(args),
        weights=args.weights,
        hyper=hyper,
        use_global=args.use_global,
        global_gamma=args.global_gamma,
        seed=args.seed,
        loss_mode=args.loss_mode,
    )


def _print_run_summary(report: ExperimentReport) -> None:
    for outcome in report.outcomes:
        if outcome.routed:
            path = "->".join(map(str, outcome.final_path.nodes))
            converged = (
                f"converged at episode {outcome.converged_episode}"
                if outcome.converged_episode is not None
                else "did not converge"
            )
            print(f"demand {outcome.demand.src}->{outcome.demand.dst}: {path} ({converged})")
        else:
            print(f"demand {outcome.demand.src}->{outcome.demand.dst}: not routed")
    print(f"max link utilization: {report.max_link_utilization:.4f}")
    print(f"total convergence episodes: {report.total_convergence_episodes}")
    print(
        "messages: "
        f"{report.total_messages_with_aggregation} with aggregation, "
        f"{report.total_messages_without_aggregation} without"
    )


def _print_gamma_summary(study: GammaStudyReport) -> None:
    for label, report in zip(study.group_labels(), study.group_reports()):
        print(f"{label}: {report.total_convergence_episodes} total convergence episodes")


def _print_comparison_summary(comparison: ComparisonReport) -> None:
    print(f"learned max link utilization:  {comparison.learned.max_link_utilization:.4f}")
    print(f"baseline max link utilization: {comparison.baseline_max_link_utilization:.4f}")


# Study subcommand -> (help, study of (config, args), summary printer, emitter).
_STUDIES = {
    "run": (
        "route a demand sequence and report paths and link loads",
        lambda config, args: run_sequence(config),
        _print_run_summary,
        emit_reports,
    ),
    "gamma-study": (
        "convergence speed with global-table reuse across a set of gamma values",
        lambda config, args: run_gamma_study(config, args.gammas),
        _print_gamma_summary,
        emit_gamma_reports,
    ),
    "compare-baseline": (
        "route the same sequence with the learner and a min-hop baseline",
        lambda config, args: compare_baseline(config),
        _print_comparison_summary,
        emit_comparison_reports,
    ),
}


def _cmd_study(args: argparse.Namespace) -> int:
    _, study, print_summary, emit = _STUDIES[args.command]
    result = study(_config_from(args), args)
    print_summary(result)
    if args.out:
        for path in emit(result, args.out):
            print(f"wrote {path}")
    return 0


def _cmd_validate_topology(args: argparse.Namespace) -> int:
    try:
        graph = resolve_topology(args.topology)
    except (ValueError, OSError) as exc:
        print(f"invalid topology: {exc}", file=sys.stderr)
        return 1
    print(f"topology ok: {graph.num_nodes} nodes, {len(graph.link_index().targets)} links")
    print(f"max link utilization: {graph.max_link_utilization():.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlroute",
        description="QoS-aware reinforcement-learning path finding on simulated networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    studies = {name: sub.add_parser(name, help=entry[0]) for name, entry in _STUDIES.items()}
    for study in studies.values():
        _add_common_arguments(study)
        study.set_defaults(func=_cmd_study)
    for name in ("run", "compare-baseline"):
        studies[name].add_argument(
            "--use-global", action="store_true",
            help="seed each demand's local table from the shared global table")
        studies[name].add_argument(
            "--global-gamma", type=float, default=None,
            help="discount factor for global-table updates, with --use-global "
            f"(default {DEFAULT_HYPERPARAMETERS.gamma}, the framework default, "
            "independent of --gamma)")
    # The study sets use_global and global_gamma per group itself.
    studies["gamma-study"].set_defaults(use_global=False, global_gamma=None)
    studies["gamma-study"].add_argument(
        "--gammas",
        type=_parse_gammas,
        default=DEFAULT_GAMMAS,
        metavar="G1,G2,...",
        help="gamma values for the test groups (default 0.3,0.5,0.7,0.9)",
    )

    validate = sub.add_parser("validate-topology", help="parse and sanity-check a topology")
    validate.add_argument("--topology", required=True, help=TOPOLOGY_HELP)
    validate.set_defaults(func=_cmd_validate_topology)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
