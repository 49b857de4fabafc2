"""Command-line front end.

Subcommands: generate, metrics, attack, elasticity, bound, tradeoff, run.
Exit codes: 2 parse errors, 3 parameter errors, 4 compute errors, 5 io errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ComputeError, ParameterError, ParseError
from .experiment import load_config, run_experiment
from .generators import FAMILIES, GeneratorSpec, _param_types
from .graph import METRICS_CSV_HEADER, fmt, load_edge_list, metrics, save_edge_list
from .robustness import (
    ATTACK_KINDS,
    AttackStrategy,
    _keep_freed_heap,
    attack_sequence,
    elasticity,
    mesh_elasticity_continuous,
    mesh_elasticity_discrete,
    tradeoff_re,
    TradeoffParams,
)
from .throughput import MODEL_KINDS, TIE_BREAKS, ThroughputModel

EXIT_PARSE = 2
EXIT_PARAMETER = 3
EXIT_COMPUTE = 4
EXIT_IO = 5


# help of the generate flags that have one
_GENERATOR_HELP = {"n": "node count", "p": "edge/rewiring probability",
                   "k": "ring-lattice neighbour count", "m": "links per arriving node"}


def _add_generator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    for name, kind in _param_types().items():
        how = {"action": "store_true"} if kind is bool else {"type": kind}
        flag = ("-" if len(name) == 1 else "--") + name
        p.add_argument(flag, default=argparse.SUPPRESS, help=_GENERATOR_HELP.get(name), **how)


def _spec_from_args(args) -> GeneratorSpec:
    given = {name: getattr(args, name) for name in _param_types() if hasattr(args, name)}
    if "seed" in _param_types(args.family):
        given.setdefault("seed", 0)
    return GeneratorSpec(args.family, **given)


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", type=Path, required=True, help="edge-list file")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="dijkstra_homogeneous", choices=MODEL_KINDS)
    p.add_argument("--tie-break", default="sequential", choices=TIE_BREAKS)
    p.add_argument("--tie-seed", type=int, default=None)


def _add_attack_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--attack", required=True, choices=ATTACK_KINDS)
    p.add_argument("--seed", type=int, default=None, help="random-attack seed")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--static", action="store_true", help="rank once on the intact graph")


def _strategy_from_args(args) -> AttackStrategy:
    return AttackStrategy(
        kind=args.attack,
        seed=args.seed,
        recompute=not args.static,
        batch=args.batch,
    )


def _model_from_args(args) -> ThroughputModel:
    return ThroughputModel(kind=args.model, tie_break=args.tie_break, seed=args.tie_seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netelast",
        description="Throughput elasticity of network topologies under node-removal attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write an edge list from generator parameters")
    _add_generator_args(p)
    p.add_argument("--out", type=Path, default=None, help="output file (default stdout)")

    p = sub.add_parser("metrics", help="print the metric suite of an edge list")
    _add_input_args(p)
    p.add_argument("--name", default="graph", help="row label")

    p = sub.add_parser("attack", help="print the removal order under an attack strategy")
    _add_input_args(p)
    _add_attack_args(p)

    p = sub.add_parser("elasticity", help="run one attack cell and print the curve")
    _add_input_args(p)
    _add_attack_args(p)
    _add_model_args(p)
    p.add_argument("--stop-fraction", type=float, default=1.0)
    p.add_argument("--out", type=Path, default=None, help="curve CSV (default stdout)")

    p = sub.add_parser("bound", help="analytic mesh elasticity bounds")
    p.add_argument("--n", required=True, help="mesh size, an integer (scientific notation accepted)")
    p.add_argument("--mode", required=True, choices=("discrete", "continuous"))
    p.add_argument("--zeta", default=None,
                   help="nodes removed, an integer in discrete mode, a real number in continuous mode "
                        "(scientific notation accepted; default: all)")

    p = sub.add_parser("tradeoff", help="evaluate the elasticity/cost tradeoff score")
    p.add_argument("--a", type=float, required=True, help="elasticity under random attack")
    p.add_argument("--b", type=float, required=True, help="elasticity under degree attack")
    p.add_argument("--c", type=float, required=True, help="elasticity under betweenness attack")
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--m", type=int, required=True, help="link count")
    for f in fields(TradeoffParams):
        p.add_argument("--" + f.name.replace("_", "-"), type=float, default=f.default)

    p = sub.add_parser("run", help="execute an experiment config file")
    p.add_argument("--config", type=Path, required=True)

    return parser


def _cmd_generate(args) -> int:
    save_edge_list(_spec_from_args(args).build(), args.out or sys.stdout)
    return 0


def _cmd_metrics(args) -> int:
    g = load_edge_list(args.input)
    rep = metrics(g)
    print(METRICS_CSV_HEADER)
    print(rep.csv_row(args.name))
    return 0


def _cmd_attack(args) -> int:
    g = load_edge_list(args.input)
    for v in attack_sequence(g, _strategy_from_args(args)):
        print(v)
    return 0


def _cmd_elasticity(args) -> int:
    g = load_edge_list(args.input)
    curve = elasticity(g, _strategy_from_args(args), _model_from_args(args), args.stop_fraction)
    curve.write_csv(args.out or sys.stdout)
    return 0


def _number(flag: str, text: str, integer: bool) -> int | float:
    """The flag's `text` read as a float (scientific notation accepted), as
    an int when `integer`; ParameterError naming the flag otherwise."""
    try:
        value = float(text)
        if integer and value != int(value):  # int() refuses inf and nan
            raise ParameterError(f"{flag} must be an integer, got {text!r}")
    except (ValueError, OverflowError):
        raise ParameterError(f"{flag} must be a number, got {text!r}") from None
    return int(value) if integer else value


def _cmd_bound(args) -> int:
    n = _number("--n", args.n, integer=True)
    discrete = args.mode == "discrete"
    zeta = n if args.zeta is None else _number("--zeta", args.zeta, integer=discrete)
    print(fmt(mesh_elasticity_discrete(n, zeta) if discrete else mesh_elasticity_continuous(n, zeta)))
    return 0


def _cmd_tradeoff(args) -> int:
    params = TradeoffParams(**{f.name: getattr(args, f.name) for f in fields(TradeoffParams)})
    print(fmt(tradeoff_re(args.a, args.b, args.c, args.n, args.m, params)))
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    print(f"wrote {report.output_dir}")
    for key, msg in report.errors.items():
        print(f"error {key}: {msg}", file=sys.stderr)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "metrics": _cmd_metrics,
    "attack": _cmd_attack,
    "elasticity": _cmd_elasticity,
    "bound": _cmd_bound,
    "tradeoff": _cmd_tradeoff,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the command's process is netelast's own, so its allocator may keep
    # freed memory as a pool worker's does
    _keep_freed_heap()
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"netelast: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParameterError as exc:
        print(f"netelast: parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except ComputeError as exc:
        print(f"netelast: compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"netelast: io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
