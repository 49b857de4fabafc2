"""Config-driven experiment grids: (topology x attack) cells in, CSV tables out.

The config is an INI file with one [experiment] section and one
[topology:<name>] section per topology (either generator parameters or a
`path` to an edge list).  All randomness is derived from the global seed and
the topology name, so adding a topology never perturbs the other rows and a
rerun of the same config is byte-identical, whatever the number of worker
processes that evaluate its graph states.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import NetelastError, ParameterError, ParseError
from .generators import FAMILIES, GeneratorSpec, check_params
from .graph import METRICS_CSV_HEADER, Graph, MetricsReport, _require_pairs, fmt, load_edge_list, metrics, write_lines
from .robustness import ATTACK_KINDS, AttackStrategy, ElasticityCurve, TradeoffParams, _Plan, _run_plans
from .robustness import check_stop_fraction, tradeoff_re
from .throughput import ThroughputModel

__all__ = [
    "ExperimentConfig",
    "TopologyDecl",
    "RankingRow",
    "ExperimentReport",
    "load_config",
    "run_experiment",
    "derive_seed",
    "fmt",
]

# the RankingRow column that holds each attack's elasticity
_ELAS = dict(zip(ATTACK_KINDS, ("elas_r", "elas_d", "elas_b")))


def derive_seed(global_seed: int, *parts: str) -> int:
    """Stable 64-bit seed from the global seed and a label path."""
    h = hashlib.sha256(str(global_seed).encode())
    for p in parts:
        h.update(b"\x00")
        h.update(p.encode())
    return int.from_bytes(h.digest()[:8], "big")


@dataclass
class TopologyDecl:
    """One topology of the grid: a generator spec or an edge-list file."""

    name: str
    spec: GeneratorSpec | None = None
    path: Path | None = None


@dataclass
class ExperimentConfig:
    topologies: list[TopologyDecl]
    attacks: list[str] = field(default_factory=lambda: list(ATTACK_KINDS))
    model: ThroughputModel = field(default_factory=ThroughputModel)
    stop_fraction: float = 1.0
    tradeoff: TradeoffParams = field(default_factory=TradeoffParams)
    output_dir: Path = Path("results")
    global_seed: int = 0
    batch: int = 1
    recompute: bool = True

    def __post_init__(self):
        names = [t.name for t in self.topologies]
        if len(set(names)) != len(names):
            raise ParameterError("topology names must be unique")
        if not self.attacks:
            raise ParameterError("attacks must name at least one attack kind")
        if len(set(self.attacks)) != len(self.attacks):
            raise ParameterError("attack kinds must be unique")
        check_stop_fraction(self.stop_fraction)
        # the strategies of any topology, built once to check kinds and batch
        for kind in self.attacks:
            _attack_strategy(self, "", kind)


# [experiment] keys of earlier versions, accepted and ignored
_RETIRED_KEYS = ("workers",)


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config file; relative paths resolve against it."""
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"bad config file {path}: {exc}") from None

    if "experiment" not in parser:
        raise ParseError(f"config {path} has no [experiment] section")
    exp = parser["experiment"]
    base = path.parent
    used = set(_RETIRED_KEYS)

    def read(key, default, get=exp.get, noun=""):
        """One [experiment] key through a SectionProxy getter, e.g. `getint`."""
        used.add(key)
        try:
            return get(key, default)
        except ValueError:
            raise ParseError(f"key {key!r} is not {noun}") from None

    global_seed = read("global_seed", 0, exp.getint, "an integer")
    kind = read("model", "dijkstra_homogeneous")
    tie_seed = read("tie_seed", None, exp.getint, "an integer")
    if tie_seed is not None and tie_seed < 0:
        raise ParameterError(f"tie_seed must be >= 0, got {tie_seed}")
    model = ThroughputModel(kind, read("tie_break", "sequential"), tie_seed)
    attacks = [a.strip() for a in read("attacks", ",".join(ATTACK_KINDS)).split(",") if a.strip()]
    tradeoff = TradeoffParams(
        **{f.name: read(f.name, f.default, exp.getfloat, "a number") for f in fields(TradeoffParams)}
    )

    types = get_type_hints(GeneratorSpec)
    topologies: list[TopologyDecl] = []
    for section in parser.sections():
        if not section.startswith("topology:"):
            if section != "experiment":
                raise ParseError(f"unknown section [{section}]")
            continue
        name = section.split(":", 1)[1].strip()
        if not name or {",", "/"} & set(name):
            raise ParseError(f"topology name in [{section}] must be nonempty, without ',' or '/'")
        items = parser[section]
        if "path" in items:
            extra = [key for key in items if key != "path"]
            if extra:
                raise ParseError(f"topology {name!r}: a path section takes only path; got {extra[0]!r}")
            topologies.append(TopologyDecl(name=name, path=(base / items["path"]).resolve()))
            continue
        if "family" not in items:
            raise ParseError(f"topology {name!r} needs either `path` or `family`")
        family = items["family"].strip()
        given = [key for key in items if key != "family"]
        try:
            check_params(family, given)
            kwargs = {k: items.getboolean(k) if types[k] is bool else types[k](items[k]) for k in given}
        except ParameterError as exc:
            raise ParseError(f"topology {name!r}: {exc}") from None
        except ValueError:
            raise ParseError(f"bad numeric value in topology {name!r}") from None
        if "seed" in FAMILIES[family][1] and "seed" not in items:
            kwargs["seed"] = derive_seed(global_seed, name)
        topologies.append(TopologyDecl(name=name, spec=GeneratorSpec(family, **kwargs)))

    if not topologies:
        raise ParseError(f"config {path} declares no topologies")

    config = ExperimentConfig(
        topologies=topologies,
        attacks=attacks,
        model=model,
        stop_fraction=read("stop_fraction", 1.0, exp.getfloat, "a number"),
        tradeoff=tradeoff,
        output_dir=base / read("output_dir", "results"),
        global_seed=global_seed,
        batch=read("batch", 1, exp.getint, "an integer"),
        recompute=read("recompute", True, exp.getboolean, "a boolean"),
    )
    unknown = [key for key in exp if key not in used]
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in [experiment]")
    return config


@dataclass
class RankingRow:
    """Per-topology summary used for the ranking and tradeoff tables."""

    name: str
    nodes: int
    links: int
    elas_r: float
    elas_d: float
    elas_b: float
    re_score: float


@dataclass
class ExperimentReport:
    rows: list[RankingRow]
    metrics: dict[str, MetricsReport]
    curves: dict[tuple[str, str], ElasticityCurve]
    correlations: dict[tuple[str, str], float]
    errors: dict[str, str]
    output_dir: Path


def _build_topology(decl: TopologyDecl) -> Graph:
    if decl.path is not None:
        return load_edge_list(decl.path)
    return decl.spec.build()


def _attack_strategy(config: ExperimentConfig, topo: str, kind: str) -> AttackStrategy:
    seed = derive_seed(config.global_seed, topo, kind) if kind == "random" else None
    return AttackStrategy(kind=kind, seed=seed, recompute=config.recompute, batch=config.batch)


def _pearson(xs: list[float], ys: list[float], names: tuple[str, str]) -> tuple[float, str]:
    """(Pearson r over the rows where both columns are finite, "") or, where
    it is undefined, (NaN, why): `names` are the columns' names."""
    x = np.asarray(xs)
    y = np.asarray(ys)
    ok = np.isfinite(x) & np.isfinite(y)
    if ok.sum() < 2:
        return math.nan, "fewer than 2 rows with both values"
    x, y = x[ok], y[ok]
    for values, name in zip((x, y), names):
        if values.std() == 0:
            return math.nan, f"zero variance in {name}"
    return float(np.corrcoef(x, y)[0, 1]), ""


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every (topology, attack) cell and write the report bundle.

    A failing cell, or a topology that cannot be built or measured, is
    logged and surfaces as NaN in the tables; the rest of the grid still runs.
    Each metrics row reads its distances from the traversal of the
    topology's intact evaluation.  The graphs are built here; every
    topology's evaluations are tasks of one pool of worker processes, heads
    first (see robustness._Plan and _pool_size), and the curves, metrics
    rows and files are made here, in config order.
    """
    out = Path(config.output_dir)
    curves_dir = out / "curves"
    curves_dir.mkdir(parents=True, exist_ok=True)
    log_lines: list[str] = [f"# experiment run, seed {config.global_seed}"]
    started = time.monotonic()

    graphs: dict[str, Graph] = {}
    errors: dict[str, str] = {}
    for decl in config.topologies:
        try:
            g = _build_topology(decl)
            _require_pairs(g)
            graphs[decl.name] = g
            log_lines.append(
                f"topology {decl.name}: n={g.number_of_nodes} m={g.number_of_edges}"
            )
        except (NetelastError, OSError) as exc:
            errors[decl.name] = str(exc)
            log_lines.append(f"topology {decl.name}: ERROR {exc}")

    curves: dict[tuple[str, str], ElasticityCurve] = {}
    reports: dict[str, MetricsReport] = {}
    strategies = {name: [_attack_strategy(config, name, kind) for kind in config.attacks] for name in graphs}
    plans = [_Plan(g, strategies[name], config.model, config.stop_fraction) for name, g in graphs.items()]
    outputs, workers = _run_plans(plans)
    for (name, g), (cells, profile) in zip(graphs.items(), outputs):
        for kind, curve in zip(config.attacks, cells):
            if not isinstance(curve, ElasticityCurve):
                errors[f"{name}/{kind}"] = str(curve)
                log_lines.append(f"cell {name}/{kind}: ERROR {curve}")
                continue
            curves[(name, kind)] = curve
            curve.write_csv(curves_dir / f"{name}_{kind}.csv")
            log_lines.append(f"cell {name}/{kind}: elasticity={fmt(curve.elasticity)}")
        reports[name] = metrics(g, profile)

    rows: list[RankingRow] = []
    for decl in config.topologies:
        name = decl.name
        size = (reports[name].nodes, reports[name].links) if name in reports else (0, 0)
        # a topology without metrics has no curves, so its elasticities are NaN
        elas = [curves[(name, k)].elasticity if (name, k) in curves else math.nan for k in ATTACK_KINDS]
        re_score = math.nan
        if all(map(math.isfinite, elas)):
            try:
                re_score = tradeoff_re(*elas, *size, config.tradeoff)
            except ParameterError as exc:
                errors[f"tradeoff/{name}"] = str(exc)
                log_lines.append(f"tradeoff {name}: NaN ({exc})")
        rows.append(RankingRow(name, *size, *elas, re_score))

    _write_metrics_csv(out / "metrics.csv", config, reports)
    _write_ranking_csv(out / "ranking.csv", rows)
    _write_tradeoff_csv(out / "tradeoff.csv", rows, config.tradeoff)
    correlations = _write_correlations_csv(out / "correlations.csv", rows, reports, log_lines)

    pool = f"{workers} worker processes" if workers > 1 else "no worker processes"
    log_lines.append(f"elapsed {time.monotonic() - started:.1f}s, {pool}")
    write_lines(out / "run.log", log_lines)

    return ExperimentReport(
        rows=rows,
        metrics=reports,
        curves=curves,
        correlations=correlations,
        errors=errors,
        output_dir=out,
    )


def _write_metrics_csv(path: Path, config: ExperimentConfig, reports: dict[str, MetricsReport]) -> None:
    # a topology without metrics gets NaN in every column after its name
    nan_cells = ",NaN" * METRICS_CSV_HEADER.count(",")
    rows = [reports[d.name].csv_row(d.name) if d.name in reports else d.name + nan_cells for d in config.topologies]
    write_lines(path, [METRICS_CSV_HEADER, *rows])


def _cell(v) -> str:
    """A table cell: floats in `fmt`, names and counts as they are."""
    return fmt(v) if isinstance(v, float) else str(v)


def _desc(rows: list[RankingRow], col: str) -> list[RankingRow]:
    """Rows by descending `col`, NaN last, ties by name."""

    def key(r):
        v = getattr(r, col)
        return (math.isnan(v), 0.0 if math.isnan(v) else -v, r.name)

    return sorted(rows, key=key)


def _write_ranking_csv(path: Path, rows: list[RankingRow]) -> None:
    cols = ["links", *_ELAS.values()]
    lines = [",".join(f"{c}_name,{c}" for c in cols)]
    for ranked in zip(*(_desc(rows, c) for c in cols)):
        lines.append(",".join(f"{r.name},{_cell(getattr(r, c))}" for r, c in zip(ranked, cols)))
    write_lines(path, lines)


def _write_tradeoff_csv(path: Path, rows: list[RankingRow], params: TradeoffParams) -> None:
    tolerances = (f"{f.name.removesuffix('_tol')}={fmt(getattr(params, f.name))}" for f in fields(params))
    cols = ["name", "nodes", "links", *_ELAS.values(), "re_score"]
    lines = ["# tolerances " + " ".join(tolerances), ",".join(cols)]
    lines.extend(",".join(_cell(getattr(r, c)) for c in cols) for r in _desc(rows, "re_score"))
    write_lines(path, lines)


def _write_correlations_csv(
    path: Path, rows: list[RankingRow], reports: dict[str, MetricsReport], log_lines: list[str]
) -> dict[tuple[str, str], float]:
    """Write the table and return its values; append to `log_lines` why each NaN value is NaN."""
    out: dict[tuple[str, str], float] = {}
    lines = ["metric,attack,pearson_r"]
    for metric in ("links", "heterogeneity", "asp"):
        xs = [float(getattr(reports[r.name], metric)) if r.name in reports else math.nan for r in rows]
        for kind, col in _ELAS.items():
            r, why = _pearson(xs, [getattr(row, col) for row in rows], (metric, col))
            out[(metric, kind)] = r
            if why:
                log_lines.append(f"correlation {metric}/{kind}: NaN ({why})")
            lines.append(f"{metric},{kind},{fmt(r)}")
    write_lines(path, lines)
    return out
