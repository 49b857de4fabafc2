"""Config-driven experiment grids: (topology x attack) cells in, CSV tables out.

The config is an INI file with one [experiment] section and one
[topology:<name>] section per topology (either generator parameters or a
`path` to an edge list).  All randomness is derived from the global seed and
the topology name, so adding a topology never perturbs the other rows and a
rerun of the same config is byte-identical.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ComputeError, NetelastError, ParameterError, ParseError
from .generators import GeneratorSpec
from .graph import METRICS_CSV_HEADER, Graph, MetricsReport, load_edge_list, metrics
from .robustness import ATTACK_KINDS, AttackStrategy, ElasticityCurve, TradeoffParams, elasticity, tradeoff_re
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


def fmt(x: float) -> str:
    """CSV number format: 7 significant digits, `.` separator, literal NaN."""
    if isinstance(x, float) and math.isnan(x):
        return "NaN"
    return f"{x:.7g}"


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
        if not 0.0 < self.stop_fraction <= 1.0:
            raise ParameterError(f"stop_fraction must be in (0, 1], got {self.stop_fraction}")
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")
        for a in self.attacks:
            if a not in ATTACK_KINDS:
                raise ParameterError(f"unknown attack {a!r}")


_GEN_INT_KEYS = ("n", "k", "m", "rows", "cols", "seed")


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config file; relative paths resolve against it."""
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError:
        raise
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"bad config file {path}: {exc}") from None

    if "experiment" not in parser:
        raise ParseError(f"config {path} has no [experiment] section")
    exp = parser["experiment"]
    base = path.parent

    def get_float(key, default):
        try:
            return exp.getfloat(key, default)
        except ValueError:
            raise ParseError(f"key {key!r} is not a number") from None

    def get_int(key, default):
        try:
            return exp.getint(key, default)
        except ValueError:
            raise ParseError(f"key {key!r} is not an integer") from None

    def get_bool(key, default):
        try:
            return exp.getboolean(key, default)
        except ValueError:
            raise ParseError(f"key {key!r} is not a boolean") from None

    global_seed = get_int("global_seed", 0)
    tie_break = exp.get("tie_break", "sequential")
    tie_seed = get_int("tie_seed", 0) if tie_break == "random" else None
    model = ThroughputModel(
        kind=exp.get("model", "dijkstra_homogeneous"),
        tie_break=tie_break,
        seed=tie_seed,
    )
    attacks = [a.strip() for a in exp.get("attacks", ",".join(ATTACK_KINDS)).split(",") if a.strip()]
    tradeoff = TradeoffParams(
        alpha_tol=get_float("alpha_tol", 1.0),
        beta_tol=get_float("beta_tol", 1.0),
        delta_tol=get_float("delta_tol", 1.0),
        gamma_tol=get_float("gamma_tol", 1.0),
    )

    topologies: list[TopologyDecl] = []
    for section in parser.sections():
        if not section.startswith("topology:"):
            if section != "experiment":
                raise ParseError(f"unknown section [{section}]")
            continue
        name = section.split(":", 1)[1].strip()
        if not name:
            raise ParseError(f"empty topology name in [{section}]")
        items = parser[section]
        if "path" in items:
            topologies.append(TopologyDecl(name=name, path=(base / items["path"]).resolve()))
            continue
        if "family" not in items:
            raise ParseError(f"topology {name!r} needs either `path` or `family`")
        kwargs: dict = {"family": items["family"].strip()}
        try:
            for key in _GEN_INT_KEYS:
                if key in items:
                    kwargs[key] = int(items[key])
            if "p" in items:
                kwargs["p"] = float(items["p"])
            if "diagonals" in items:
                kwargs["diagonals"] = items.getboolean("diagonals")
        except ValueError:
            raise ParseError(f"bad numeric value in topology {name!r}") from None
        if "seed" not in items:
            kwargs["seed"] = derive_seed(global_seed, name)
        topologies.append(TopologyDecl(name=name, spec=GeneratorSpec(**kwargs)))

    if not topologies:
        raise ParseError(f"config {path} declares no topologies")

    return ExperimentConfig(
        topologies=topologies,
        attacks=attacks,
        model=model,
        stop_fraction=get_float("stop_fraction", 1.0),
        tradeoff=tradeoff,
        output_dir=(base / exp.get("output_dir", "results")),
        global_seed=global_seed,
        batch=get_int("batch", 1),
        recompute=get_bool("recompute", True),
    )


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


def _pearson(xs: list[float], ys: list[float]) -> float:
    x = np.asarray(xs)
    y = np.asarray(ys)
    ok = np.isfinite(x) & np.isfinite(y)
    if ok.sum() < 2:
        return math.nan
    x, y = x[ok], y[ok]
    if x.std() == 0 or y.std() == 0:
        return math.nan
    return float(np.corrcoef(x, y)[0, 1])


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every (topology, attack) cell and write the report bundle.

    A failing cell is logged and surfaces as NaN in the tables; the rest of
    the grid still runs.
    """
    out = Path(config.output_dir)
    curves_dir = out / "curves"
    curves_dir.mkdir(parents=True, exist_ok=True)
    log_lines: list[str] = [f"# experiment run, seed {config.global_seed}"]
    started = time.monotonic()

    graphs: dict[str, Graph] = {}
    reports: dict[str, MetricsReport] = {}
    errors: dict[str, str] = {}
    for decl in config.topologies:
        try:
            g = _build_topology(decl)
            graphs[decl.name] = g
            reports[decl.name] = metrics(g, with_betweenness=False)
            log_lines.append(
                f"topology {decl.name}: n={g.number_of_nodes} m={g.number_of_edges}"
            )
        except (NetelastError, OSError) as exc:
            errors[decl.name] = str(exc)
            log_lines.append(f"topology {decl.name}: ERROR {exc}")

    curves: dict[tuple[str, str], ElasticityCurve] = {}
    for decl in config.topologies:
        name = decl.name
        if name not in graphs:
            continue
        for kind in config.attacks:
            strategy = _attack_strategy(config, name, kind)
            try:
                curve = elasticity(graphs[name], strategy, config.model, config.stop_fraction)
            except (NetelastError, OSError) as exc:
                errors[f"{name}/{kind}"] = str(exc)
                log_lines.append(f"cell {name}/{kind}: ERROR {exc}")
                continue
            curves[(name, kind)] = curve
            curve.write_csv(curves_dir / f"{name}_{kind}.csv")
            log_lines.append(f"cell {name}/{kind}: elasticity={fmt(curve.elasticity)}")

    rows: list[RankingRow] = []
    for decl in config.topologies:
        name = decl.name
        if name not in graphs:
            rows.append(RankingRow(name, 0, 0, math.nan, math.nan, math.nan, math.nan))
            continue
        rep = reports[name]
        elas = {
            kind: curves[(name, kind)].elasticity if (name, kind) in curves else math.nan
            for kind in ATTACK_KINDS
        }
        re_score = math.nan
        if all(math.isfinite(v) for v in elas.values()):
            try:
                re_score = tradeoff_re(
                    elas["random"],
                    elas["highest_degree"],
                    elas["highest_betweenness"],
                    rep.nodes,
                    rep.links,
                    config.tradeoff,
                )
            except ParameterError as exc:
                errors[f"tradeoff/{name}"] = str(exc)
                log_lines.append(f"tradeoff {name}: NaN ({exc})")
        rows.append(
            RankingRow(
                name=name,
                nodes=rep.nodes,
                links=rep.links,
                elas_r=elas["random"],
                elas_d=elas["highest_degree"],
                elas_b=elas["highest_betweenness"],
                re_score=re_score,
            )
        )

    _write_metrics_csv(out / "metrics.csv", config, reports)
    _write_ranking_csv(out / "ranking.csv", rows)
    _write_tradeoff_csv(out / "tradeoff.csv", rows, config.tradeoff)
    correlations = _write_correlations_csv(out / "correlations.csv", rows, reports)

    log_lines.append(f"elapsed {time.monotonic() - started:.1f}s")
    (out / "run.log").write_text("\n".join(log_lines) + "\n")

    return ExperimentReport(
        rows=rows,
        metrics=reports,
        curves=curves,
        correlations=correlations,
        errors=errors,
        output_dir=out,
    )


def _write_metrics_csv(path: Path, config: ExperimentConfig, reports: dict[str, MetricsReport]) -> None:
    lines = [METRICS_CSV_HEADER]
    for decl in config.topologies:
        if decl.name in reports:
            lines.append(reports[decl.name].csv_row(decl.name))
        else:
            lines.append(f"{decl.name},NaN,NaN,NaN,NaN,NaN,NaN")
    path.write_text("\n".join(lines) + "\n")


def _desc(rows: list[RankingRow], key) -> list[RankingRow]:
    return sorted(rows, key=lambda r: (math.isnan(key(r)), -(key(r) if not math.isnan(key(r)) else 0.0), r.name))


def _write_ranking_csv(path: Path, rows: list[RankingRow]) -> None:
    by_links = _desc(rows, lambda r: float(r.links))
    by_r = _desc(rows, lambda r: r.elas_r)
    by_d = _desc(rows, lambda r: r.elas_d)
    by_b = _desc(rows, lambda r: r.elas_b)
    lines = ["links_name,links,elas_r_name,elas_r,elas_d_name,elas_d,elas_b_name,elas_b"]
    for rl, rr, rd, rb in zip(by_links, by_r, by_d, by_b):
        lines.append(
            f"{rl.name},{rl.links},{rr.name},{fmt(rr.elas_r)},"
            f"{rd.name},{fmt(rd.elas_d)},{rb.name},{fmt(rb.elas_b)}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_tradeoff_csv(path: Path, rows: list[RankingRow], params: TradeoffParams) -> None:
    ordered = _desc(rows, lambda r: r.re_score)
    lines = [
        f"# tolerances alpha={fmt(params.alpha_tol)} beta={fmt(params.beta_tol)} "
        f"delta={fmt(params.delta_tol)} gamma={fmt(params.gamma_tol)}",
        "name,nodes,links,elas_r,elas_d,elas_b,re_score",
    ]
    for r in ordered:
        lines.append(
            f"{r.name},{r.nodes},{r.links},{fmt(r.elas_r)},{fmt(r.elas_d)},"
            f"{fmt(r.elas_b)},{fmt(r.re_score)}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_correlations_csv(
    path: Path, rows: list[RankingRow], reports: dict[str, MetricsReport]
) -> dict[tuple[str, str], float]:
    metric_cols = {
        "links": lambda r: float(reports[r.name].links) if r.name in reports else math.nan,
        "heterogeneity": lambda r: reports[r.name].heterogeneity if r.name in reports else math.nan,
        "asp": lambda r: reports[r.name].asp if r.name in reports else math.nan,
    }
    elas_cols = {
        "random": lambda r: r.elas_r,
        "highest_degree": lambda r: r.elas_d,
        "highest_betweenness": lambda r: r.elas_b,
    }
    out: dict[tuple[str, str], float] = {}
    lines = ["metric,attack,pearson_r"]
    for mname, mget in metric_cols.items():
        for aname, aget in elas_cols.items():
            r = _pearson([mget(row) for row in rows], [aget(row) for row in rows])
            out[(mname, aname)] = r
            lines.append(f"{mname},{aname},{fmt(r)}")
    path.write_text("\n".join(lines) + "\n")
    return out
