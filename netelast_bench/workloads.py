"""The benchmark's workloads: inputs made from the seed, one round of
operations, and the checks of a round's outputs.

A workload's `setup` builds its inputs through netelast (the benchmark times
it as set-up), `run` performs one round, `snapshot` keeps what the round
produced (for `paper_grid`, the files it wrote), and `check` compares every
snapshot with the reference computations in `oracles`.  Library calls go
through module attributes so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

LP_TOL = 1e-7  # HiGHS runs at feasibility tolerance 1e-9 per constraint
FLOW_TOL = 1e-6


@dataclass
class Round:
    outputs: object
    attempted: int
    failed: int
    evaluations: int


# -- paper_grid ------------------------------------------------------------------

GRID_TOPOLOGIES = {
    "gilbert": {"family": "gilbert", "n": 1000, "p": 0.0091},
    "pa": {"family": "preferential_attachment", "n": 1000, "m": 2},
    "ws": {"family": "watts_strogatz", "n": 1000, "k": 6, "p": 0.3},
    "grid": {"family": "near_regular", "rows": 31, "cols": 32},
}
GRID_ATTACKS = ("random", "highest_degree", "highest_betweenness")


def grid_config_text(seed: int, topologies: dict, batch: int, stop_fraction: float, recompute: bool) -> str:
    lines = [
        "[experiment]",
        f"global_seed = {seed}",
        f"attacks = {', '.join(GRID_ATTACKS)}",
        "model = dijkstra_homogeneous",
        f"batch = {batch}",
        f"stop_fraction = {stop_fraction}",
        f"recompute = {'true' if recompute else 'false'}",
        "workers = 1",
        "output_dir = results",
    ]
    for name, params in topologies.items():
        lines.append("")
        lines.append(f"[topology:{name}]")
        lines.extend(f"{k} = {v}" for k, v in params.items())
    return "\n".join(lines) + "\n"


class PaperGrid:
    """`netelast run` on the paper's four n = 1000 families, three attacks."""

    name = "paper_grid"
    # One batch of 10 removals per cell keeps a round near 45 s here.  The
    # ranking is static: adaptive betweenness ranks the whole removal order
    # whatever the stop fraction, 16-50 s per topology at n = 1000.
    batch = 10
    stop_fraction = 0.01
    recompute = False

    def setup(self, seed: int, workdir: Path) -> Path:
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "grid.ini"
        path.write_text(
            grid_config_text(seed, GRID_TOPOLOGIES, self.batch, self.stop_fraction, self.recompute)
        )
        return path

    def run(self, path: Path) -> Round:
        from netelast import experiment

        report = experiment.run_experiment(experiment.load_config(path))
        cells = len(GRID_TOPOLOGIES) * len(GRID_ATTACKS)
        return Round(
            outputs=report,
            attempted=cells,
            failed=cells - len(report.curves),
            evaluations=sum(len(c.normalized) for c in report.curves.values()),
        )

    def snapshot(self, path: Path, rnd: Round) -> dict[str, str]:
        return read_outputs(rnd.outputs.output_dir)

    def check(self, path: Path, snapshots: list) -> list[str]:
        return check_grid_outputs(path, snapshots)


def read_outputs(out: Path) -> dict[str, str]:
    """Every file `run_experiment` wrote, by path relative to its output dir."""
    out = Path(out)
    return {str(p.relative_to(out)): p.read_text() for p in sorted(out.rglob("*")) if p.is_file()}


def parse_curve_csv(text: str) -> dict:
    fractions, values, meta = [], [], {}
    for line in text.splitlines()[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line:
            f, t = line.split(",")
            fractions.append(f)
            values.append(t)
    return {"fractions": fractions, "values": values, **meta}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12


def check_grid_outputs(config_path: Path, snapshots: list[dict[str, str]]) -> list[str]:
    """Compare the CSV bundle of each round with oracles on the same edge sets."""
    import oracles
    from netelast import experiment

    config = experiment.load_config(config_path)
    refs = {}
    for decl in config.topologies:
        g = decl.spec.build()
        n, edges = g.id_space, g.edges()
        dist = oracles.distances(n, edges)
        refs[decl.name] = (
            n,
            oracles.structure(n, edges, dist),
            oracles.homogeneous_throughput(n, edges, dist),
        )
    problems: list[str] = []
    for i, files in enumerate(snapshots):
        problems += [f"round {i}: {p}" for p in _check_grid_round(config, refs, files)]
    return problems


def _check_grid_round(config, refs, files: dict[str, str]) -> list[str]:
    import oracles

    problems: list[str] = []
    rows = {}
    for line in files.get("metrics.csv", "").splitlines()[1:]:
        cols = line.split(",")
        rows[cols[0]] = cols
    elas: dict[tuple[str, str], str] = {}
    for name, (n, ref, alpha) in refs.items():
        row = rows.get(name)
        want = [name, str(ref["nodes"]), str(ref["links"]), oracles.fmt7(ref["density"]),
                oracles.fmt7(ref["diameter"]), oracles.fmt7(ref["asp"])]
        if row is None or row[:6] != want:
            problems.append(f"metrics.csv {name}: {row} != {want}")
        for kind in config.attacks:
            key = f"curves/{name}_{kind}.csv"
            if key not in files:
                problems.append(f"{key} missing")
                continue
            curve = parse_curve_csv(files[key])
            elas[(name, kind)] = curve.get("elasticity", "")
            if curve.get("alpha") != oracles.fmt7(alpha):
                problems.append(f"{key}: alpha {curve.get('alpha')} != {oracles.fmt7(alpha)}")
            want_fr = [oracles.fmt7(f) for f in oracles.removal_fractions(n, config.batch, config.stop_fraction)]
            if curve["fractions"] != want_fr:
                problems.append(f"{key}: fractions {curve['fractions']} != {want_fr}")
            if not curve["values"] or curve["values"][0] != "1":
                problems.append(f"{key}: first sample {curve['values'][:1]} is not 1")
            area = oracles.trapezoid([float(x) for x in curve["fractions"]], [float(y) for y in curve["values"]])
            try:
                e = float(elas[(name, kind)])
            except ValueError:
                problems.append(f"{key}: elasticity {elas[(name, kind)]!r} is not a number")
                continue
            if not _close(e, area, 1e-6):
                problems.append(f"{key}: elasticity {e} != trapezoid {area}")
    problems += _check_tradeoff(files, refs, elas)
    return problems


def _check_tradeoff(files, refs, elas) -> list[str]:
    import oracles

    problems: list[str] = []
    lines = files.get("tradeoff.csv", "").splitlines()
    if len(lines) < 2:
        return ["tradeoff.csv missing"]
    tol = tuple(float(part.split("=")[1]) for part in lines[0][2:].split()[1:])
    log = files.get("run.log", "")
    seen = set()
    for line in lines[2:]:
        name, nodes, links, er, ed, eb, score = line.split(",")
        seen.add(name)
        for kind, value in zip(GRID_ATTACKS, (er, ed, eb)):
            if elas.get((name, kind)) != value:
                problems.append(f"tradeoff.csv {name}: {kind} {value} != curve {elas.get((name, kind))}")
        values = [float(v) for v in (er, ed, eb)]
        if score == "NaN":
            out_of_range = [f"{label}=" for label, v in zip(("elas_r", "elas_d", "elas_b"), values)
                            if not 0.0 <= v <= 1.0]
            logged = [l for l in log.splitlines() if l.startswith(f"tradeoff {name}: NaN")]
            if not out_of_range or not any(label in l for l in logged for label in out_of_range):
                problems.append(f"tradeoff.csv {name}: NaN without a logged out-of-range elasticity")
            continue
        want = oracles.tradeoff(*values, int(nodes), int(links), tol)
        # inputs and output are rounded to 7 digits: half a unit each
        slack = 1e-6 * (sum(abs(v) for v in values) + abs(float(score))) + 1e-12
        if abs(float(score) - want) > slack:
            problems.append(f"tradeoff.csv {name}: re_score {score} != {want}")
    if seen != set(refs):
        problems.append(f"tradeoff.csv rows {sorted(seen)} != {sorted(refs)}")
    return problems


# -- mesh_bound -------------------------------------------------------------------


class MeshBound:
    """Random attacks at batch 1 with full removal on K_n: the bound experiment
    (the first part of `mesh_and_residual`)."""

    name = "mesh_bound"
    n = 150
    attacks_per_round = 3

    def setup(self, seed: int, workdir: Path):
        from netelast import generators, robustness, throughput

        strategies = [
            robustness.AttackStrategy("random", seed=seed * 100 + j, batch=1)
            for j in range(self.attacks_per_round)
        ]
        return generators.gen_mesh(self.n), strategies, throughput.ThroughputModel()

    def run(self, inputs) -> Round:
        from netelast import robustness
        from netelast.errors import NetelastError

        g, strategies, model = inputs
        curves, failed = [], 0
        for strategy in strategies:
            try:
                curves.append(robustness.elasticity(g, strategy, model, 1.0))
            except NetelastError:
                failed += 1
        return Round(curves, len(strategies), failed, sum(len(c.normalized) for c in curves))

    def check(self, inputs, snapshots) -> list[str]:
        n = inputs[0].id_space
        return [f"round {i}: {p}" for i, curves in enumerate(snapshots) for c in curves
                for p in check_mesh_curve(c, n)]


def check_mesh_curve(curve, n: int) -> list[str]:
    """Samples equal (n-k)(n-k-1)/(n(n-1)) exactly; elasticity is their trapezoid."""
    import oracles

    problems = []
    fr = [float(x) for x in curve.fractions]
    tp = [float(y) for y in curve.normalized]
    if fr != [k / n for k in range(n + 1)]:
        problems.append(f"seed {curve.seed}: fractions are not k/{n}, k = 0..{n}")
    bad = [k for k, y in enumerate(tp) if y != oracles.mesh_sample(n, k)]
    if bad:
        k = bad[0]
        problems.append(f"seed {curve.seed}: sample {k} = {tp[k]!r} != {oracles.mesh_sample(n, k)!r}")
    if curve.alpha != float(n * (n - 1)):
        problems.append(f"seed {curve.seed}: alpha {curve.alpha} != {n * (n - 1)}")
    area = oracles.trapezoid(fr, tp)
    if abs(curve.elasticity - area) > 1e-9:
        problems.append(f"seed {curve.seed}: elasticity {curve.elasticity} != trapezoid {area}")
    return problems


# -- residual_engines ---------------------------------------------------------------


class ResidualEngines:
    """Heterogeneous residual filling and the HiGHS concurrent-flow LP on
    small graphs: curves with full removal and single evaluations (the second
    part of `mesh_and_residual`)."""

    name = "residual_engines"

    def setup(self, seed: int, workdir: Path):
        from netelast import generators as gen
        from netelast import robustness, throughput

        s = seed * 100
        het = throughput.ThroughputModel("dijkstra_heterogeneous")
        lp = throughput.ThroughputModel("lp_optimization")
        # families with a fixed edge count, so the work does not vary with the seed
        curves = [
            (gen.gen_preferential_attachment(30, 2, s + 1), robustness.AttackStrategy("random", seed=s + 2, batch=3), het),
            (gen.gen_watts_strogatz(30, 4, 0.2, s + 3), robustness.AttackStrategy("highest_degree", batch=3), het),
            (gen.gen_watts_strogatz(30, 4, 0.3, s + 4), robustness.AttackStrategy("random", seed=s + 5, batch=5), lp),
        ]
        singles = [
            (gen.gen_watts_strogatz(50, 4, 0.2, s + 6), het),
            (gen.gen_preferential_attachment(100, 1, s + 7), het),
            (gen.gen_preferential_attachment(30, 2, s + 8), lp),
        ]
        return curves, singles

    def run(self, inputs) -> Round:
        from netelast import robustness, throughput
        from netelast.errors import NetelastError

        curves, singles = inputs
        out, failed, evals = [], 0, 0
        for g, strategy, model in curves:
            try:
                c = robustness.elasticity(g, strategy, model, 1.0)
                evals += len(c.normalized)
                out.append(c)
            except NetelastError:
                out.append(None)
                failed += 1
        for g, model in singles:
            try:
                out.append(throughput.evaluate_throughput(g, model))
                evals += 1
            except NetelastError:
                out.append(None)
                failed += 1
        return Round(out, len(curves) + len(singles), failed, evals)

    def check(self, inputs, snapshots) -> list[str]:
        curves, singles = inputs
        problems = []
        refs = [_residual_curve_refs(g, strategy) for g, strategy, _ in curves]
        for i, outs in enumerate(snapshots):
            for (g, strategy, model), ref, c in zip(curves, refs, outs):
                if c is not None:
                    problems += [f"round {i} {model.kind} curve: {p}" for p in check_engine_curve(c, strategy, ref)]
            for (g, model), res in zip(singles, outs[len(curves):]):
                if res is not None:
                    tol = LP_TOL if model.kind == "lp_optimization" else 1e-9
                    problems += [f"round {i} {model.kind} {g}: {p}"
                                 for p in check_engine_result(res, g.id_space, g.edges(), tol)]
        return problems


def _residual_curve_refs(g, strategy) -> list[tuple[float, int]]:
    """(homogeneous throughput, edge count) of the graph behind every sample."""
    import oracles

    n, edges = g.id_space, g.edges()
    if strategy.kind == "random":
        order = oracles.random_attack_order(n, strategy.seed)
    else:
        order = oracles.degree_attack_order(n, edges, strategy.batch)
    refs = []
    for frac in oracles.removal_fractions(n, strategy.batch, 1.0):
        left = oracles.surviving_edges(edges, order[: round(frac * n)])
        refs.append((oracles.homogeneous_throughput(n, left), left.shape[0]))
    return refs


def check_engine_curve(curve, strategy, refs) -> list[str]:
    """A residual engine delivers at least the homogeneous uniform rate, and
    at most 2m: every unit crosses at least one unit-capacity arc."""
    import oracles

    problems = []
    tol = LP_TOL if curve.model == "lp_optimization" else 1e-9
    fr, tp = list(curve.fractions), list(curve.normalized)
    if len(fr) != len(refs):
        return [f"{len(fr)} samples, expected {len(refs)}"]
    area = oracles.trapezoid(fr, tp)
    if abs(curve.elasticity - area) > 1e-9:
        problems.append(f"elasticity {curve.elasticity} != trapezoid {area}")
    for k, (y, (hom, m)) in enumerate(zip(tp, refs)):
        raw = y * curve.alpha
        if raw < hom * (1 - tol) - 1e-12:
            problems.append(f"sample {k}: throughput {raw} < homogeneous {hom}")
        if raw > 2 * m * (1 + FLOW_TOL) + 1e-12:
            problems.append(f"sample {k}: throughput {raw} > 2m = {2 * m}")
    return problems


def check_engine_result(result, n: int, edges, tol: float) -> list[str]:
    """Per-pair deliveries of one evaluation against the homogeneous floor and
    the capacity bound sum(delivered * dist) <= 2m."""
    import oracles

    problems = []
    dist = oracles.distances(n, edges)
    hom = oracles.homogeneous_throughput(n, edges, dist)
    pairs = result.per_pair_delivered
    total = math.fsum(pairs.values())
    if not _close(total, result.raw_throughput, 1e-9):
        problems.append(f"raw {result.raw_throughput} != sum of pairs {total}")
    if result.raw_throughput < hom * (1 - tol) - 1e-12:
        problems.append(f"raw {result.raw_throughput} < homogeneous {hom}")
    hops = math.fsum(v * dist[s, t] for (s, t), v in pairs.items())
    if not math.isfinite(hops) or any(s == t or v < 0 for (s, t), v in pairs.items()):
        problems.append("delivery to an unreachable, self or negative pair")
    elif hops > 2 * len(edges) * (1 + FLOW_TOL) + 1e-12:
        problems.append(f"sum(delivered * dist) = {hops} > 2m = {2 * len(edges)}")
    return problems


# -- mesh_and_residual ---------------------------------------------------------------


class MeshAndResidual:
    """The bound experiment and the residual engines back to back in each
    round.  As one workload they get 30 s runs within the benchmark's total
    run time; as two, each got 20 s and spread more from run to run."""

    name = "mesh_and_residual"
    parts = (MeshBound(), ResidualEngines())

    def setup(self, seed: int, workdir: Path):
        return [part.setup(seed, workdir) for part in self.parts]

    def run(self, inputs) -> Round:
        rounds = [part.run(i) for part, i in zip(self.parts, inputs)]
        return Round(
            [r.outputs for r in rounds],
            sum(r.attempted for r in rounds),
            sum(r.failed for r in rounds),
            sum(r.evaluations for r in rounds),
        )

    def snapshot(self, inputs, rnd: Round):
        return rnd.outputs

    def check(self, inputs, snapshots) -> list[str]:
        return [
            f"{part.name} {p}"
            for k, (part, i) in enumerate(zip(self.parts, inputs))
            for p in part.check(i, [snap[k] for snap in snapshots])
        ]


WORKLOADS = {w.name: w for w in (PaperGrid(), MeshAndResidual())}
