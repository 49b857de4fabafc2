"""netelast: throughput elasticity of network topologies under attack.

The library measures how gracefully a topology's deliverable traffic decays
as nodes are removed at random or by targeting degree/betweenness, provides
the analytic bounds attained by the complete graph, and ranks topologies
with a cost-aware tradeoff score.
"""

from .errors import (
    ComputeError,
    GraphSizeError,
    NetelastError,
    ParameterError,
    ParseError,
)
from .generators import (
    GeneratorSpec,
    gen_gilbert,
    gen_mesh,
    gen_near_regular,
    gen_preferential_attachment,
    gen_watts_strogatz,
)
from .graph import (
    Graph,
    MetricsReport,
    betweenness,
    connected_components,
    load_edge_list,
    metrics,
    save_edge_list,
)
from .robustness import (
    AttackStrategy,
    ElasticityCurve,
    TradeoffParams,
    attack_sequence,
    elasticity,
    mesh_elasticity_continuous,
    mesh_elasticity_discrete,
    tradeoff_re,
)
from .throughput import (
    ModelComparison,
    ThroughputModel,
    ThroughputResult,
    compare_models,
    evaluate_throughput,
    shortest_path_tree,
    throughput_dijkstra_heterogeneous,
    throughput_dijkstra_homogeneous,
    throughput_lp,
)
from .experiment import ExperimentConfig, RankingRow, load_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "MetricsReport",
    "betweenness",
    "connected_components",
    "load_edge_list",
    "save_edge_list",
    "metrics",
    "GeneratorSpec",
    "gen_gilbert",
    "gen_watts_strogatz",
    "gen_preferential_attachment",
    "gen_near_regular",
    "gen_mesh",
    "ThroughputModel",
    "ThroughputResult",
    "ModelComparison",
    "shortest_path_tree",
    "throughput_dijkstra_homogeneous",
    "throughput_dijkstra_heterogeneous",
    "throughput_lp",
    "evaluate_throughput",
    "compare_models",
    "AttackStrategy",
    "ElasticityCurve",
    "TradeoffParams",
    "attack_sequence",
    "elasticity",
    "mesh_elasticity_discrete",
    "mesh_elasticity_continuous",
    "tradeoff_re",
    "ExperimentConfig",
    "RankingRow",
    "load_config",
    "run_experiment",
    "NetelastError",
    "ParseError",
    "ParameterError",
    "ComputeError",
    "GraphSizeError",
]
