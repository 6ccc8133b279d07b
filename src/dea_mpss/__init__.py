"""Efficiency and most-productive-scale-size benchmarking for network DEA."""

from .chain import (
    ChainEfficiency,
    ChainMpss,
    ChainWeights,
    SELF_NORMALIZED_WEIGHTS,
    StageFactors,
    TargetReport,
    TargetRow,
    chain_efficiency,
    chain_mpss,
    classify_strategy,
    intermediate_targets,
    profitability_mpss,
)
from .data import (
    Dataset,
    Link,
    NetworkTopology,
    ProcessSpec,
    SummaryStats,
    load_dataset,
    parse_data_csv,
    parse_topology_json,
    summarize,
)
from .errors import DeaMpssError, SolverError, UnsupportedTopologyError, ValidationError
from .lp import LpProblem, LpSolution, solve_lp
from .network import (
    MpssResult,
    blackbox_mpss,
    evaluate_stages,
    network_mpss_radial,
    network_mpss_variable,
)
from .rank_tests import KwResult, average_ranks, chi_square_sf, kruskal_wallis
from .tandem import DecompositionReport, TandemTopology, decompose, to_tandem

__all__ = [
    "ChainEfficiency", "ChainMpss", "ChainWeights", "SELF_NORMALIZED_WEIGHTS",
    "StageFactors", "TargetReport", "TargetRow", "chain_efficiency", "chain_mpss",
    "classify_strategy", "intermediate_targets", "profitability_mpss",
    "Dataset", "Link", "NetworkTopology", "ProcessSpec", "SummaryStats",
    "load_dataset", "parse_data_csv", "parse_topology_json", "summarize",
    "DeaMpssError", "SolverError", "UnsupportedTopologyError", "ValidationError",
    "LpProblem", "LpSolution", "solve_lp",
    "MpssResult", "blackbox_mpss", "evaluate_stages", "network_mpss_radial",
    "network_mpss_variable",
    "KwResult", "average_ranks", "chi_square_sf", "kruskal_wallis",
    "DecompositionReport", "TandemTopology", "decompose", "to_tandem",
]

__version__ = "0.1.0"
