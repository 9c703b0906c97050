"""AS-level Internet topology toolkit.

Builds monthly AS graphs from BGP path corpora, computes the standard
complex-network metric suite over time, fits exponential/linear growth
phases with a single change point, grows BA/AB/GLP/PFP comparison
topologies, and measures IPv6-over-IPv4 tunnelling via cross-network
shortest paths.
"""

from .crossnet import TunnelDistribution, tunnel_path_lengths, tunnel_series
from .errors import (
    AsTopoError,
    CorpusError,
    DegenerateInputError,
    DomainError,
    EmptyGraphError,
    InsufficientDataError,
    NoOverlapError,
    ParameterError,
    UndefinedMetricError,
    UnknownNodeError,
)
from .generators import (
    GeneratorParams,
    Trajectory,
    generate,
    generate_with_trajectory,
)
from .graph import (
    AS_MAX,
    IPV4,
    IPV6,
    AsGraph,
    CsrGraph,
    Snapshot,
    SnapshotSeries,
    read_edgelist,
    write_edgelist,
)
from .ingest import (
    ALL_MONITORS,
    FilterReport,
    MonitorSet,
    PathFileMeta,
    PathHops,
    load_series,
    parse_path_file,
    parse_path_line,
)
from .metrics import (
    CcdfPoint,
    MetricRow,
    MetricSeries,
    assortativity_coefficient,
    average_degree,
    average_shortest_path_length,
    clustering_coefficient,
    degree_ccdf,
    max_degree,
    metric_row,
    metrics_series,
    powerlaw_exponent,
)
from .phasefit import (
    ExpFit,
    GrowthPattern,
    LinearFit,
    PhaseFit,
    SeriesPoint,
    classify_transition,
    detect_phase_change,
    fit_exponential,
    fit_linear,
)

__version__ = "0.1.0"
