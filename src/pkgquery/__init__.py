"""Package-query engine: PaQL in, optimal tuple multisets out."""

from .relation import (
    Relation,
    RelationError,
    Schema,
    apply_base_predicate,
    from_columns,
    load_csv,
    save_csv,
)
from .paql import PackageQuery, PaqlError, ParseError, ValidationError, parse, to_paql, validate
from .ilp import (
    IlpModel,
    IlpError,
    RawIlp,
    UnboundedModelError,
    derive_bounds,
    feasible,
    ilp_to_paql,
    model_from_raw,
    translate,
)
from .solver import SolveResult, SolverError, brute_force, solve
from .partitioning import (
    PartitionError,
    Partitioning,
    PartitionParams,
    load_partitioning,
    partition,
    partition_with_epsilon,
    radius_limit_from_epsilon,
    save_partitioning,
)
from .evaluate import (
    EvalConfig,
    EvalError,
    EvalReport,
    approximation_ratio,
    eval_direct,
    eval_sketchrefine,
)

__version__ = "0.1.0"
