"""Package-query engine: PaQL in, optimal tuple multisets out.

Importing the package pins glibc malloc's mmap and trim thresholds (see
``_pin_malloc_thresholds``); it changes nothing on other C libraries.
"""

import ctypes as _ctypes
import os as _os

_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at its ceiling, 4 MiB times the size of a
    long, and the trim threshold at twice that: where glibc's own rule
    leaves them once the process has freed a block that large.

    Left to that rule, both follow the process's allocation history, and
    with it whether each query's n-length temporaries fault in fresh pages:
    400 to 750 extra minor faults per Direct query on the 50k-row benchmark
    workloads (1 to 2 ms on a 2-CPU host), depending on the heap that
    set-up left behind. The cost is that up to twice the ceiling of freed
    heap stays with the process."""
    try:
        if not _os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    mallopt = _ctypes.CDLL(None).mallopt
    mallopt.argtypes = (_ctypes.c_int, _ctypes.c_int)
    mallopt.restype = _ctypes.c_int
    ceiling = (4 << 20) * _ctypes.sizeof(_ctypes.c_long)
    # setting either threshold stops glibc adjusting both, so the trim
    # threshold is set only once the mmap threshold has taken
    if mallopt(_M_MMAP_THRESHOLD, ceiling):
        mallopt(_M_TRIM_THRESHOLD, 2 * ceiling)


_pin_malloc_thresholds()

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
    translate,
)
from .solver import SolveResult, SolverError, solve
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
