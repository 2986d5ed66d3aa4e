import os

# One BLAS thread, set before anything imports numpy, so the timing criteria
# measure the engine rather than how many threads the host gives OpenBLAS
# (the benchmark pins the same variables).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pkgquery import paql, relation


@pytest.fixture
def recipes():
    """Five gluten-free recipes; the standing small fixture."""
    return relation.from_columns(
        "Recipes",
        {
            "kcal": [0.9, 0.9, 0.7, 1.2, 0.3],
            "saturated_fat": [0.2, 0.1, 0.3, 0.5, 0.1],
            "gluten": ["free", "free", "free", "free", "free"],
        },
        kinds={"gluten": "categorical"},
    )


@pytest.fixture
def meal_query(recipes):
    q = paql.parse("""
        SELECT PACKAGE(R) AS P
        FROM Recipes R REPEAT 0
        WHERE R.gluten = 'free'
        SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
        MINIMIZE SUM(P.saturated_fat)
    """)
    return paql.validate(q, recipes.schema)
