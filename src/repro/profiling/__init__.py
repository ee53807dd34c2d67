"""Operation counting and complexity tables (Tables I-II)."""

from . import paper_reference  # noqa: F401
from .breakdown import (modeled_vs_measured, table1_breakdown,  # noqa: F401
                        table2_ladder)
from .op_counter import (PARTS, OpCounts, count_ops,  # noqa: F401
                         count_ops_apan)

__all__ = [
    "OpCounts", "count_ops", "count_ops_apan", "PARTS",
    "table1_breakdown", "table2_ladder", "modeled_vs_measured",
    "paper_reference",
]
