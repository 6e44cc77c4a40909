"""Decompositions: data (Definition 1), computation (Definition 2),
virtual processor spaces, and the owner-computes derivation (Theorem 1).
"""

from .computation import (
    CompDecomp,
    CompRule,
    block_loop,
    comps_from_blocks,
    onto,
    owner_computes,
)
from .data import (
    DataDecomp,
    DimRule,
    block,
    block_cyclic,
    cyclic,
    dim_placeholders,
    replicated,
    skewed,
)
from .space import Extent, ProcSpace

__all__ = [
    "CompDecomp",
    "CompRule",
    "DataDecomp",
    "DimRule",
    "Extent",
    "ProcSpace",
    "block",
    "block_cyclic",
    "block_loop",
    "comps_from_blocks",
    "cyclic",
    "dim_placeholders",
    "onto",
    "owner_computes",
    "replicated",
    "skewed",
]
