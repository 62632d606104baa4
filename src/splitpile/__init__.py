"""Exact combinatorics of the sandpile model on complete split graphs."""

from .asm import (
    SINK,
    Config,
    InternalError,
    PreconditionError,
    SplitGraph,
    StabilizationTrace,
    enumerate_sorted_recurrent,
    format_config,
    height,
    is_recurrent,
    level,
    parse_config,
    sorted_recurrent_count,
    stabilize,
    topple,
)

__version__ = "0.1.0"

__all__ = [
    "SINK",
    "Config",
    "InternalError",
    "PreconditionError",
    "SplitGraph",
    "StabilizationTrace",
    "enumerate_sorted_recurrent",
    "format_config",
    "height",
    "is_recurrent",
    "level",
    "parse_config",
    "sorted_recurrent_count",
    "stabilize",
    "topple",
    "__version__",
]
