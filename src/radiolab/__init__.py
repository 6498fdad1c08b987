"""radiolab: deterministic radio-network simulation with short labeling
schemes for size discovery and topology recognition, plus the audit harness
for the lower-bound graph families."""

from . import errors
from .graphs import (
    Graph,
    LayerAssignment,
    LBFamilyDescriptor,
    bfs_layers,
    build_graph,
    diameter,
    gen_lb_family,
    gen_lb_general,
    gen_random_connected,
)
from .labels import SchemeBundle, decode_blocks, encode_blocks
from .sim import ExecutionTrace, Heard, NodeProgram, run

__all__ = [
    "errors",
    "Graph",
    "LayerAssignment",
    "LBFamilyDescriptor",
    "bfs_layers",
    "build_graph",
    "diameter",
    "gen_lb_family",
    "gen_lb_general",
    "gen_random_connected",
    "SchemeBundle",
    "decode_blocks",
    "encode_blocks",
    "ExecutionTrace",
    "Heard",
    "NodeProgram",
    "run",
]
