"""geosketch: streaming geometric estimation over the hypercube.

Quadtree-based approximation of Earth Mover's Distance and minimum spanning
tree cost in the turnstile model, with the underlying linear-sketch toolbox,
exact offline oracles, instance generators and a stream CLI.
"""

from .points import HypercubePoint, PointMultiset, hamming_distance
from .quadtree import NodeId, QuadtreeSpec, lca_depth, node_at_depth, sample_quadtree
from .offline import (
    Matching,
    SpanningTree,
    depth_greedy_matching,
    depth_greedy_spanning_tree,
    exact_emd,
    exact_mst,
    inspector_payment,
    matching_cost,
    spanning_tree_cost,
    total_inspector_payment,
    value_emd,
    value_mst,
)
from .sketches import (
    FAIL,
    CauchyL1Sketch,
    CountSketch,
    CountView,
    ExpScaler,
    L0Sketch,
    L1Sampler,
    SparseCounts,
    encode_state,
    sample_p_stable,
    stable_median,
    tail_truncated_norms,
)
from .embedding import EmbeddingFamily, embed_point, sample_embedding
from .emd_sketch import (
    CharacterSet,
    EmdOnePassSketch,
    EmdSketchConfig,
    EmdTwoPassSketch,
    UniverseMap,
    reference_I_i,
    split_probability,
)
from .mst_sketch import (
    MstRepView,
    MstSketch,
    MstSketchConfig,
    reference_level_quantities,
)
from .streamio import (
    TurnstileUpdate,
    aggregate,
    parse_stream,
    parse_stream_binary,
    write_stream,
    write_stream_binary,
)
from .generators import GeneratedInstance, gen_instance, rm1_codewords

# The submodules (hashing, sketches, emd_sketch, ...) stay attributes of the
# package, but are not part of the star-import surface.
__all__ = [
    "HypercubePoint", "PointMultiset", "hamming_distance",
    "NodeId", "QuadtreeSpec", "lca_depth", "node_at_depth", "sample_quadtree",
    "Matching", "SpanningTree", "depth_greedy_matching", "depth_greedy_spanning_tree",
    "exact_emd", "exact_mst", "inspector_payment", "matching_cost", "spanning_tree_cost",
    "total_inspector_payment", "value_emd", "value_mst",
    "FAIL", "CauchyL1Sketch", "CountSketch", "CountView", "ExpScaler", "L0Sketch",
    "L1Sampler", "SparseCounts", "encode_state", "sample_p_stable", "stable_median",
    "tail_truncated_norms",
    "EmbeddingFamily", "embed_point", "sample_embedding",
    "CharacterSet", "EmdOnePassSketch", "EmdSketchConfig", "EmdTwoPassSketch",
    "UniverseMap", "reference_I_i", "split_probability",
    "MstRepView", "MstSketch", "MstSketchConfig", "reference_level_quantities",
    "TurnstileUpdate", "aggregate", "parse_stream", "parse_stream_binary",
    "write_stream", "write_stream_binary",
    "GeneratedInstance", "gen_instance", "rm1_codewords",
    "EstimateReport", "run_estimator",
]
__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI module is imported on first use, not here: `python -m
    # geosketch.cli` would otherwise find it imported before it runs.
    if name in ("EstimateReport", "run_estimator"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
