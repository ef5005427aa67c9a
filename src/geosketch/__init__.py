"""geosketch: streaming geometric estimation over the hypercube.

Quadtree-based approximation of Earth Mover's Distance and minimum spanning
tree cost in the turnstile model, with the linear sketches it reads,
exact offline oracles, instance generators and a stream CLI.
"""

from .points import HypercubePoint, PointMultiset
from .quadtree import QuadtreeSpec
from .offline import exact_emd, exact_mst
from .sketches import (
    FAIL,
    CountView,
    L1Sampler,
    SparseCounts,
    cauchy_l1,
    encode_state,
    l0_estimate,
    stable_median,
)
from .emd_sketch import EmdOnePassSketch, EmdSketchConfig, EmdTwoPassSketch
from .mst_sketch import MstSketch, MstSketchConfig
from .streamio import (
    Stream,
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
    "HypercubePoint", "PointMultiset",
    "QuadtreeSpec",
    "exact_emd", "exact_mst",
    "FAIL", "CountView", "L1Sampler", "SparseCounts", "cauchy_l1", "encode_state",
    "l0_estimate", "stable_median",
    "EmdOnePassSketch", "EmdSketchConfig", "EmdTwoPassSketch",
    "MstSketch", "MstSketchConfig",
    "Stream", "aggregate", "parse_stream", "parse_stream_binary",
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
