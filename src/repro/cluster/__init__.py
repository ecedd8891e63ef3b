"""Simulated CPU-cluster runtime: topology, network/traffic model,
compute accounting and parameter servers.

See DESIGN.md section 2 for how this substitutes the paper's physical
clusters while preserving the quantities the evaluation depends on.
"""

from repro.cluster.engine import ClusterRuntime, EpochBreakdown
from repro.cluster.network import GIGABIT, NetworkModel, TrafficMeter
from repro.cluster.param_server import ParameterServerGroup, Shard, range_shards
from repro.cluster.topology import ClusterSpec

__all__ = [
    "ClusterRuntime",
    "EpochBreakdown",
    "GIGABIT",
    "NetworkModel",
    "TrafficMeter",
    "ParameterServerGroup",
    "Shard",
    "range_shards",
    "ClusterSpec",
]
