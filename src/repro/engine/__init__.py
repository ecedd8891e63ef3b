"""The staged training engine.

``repro.engine`` decomposes the training loop into a composable
pipeline — :class:`~repro.engine.core.TrainerCore` driving
``HaloPlanStage -> ForwardStage -> BackwardStage -> OptimizeStage ->
EvalStage`` — over a single :class:`~repro.engine.context.ExchangeContext`
bundle, with per-architecture math in subclasses of
:class:`~repro.engine.backends.ModelBackend` and every halo
exchange flowing through one :class:`~repro.engine.transport.HaloTransport`.
See ``docs/engine.md`` for the lifecycle and extension points.
"""

from repro.engine.backends import (
    GATBackend,
    GCNBackend,
    ModelBackend,
    SAGEBackend,
    SampledGCNBackend,
)
from repro.engine.context import ExchangeContext
from repro.engine.core import TrainerCore
from repro.engine.executor import SyncExecutor
from repro.engine.recovery import RecoveryManager
from repro.engine.stages import (
    BackwardStage,
    EvalStage,
    ForwardStage,
    HaloPlanStage,
    OptimizeStage,
    Stage,
)
from repro.engine.transport import ChannelSession, HaloTransport
from repro.engine.workspace import LayerWorkspaces

__all__ = [
    "TrainerCore",
    "ExchangeContext",
    "RecoveryManager",
    "ModelBackend",
    "GCNBackend",
    "SampledGCNBackend",
    "SAGEBackend",
    "GATBackend",
    "Stage",
    "HaloPlanStage",
    "ForwardStage",
    "BackwardStage",
    "OptimizeStage",
    "EvalStage",
    "HaloTransport",
    "ChannelSession",
    "SyncExecutor",
    "LayerWorkspaces",
]
