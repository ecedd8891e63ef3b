"""The ExchangeContext: one bundle for everything a stage touches.

Before the staged engine, the trainer passed its collaborators around ad
hoc — every forward/backward method re-threaded the compression
policies, the Bit-Tuner, the fault injector, telemetry, the cluster
runtime and the checkpoint hooks through its own plumbing. The
:class:`ExchangeContext` bundles them once; every
:mod:`~repro.engine.stages` stage and :mod:`~repro.engine.backends`
backend receives the same context object and asks it for exchanges
instead of wiring policies and categories by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.cluster.engine import ClusterRuntime
from repro.cluster.param_server import ParameterServerGroup
from repro.cluster.topology import ClusterSpec
from repro.core.bit_tuner import BitTuner
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.messages import ExchangePolicy
from repro.core.models import GNNParameters
from repro.core.worker import WorkerState
from repro.engine.transport import HaloTransport
from repro.engine.workspace import LayerWorkspaces
from repro.graph.store.base import GraphStoreBundle
from repro.obs.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.engine.recovery import RecoveryManager
    from repro.faults.injector import FaultInjector
    from repro.membership.view import MembershipView

__all__ = ["ExchangeContext"]

# Traffic-meter categories per exchange direction (paper Fig. 6 labels).
_DIRECTION_CATEGORIES = {"fp": "fp_embeddings", "bp": "bp_gradients"}


@dataclass
class ExchangeContext:
    """Everything one training iteration needs, bundled once.

    Built by the trainer at the end of ``setup()`` and handed to
    the :class:`~repro.engine.core.TrainerCore`; stages and backends
    treat it as read-only shared state. The ``recovery`` hook is
    attached after construction (it needs the context itself).
    """

    config: ECGraphConfig
    model_config: ModelConfig
    # Stages touch only feature_dim, num_classes, masks and
    # adjacency.indptr, so the graph may live out-of-core.
    graph: GraphStoreBundle
    spec: ClusterSpec
    runtime: ClusterRuntime
    servers: ParameterServerGroup
    workers: list[WorkerState]
    params: GNNParameters
    tuner: BitTuner
    fp_policy: ExchangePolicy
    bp_policy: ExchangePolicy
    transport: HaloTransport
    telemetry: Telemetry
    injector: "FaultInjector | None" = None
    global_train_count: int = 0
    recovery: "RecoveryManager | None" = field(default=None, repr=False)
    membership: "MembershipView | None" = field(default=None, repr=False)
    # Execution backend (where worker kernels run): a SyncExecutor by
    # default (inline), or a ProcessExecutor for real worker processes.
    # Bound to the backend by the TrainerCore (see repro.engine.executor).
    executor: object = field(default=None, repr=False)
    # Persistent kernel buffers: exchanges scatter into them, kernels
    # read and write them in place (see repro.engine.workspace).
    workspaces: LayerWorkspaces = field(default_factory=LayerWorkspaces, repr=False)

    def active_workers(self) -> list[WorkerState]:
        """Worker states participating in this iteration.

        Without elastic membership this is exactly ``workers`` — the
        same list object, same iteration order — so non-elastic runs
        stay bit-identical. With a membership view attached, dead
        workers (which keep their slot as empty states) are skipped.
        """
        if self.membership is None:
            return self.workers
        return [
            state for state in self.workers
            if self.membership.is_alive(state.worker_id)
        ]

    # ------------------------------------------------------------------
    # Exchange helpers: stages name a direction, the context supplies
    # the policy and the traffic category.
    # ------------------------------------------------------------------
    def exchange(
        self,
        direction: str,
        layer: int,
        t: int,
        rows_of: Callable[[WorkerState], np.ndarray],
        dim: int,
        subset: dict[tuple[int, int], np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Forward-style halo fetch for ``direction`` ("fp" or "bp"), into
        (and returning) the halo tails of the workers' workspaces:
        ``h{layer}`` for embeddings, ``g{layer}`` for gradients."""
        ws = self.workspaces
        return self.transport.exchange(
            layer=layer,
            t=t,
            rows_of=rows_of,
            policy=self.policy_for(direction),
            category=_DIRECTION_CATEGORIES[direction],
            dim=dim,
            subset=subset,
            out=[
                ws.buffer(f"{'h' if direction == 'fp' else 'g'}{layer}", s)[
                    s.num_local:
                ]
                for s in self.workers
            ],
        )

    def reverse_exchange(
        self,
        layer: int,
        t: int,
        halo_rows_of: Callable[[WorkerState], np.ndarray],
        dim: int,
    ) -> list[np.ndarray]:
        """Reverse (consumer -> owner) gradient push, backward policy."""
        return self.transport.reverse_exchange(
            layer=layer,
            t=t,
            halo_rows_of=halo_rows_of,
            policy=self.bp_policy,
            category=_DIRECTION_CATEGORIES["bp"],
            dim=dim,
            out=[
                self.workspaces.buffer(f"acc{layer}", s)
                for s in self.workers
            ],
        )

    def policy_for(self, direction: str) -> ExchangePolicy:
        if direction not in _DIRECTION_CATEGORIES:
            raise ValueError(f"unknown exchange direction {direction!r}")
        return self.fp_policy if direction == "fp" else self.bp_policy

    def update_tuner(self) -> None:
        """Feed the last exchange's predicted-win proportions to the
        Bit-Tuner (Algorithm 3). Only a policy that reports a
        ``predicted_share`` (ReqEC-FP) leaves any to feed."""
        for pair, proportion in self.transport.last_proportions().items():
            self.tuner.update(pair, proportion)
