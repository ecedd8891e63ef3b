"""The EC-Graph distributed full-batch trainer (paper Algorithms 1-2).

One trainer object runs the whole simulated cluster: it partitions the
graph, builds the per-worker states, registers the model on the parameter
servers, and then drives synchronous training iterations:

* forward: per layer, workers pull the layer's parameters, exchange halo
  embeddings through the configured forward policy (raw / compressed /
  ReqEC-FP / delayed), and run the local GCN kernel;
* backward: per layer, workers exchange halo embedding-gradients through
  the backward policy (raw / compressed / ResEC-BP / delayed), accumulate
  weight/bias gradient shares and push them; servers apply Adam.

The same class also covers the baselines that differ only in exchange
policy (Non-cp, Cp-fp/Cp-bp, DistGNN's delayed aggregation) and the
single-machine standalone configuration (one worker = no halo at all).

Since the staged-engine refactor the iteration itself runs in
:mod:`repro.engine`: ``setup()`` assembles a single
:class:`~repro.engine.context.ExchangeContext` (policies, Bit-Tuner,
transport, fault injector, telemetry, recovery hooks) and a
:class:`~repro.engine.core.TrainerCore` driving the
``HaloPlanStage -> ForwardStage -> BackwardStage -> OptimizeStage ->
EvalStage`` pipeline over a :class:`~repro.engine.backends.ModelBackend`.
``ECGraphTrainer`` remains the stable public facade — construction
arguments, ``run_epoch``/``train``/``evaluate_exact``, the policy and
counter attributes, and the private hooks the test suite exercises all
behave exactly as before, bit-identically.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.engine import ClusterRuntime
from repro.cluster.param_server import ParameterServerGroup
from repro.cluster.topology import ClusterSpec
from repro.core.bit_tuner import BitTuner
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.models import GNNParameters, build_parameters
from repro.core.nac import NeighborAccessController
from repro.core.policies import make_exchange_policy
from repro.core.results import ConvergenceRun, EpochResult
from repro.core.worker import (
    WorkerState,
    build_worker_states,
    fetch_halo_features,
)
from repro.engine import (
    ExchangeContext,
    GCNBackend,
    ModelBackend,
    RecoveryManager,
    TrainerCore,
)
from repro.faults.injector import FaultCounters, FaultInjector
from repro.graph.attributed import AttributedGraph
from repro.graph.normalize import normalized_adjacency
from repro.graph.store.base import GraphStoreBundle
from repro.nn.optim import make_optimizer
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import monotonic_now
from repro.partition import make_partitioner
from repro.partition.base import Partition

__all__ = ["ECGraphTrainer"]

# One-time flag for the GIL-contention warning below (module-level so a
# whole benchmark sweep warns once, not once per trainer).
_GIL_THREADS_WARNED = False


def _reset_thread_warning() -> None:
    """Re-arm the one-time exchange-threads warning (test hook)."""
    global _GIL_THREADS_WARNED
    _GIL_THREADS_WARNED = False


class ECGraphTrainer:
    """Distributed full-batch GCN/GraphSAGE training on a simulated cluster."""

    def __init__(
        self,
        graph: AttributedGraph | GraphStoreBundle,
        model_config: ModelConfig,
        cluster_spec: ClusterSpec,
        config: ECGraphConfig | None = None,
        partitioner: str = "hash",
        partition: Partition | None = None,
        fp_policy=None,
        bp_policy=None,
    ):
        """Args:
        graph: Attributed input graph — a resident
            :class:`AttributedGraph` (the historical path, bit-identical
            to every pinned golden run) or a
            :class:`~repro.graph.store.GraphStoreBundle` whose features
            and adjacency may live out-of-core; worker shards are then
            gathered through the store row/block APIs and the normalized
            adjacency stays a lazy view.
        model_config: GNN architecture.
        cluster_spec: Simulated cluster shape.
        config: EC-Graph pipeline settings (defaults reproduce the
            paper's full configuration).
        partitioner: Partitioner name used when ``partition`` is None.
        partition: Pre-computed partition (reused across benchmark runs).
        fp_policy / bp_policy: Explicit exchange-policy objects that
            override the config's ``fp_mode``/``bp_mode`` (used to plug
            in baseline codecs via :class:`~repro.core.policies.CodecPolicy`).
        """
        self.graph = graph
        self.model_config = model_config
        self.spec = cluster_spec
        self.config = config or ECGraphConfig()
        self.obs = Telemetry(self.config.obs)
        self._partitioner_name = partitioner
        self._given_partition = partition

        self.runtime: ClusterRuntime | None = None
        self.servers: ParameterServerGroup | None = None
        self.workers: list[WorkerState] = []
        self.params: GNNParameters | None = None
        self.tuner: BitTuner | None = None
        self.nac: NeighborAccessController | None = None
        self.partition: Partition | None = None
        self.engine: TrainerCore | None = None
        self._fp_policy = fp_policy
        self._bp_policy = bp_policy
        self._fp_policy_override = fp_policy is not None
        self._bp_policy_override = bp_policy is not None
        self._preprocessing_seconds = 0.0
        self._global_train_count = 0
        self._setup_done = False
        self._lr_schedule = None
        self._injector: FaultInjector | None = None
        self._normalized = None
        self._ctx: ExchangeContext | None = None
        self._backend: ModelBackend | None = None
        self._recovery: RecoveryManager | None = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Partition, build workers, register parameters, prime caches."""
        if self._setup_done:
            return
        start = monotonic_now()

        if self._given_partition is not None:
            self.partition = self._given_partition
        else:
            partitioner = make_partitioner(
                self._partitioner_name, seed=self.config.seed
            )
            self.partition = partitioner.partition(
                self.graph.adjacency, self.spec.num_workers
            )
        if self.partition.num_parts != self.spec.num_workers:
            raise ValueError(
                f"partition has {self.partition.num_parts} parts but the "
                f"cluster has {self.spec.num_workers} workers"
            )

        scheme = "gcn" if self.model_config.model == "gcn" else "row"
        normalized = normalized_adjacency(self.graph.adjacency, scheme)
        self._normalized = normalized
        self.workers = build_worker_states(self.graph, normalized, self.partition)

        self.runtime = ClusterRuntime(self.spec, telemetry=self.obs)
        self.servers = ParameterServerGroup(
            self.runtime,
            lambda: make_optimizer(
                self.config.optimizer,
                self.config.learning_rate,
                weight_decay=self.config.weight_decay,
            ),
            reduce="sum",
        )
        self.params = build_parameters(
            self.model_config,
            self.graph.feature_dim,
            self.graph.num_classes,
            seed=self.config.seed,
        )
        for name, tensor in self.params.tensors.items():
            self.servers.register(name, tensor.copy())

        self.tuner = BitTuner(
            initial_bits=self.config.fp_bits,
            raise_threshold=self.config.tuner_raise,
            lower_threshold=self.config.tuner_lower,
            enabled=self.config.adaptive_bits,
        )
        if not self._fp_policy_override:
            self._fp_policy = make_exchange_policy("fp", self.config, self.tuner)
        if not self._bp_policy_override:
            self._bp_policy = make_exchange_policy("bp", self.config)
        multiprocess = self.config.execution == "multiprocess"
        if multiprocess and self.config.faults.elastic:
            raise ValueError(
                "execution='multiprocess' does not support elastic "
                "membership yet: partition adoption rebinds worker state "
                "that forked processes have already snapshotted. Use "
                "execution='sync' for elastic runs."
            )
        exchange_threads = self.config.exchange_threads
        if multiprocess:
            # Thread fan-out is pointless under real processes (and
            # threads must not leak across fork): force the serial path.
            exchange_threads = 0
        elif exchange_threads > 0:
            global _GIL_THREADS_WARNED
            if not _GIL_THREADS_WARNED:
                _GIL_THREADS_WARNED = True
                import warnings

                warnings.warn(
                    "exchange_threads > 0 runs the halo fan-out in "
                    "Python threads, which contend on the GIL: the "
                    "committed benchmark (BENCH_core.json, "
                    "epoch.speedup_optimized) measured this 'optimized' "
                    "config at 0.70x the sequential path. Use "
                    "execution='multiprocess' for real parallelism; see "
                    "docs/execution.md.",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self.nac = NeighborAccessController(
            self.runtime, self.workers, self.config.codec_speedup,
            threads=exchange_threads,
        )
        if self.config.faults.enabled:
            self._injector = FaultInjector(self.config.faults)
            self.runtime.fault_injector = self._injector
            self.nac.injector = self._injector
        self._wire_telemetry()

        self._global_train_count = int(self.graph.train_mask.sum())
        if self._global_train_count == 0:
            raise ValueError("graph has no training vertices")

        if self.config.cache_first_hop:
            self._cache_halo_features()

        self._build_engine()

        self._preprocessing_seconds = (
            monotonic_now() - start + self.partition.seconds
        )
        # Feature-cache traffic happens once, in preprocessing: convert
        # the charged bytes into time and fold them in.
        cache_bytes = self.runtime.meter.epoch_bytes()
        if cache_bytes:
            self._preprocessing_seconds += self.runtime.meter.epoch_comm_seconds(
                self.spec.network, self.spec.num_machines
            )
            self.runtime.end_epoch()  # drain the setup epoch
            self.runtime._epoch_history.clear()
            # Keep the metrics epoch scope aligned with the meter's:
            # setup traffic belongs to preprocessing, not to epoch 0
            # (it stays in the lifetime scope either way).
            self.obs.metrics.reset_epoch()
        self._setup_done = True

    def _make_backend(self) -> ModelBackend:
        """Architecture hook: subclasses supply their own backend."""
        return GCNBackend()

    def _build_engine(self) -> None:
        """Assemble the ExchangeContext and the staged TrainerCore."""
        self._backend = self._make_backend()
        executor = None
        if self.config.execution == "multiprocess":
            from repro.mp import ProcessExecutor

            executor = ProcessExecutor()
        self._ctx = ExchangeContext(
            config=self.config,
            model_config=self.model_config,
            graph=self.graph,
            spec=self.spec,
            runtime=self.runtime,
            servers=self.servers,
            workers=self.workers,
            params=self.params,
            tuner=self.tuner,
            fp_policy=self._fp_policy,
            bp_policy=self._bp_policy,
            transport=self.nac,
            telemetry=self.obs,
            injector=self._injector,
            global_train_count=self._global_train_count,
            executor=executor,
        )
        self._recovery = RecoveryManager(self._ctx, self)
        if self.config.faults.elastic and self._injector is not None:
            from repro.membership import (
                ConvergenceWatchdog,
                MembershipView,
                PartitionReassigner,
            )

            membership = MembershipView(
                self.spec.num_workers, self.config.faults
            )
            reassigner = PartitionReassigner(
                self._ctx, self._backend, self._normalized,
                self.partition, membership,
            )
            watchdog = ConvergenceWatchdog(self.config.faults)
            self._recovery.attach_elasticity(membership, reassigner, watchdog)
            self._ctx.membership = membership
        self.engine = TrainerCore(
            self._ctx, self._backend, recovery=self._recovery
        )

    def _wire_telemetry(self) -> None:
        """Attach the health monitor and topology gauges (enabled only)."""
        if not self.obs.enabled:
            return
        if self.obs.health is not None:
            self.obs.health.set_model(self.model_config.num_layers)
            self.tuner.observer = self.obs.health.record_bits
            for policy in (self._fp_policy, self._bp_policy):
                if hasattr(policy, "health"):
                    policy.health = self.obs.health
        for state in self.workers:
            for name, value in state.stats().items():
                self.obs.metrics.set_gauge(
                    f"worker_{name}", value, worker=state.worker_id
                )

    def _cache_halo_features(self) -> None:
        """The paper's first basic optimization: cache remote 1-hop
        neighbour features on each worker once, before training."""
        for state in self.workers:
            state.halo_features = fetch_halo_features(
                state, self.workers, self.runtime, "feature_cache"
            )

    # ------------------------------------------------------------------
    # Compatibility hooks: the historical private surface, delegated to
    # the staged engine (the test suite and subclasses exercise these).
    # ------------------------------------------------------------------
    def _adjacency(self, state: WorkerState, layer: int):
        """Adjacency rows used by ``state`` at ``layer`` (1-based)."""
        return self._backend.adjacency(state, layer)

    def _exchange_subset(
        self, layer: int, direction: str
    ) -> dict[tuple[int, int], np.ndarray] | None:
        """Per-channel row subsets for a sampled exchange (None = all)."""
        return self._backend.exchange_subset(layer, direction)

    def _on_epoch_start(self, t: int) -> None:
        """Called before each iteration (sampling hooks)."""
        self.engine.halo_plan.run(t)

    def _forward(self, t: int) -> tuple[float, dict[str, tuple[int, int]]]:
        """Run the forward pass; returns (loss, per-mask correct/count)."""
        return self.engine.forward.run(t)

    def _backward(self, t: int) -> None:
        grads = self.engine.backward.run(t)
        self.engine.optimize.run(grads)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_epoch(self, t: int) -> EpochResult:
        """One synchronous training iteration (forward + backward)."""
        self.setup()
        return self.engine.run_epoch(t, lr_schedule=self._lr_schedule)

    def close(self) -> None:
        """Release execution resources: worker processes and shared
        memory under ``execution="multiprocess"``, the halo fan-out
        thread pool under ``execution="sync"``. Idempotent; the trainer
        remains usable for supervisor-side reads (counters, params)."""
        if self.engine is not None:
            self.engine.shutdown()
        elif self.nac is not None:
            self.nac.close()

    def __enter__(self) -> "ECGraphTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Fault tolerance: checkpointed crash recovery
    # ------------------------------------------------------------------
    @property
    def fault_counters(self) -> FaultCounters | None:
        """Injected-fault and tolerance counters (None when disabled)."""
        return self._injector.counters if self._injector else None

    @property
    def membership_events(self) -> list[dict]:
        """Elastic-membership timeline (empty when elasticity is off)."""
        if self._recovery is None or self._recovery.membership is None:
            return []
        return [e.as_dict() for e in self._recovery.membership.events]

    @property
    def _param_snapshot(self) -> tuple[int, dict[str, np.ndarray]] | None:
        """In-memory parameter snapshot (held by the recovery manager)."""
        return self._recovery.param_snapshot if self._recovery else None

    def _maybe_checkpoint(self, t: int) -> None:
        """Auto-checkpoint the server parameters after epoch ``t``."""
        self._recovery.maybe_checkpoint(t)

    def _recover_workers(self, crashed: list[int]) -> None:
        """Rebuild crashed workers and resynchronize the exchange state."""
        self._recovery.recover_workers(crashed)

    def _restore_latest_checkpoint(self) -> bool:
        """Load the newest readable parameter checkpoint into the servers."""
        return self._recovery.restore_latest_checkpoint()

    def train(
        self,
        num_epochs: int,
        patience: int | None = None,
        target_accuracy: float | None = None,
        name: str | None = None,
        lr_schedule=None,
    ) -> ConvergenceRun:
        """Train for up to ``num_epochs`` iterations.

        Args:
            num_epochs: Maximum iterations ``T``.
            patience: Stop when validation accuracy has not improved for
                this many epochs (None disables early stopping).
            target_accuracy: Stop as soon as test accuracy reaches this.
            name: Run label for reports.
            lr_schedule: Optional ``epoch -> learning rate`` callable
                (see :mod:`repro.nn.lr_schedule`); ``None`` keeps the
                configured constant rate, the paper's setting.
        """
        self._lr_schedule = lr_schedule
        self.setup()
        run = ConvergenceRun(
            name=name or f"ecgraph[{self.config.fp_mode}/{self.config.bp_mode}]",
            preprocessing_seconds=self._preprocessing_seconds,
            meta={
                "fp_mode": self.config.fp_mode,
                "bp_mode": self.config.bp_mode,
                "fp_bits": self.config.fp_bits,
                "bp_bits": self.config.bp_bits,
                "num_workers": self.spec.num_workers,
                "dataset": self.graph.name,
                "num_layers": self.model_config.num_layers,
            },
        )
        best_val = -1.0
        stale = 0
        for t in range(num_epochs):
            result = self.run_epoch(t)
            run.epochs.append(result)
            if target_accuracy is not None and (
                result.test_accuracy >= target_accuracy
            ):
                break
            if patience is not None:
                if result.val_accuracy > best_val + 1e-6:
                    best_val = result.val_accuracy
                    stale = 0
                else:
                    stale += 1
                    if stale >= patience:
                        break
        run.final_test_accuracy = self.evaluate_exact()["test"]
        if self.obs.enabled:
            run.telemetry = self.obs.report()
        return run

    def evaluate_exact(self) -> dict[str, float]:
        """Accuracy of the current parameters with exact communication.

        Runs one raw-policy forward pass on a scratch runtime so neither
        traffic accounting nor compensation state is disturbed — this is
        the Table V measurement.
        """
        self.setup()
        return self.engine.evaluate_exact()

    @property
    def preprocessing_seconds(self) -> float:
        """Setup cost: partitioning, worker build, feature caching."""
        return self._preprocessing_seconds
