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
policy (Non-cp, Cp-fp/Cp-bp, DistGNN's delayed aggregation), the
single-machine standalone configuration (one worker = no halo at all)
and every architecture: the paper's claim (section III-B) that GCN,
GraphSAGE and GAT are served by the same message types is a
:class:`~repro.engine.backends.ModelBackend` object plugged into the
one trainer.

The iteration itself runs in :mod:`repro.engine`: ``setup()`` assembles
a single :class:`~repro.engine.context.ExchangeContext` (policies,
Bit-Tuner, transport, fault injector, telemetry, recovery hooks) and a
:class:`~repro.engine.core.TrainerCore` driving the ``HaloPlanStage ->
ForwardStage -> BackwardStage -> OptimizeStage -> EvalStage`` pipeline
over the backend; stages, backend and recovery manager are reachable as
``trainer.engine.<stage>.run``, ``trainer.engine.backend`` and
``trainer.engine.recovery``.
"""

from __future__ import annotations

from repro.cluster.engine import ClusterRuntime
from repro.cluster.param_server import ParameterServerGroup
from repro.cluster.topology import ClusterSpec
from repro.core.bit_tuner import BitTuner
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.models import GNNParameters, build_parameters
from repro.core.policies import make_exchange_policy
from repro.core.reqec_fp import ReqECPolicy
from repro.core.results import ConvergenceRun, EpochResult
from repro.core.worker import WorkerState, fetch_halo_features
from repro.engine import (
    ExchangeContext,
    GCNBackend,
    HaloTransport,
    ModelBackend,
    RecoveryManager,
    SAGEBackend,
    TrainerCore,
)
from repro.faults.injector import FaultCounters, FaultInjector
from repro.graph.normalize import normalized_adjacency
from repro.graph.store.base import GraphStoreBundle
from repro.nn.optim import Adam
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import monotonic_now
from repro.partition import make_partitioner
from repro.partition.base import Partition

__all__ = ["ECGraphTrainer"]


class ECGraphTrainer:
    """Distributed GNN training on a simulated cluster."""

    def __init__(
        self,
        graph: GraphStoreBundle,
        model_config: ModelConfig,
        cluster_spec: ClusterSpec,
        config: ECGraphConfig | None = None,
        partitioner: str = "hash",
        partition: Partition | None = None,
        fp_policy=None,
        bp_policy=None,
        backend: ModelBackend | None = None,
    ):
        """Args:
        graph: Attributed input graph, on any store backend; worker
            shards are gathered through the store row/block APIs and the
            normalized adjacency is a lazy view, so features and
            adjacency may live out-of-core.
        model_config: GNN architecture; ``model`` selects
            :class:`~repro.engine.backends.GCNBackend` or
            :class:`~repro.engine.backends.SAGEBackend` unless
            ``backend`` is given.
        cluster_spec: Simulated cluster shape.
        config: EC-Graph pipeline settings (defaults reproduce the
            paper's full configuration).
        partitioner: Partitioner name used when ``partition`` is None.
        partition: Pre-computed partition (reused across benchmark runs).
        fp_policy / bp_policy: Explicit exchange-policy objects that
            override the config's ``fp_mode``/``bp_mode`` (used to plug
            in the baseline compressors of :mod:`repro.core.policies`).
        backend: Explicit architecture object for the models whose
            constructors carry values — ``GATBackend(num_heads=...)``,
            ``SampledGCNBackend(fanouts, online)``;
            both run on ``model="gcn"``.
        """
        sage = model_config.model == "sage"
        if backend is None:
            backend = SAGEBackend() if sage else GCNBackend()
        elif sage != isinstance(backend, SAGEBackend):
            raise ValueError(
                f"ModelConfig(model={model_config.model!r}) contradicts "
                f"backend {backend.name!r}: row normalisation "
                "(model='sage') and SAGEBackend go together"
            )
        self.graph = graph
        self.model_config = model_config
        self.spec = cluster_spec
        self.config = config or ECGraphConfig()
        self.obs = Telemetry(self.config.obs)
        self._given_partition = partition
        # Built here so an unknown name fails at construction.
        self._partitioner = (
            make_partitioner(partitioner, seed=self.config.seed)
            if partition is None else None
        )

        self.runtime: ClusterRuntime | None = None
        self.servers: ParameterServerGroup | None = None
        self.workers: list[WorkerState] = []
        self.params: GNNParameters | None = None
        self.tuner: BitTuner | None = None
        self.transport: HaloTransport | None = None
        self.partition: Partition | None = None
        self.engine: TrainerCore | None = None
        self._fp_policy = fp_policy
        self._bp_policy = bp_policy
        self._preprocessing_seconds = 0.0
        self._global_train_count = 0
        self._setup_done = False
        self._injector: FaultInjector | None = None
        self._normalized = None
        self._backend = backend

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Partition, build workers, register parameters, prime caches."""
        if self._setup_done:
            return
        start = monotonic_now()
        # A partition passed in was computed outside the timed set-up;
        # one computed here is already inside it.
        partition_seconds = 0.0
        if self._given_partition is not None:
            self.partition = self._given_partition
            partition_seconds = self.partition.seconds
        else:
            self.partition = self._partitioner.partition(
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
        self.workers = self._backend.build_workers(
            self.graph, normalized, self.partition, self.config
        )

        self.runtime = ClusterRuntime(self.spec, telemetry=self.obs)
        self.servers = ParameterServerGroup(
            self.runtime, lambda: Adam(self.config.learning_rate)
        )
        self.params = build_parameters(
            self.model_config,
            self.graph.feature_dim,
            self.graph.num_classes,
            seed=self.config.seed,
        )
        for name, tensor in self.params.tensors.items():
            self.servers.register(name, tensor)

        if isinstance(self._fp_policy, ReqECPolicy):
            # An injected ReqEC policy brings its tuner: the run feeds,
            # escalates and audits the tuner the policy reads.
            self.tuner = self._fp_policy.tuner
        else:
            self.tuner = BitTuner(
                initial_bits=self.config.fp_bits,
                raise_threshold=self.config.tuner_raise,
                lower_threshold=self.config.tuner_lower,
                enabled=self.config.adaptive_bits,
            )
        if self._fp_policy is None:
            self._fp_policy = make_exchange_policy("fp", self.config, self.tuner)
        if self._bp_policy is None:
            self._bp_policy = make_exchange_policy("bp", self.config)
        if isinstance(self._fp_policy, ReqECPolicy):
            # One trend table per owner, over its (live) serve plan.
            self._fp_policy.bind_plan(
                self.workers, lossy=self.config.faults.enabled
            )
        self.transport = HaloTransport(self.runtime, self.workers)
        if self.config.faults.enabled:
            self._injector = FaultInjector(self.config.faults)
            self.runtime.fault_injector = self._injector
            self.transport.injector = self._injector
        self._wire_telemetry()

        self._global_train_count = int(self.graph.train_mask.sum())
        if self._global_train_count == 0:
            raise ValueError("graph has no training vertices")

        if self.config.cache_first_hop:
            self._cache_halo_features()

        self._build_engine()

        self._preprocessing_seconds = monotonic_now() - start + partition_seconds
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

    def _build_engine(self) -> None:
        """Assemble the ExchangeContext and the staged TrainerCore."""
        backend = self._backend
        executor = None
        if self.config.execution == "multiprocess":
            from repro.mp import ProcessExecutor

            executor = ProcessExecutor()
        ctx = ExchangeContext(
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
            transport=self.transport,
            telemetry=self.obs,
            injector=self._injector,
            global_train_count=self._global_train_count,
            executor=executor,
        )
        recovery = RecoveryManager(ctx, self)
        if self.config.faults.elastic:
            from repro.membership import (
                ConvergenceWatchdog,
                MembershipView,
                PartitionReassigner,
            )

            membership = MembershipView(
                self.spec.num_workers, self.config.faults
            )
            reassigner = PartitionReassigner(
                ctx, backend, self._normalized, self.partition, membership,
            )
            watchdog = ConvergenceWatchdog()
            recovery.attach_elasticity(membership, reassigner, watchdog)
            ctx.membership = membership
        self.engine = TrainerCore(ctx, backend, recovery=recovery)

    def _wire_telemetry(self) -> None:
        """Attach the health monitor and topology gauges (enabled only)."""
        if not self.obs.enabled:
            return
        self.obs.health.set_model(self.model_config.num_layers)
        self.tuner.observer = self.obs.health.record_bits
        for policy in (self._fp_policy, self._bp_policy):
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
            fetch_halo_features(
                state, self.workers, self.runtime, "feature_cache"
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_epoch(self, t: int) -> EpochResult:
        """One synchronous training iteration (forward + backward)."""
        self.setup()
        return self.engine.run_epoch(t)

    def close(self) -> None:
        """Release execution resources (worker processes and shared
        memory under ``execution="multiprocess"``). Idempotent; the
        trainer remains usable for supervisor-side reads (counters,
        params)."""
        if self.engine is not None:
            self.engine.shutdown()

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
        if self.engine is None or self.engine.recovery.membership is None:
            return []
        return [e.as_dict() for e in self.engine.recovery.membership.events]

    def train(
        self,
        num_epochs: int,
        patience: int | None = None,
        target_accuracy: float | None = None,
        name: str | None = None,
    ) -> ConvergenceRun:
        """Train for up to ``num_epochs`` iterations.

        Args:
            num_epochs: Maximum iterations ``T``.
            patience: Stop when validation accuracy has not improved for
                this many epochs (None disables early stopping).
            target_accuracy: Stop as soon as test accuracy reaches this.
            name: Run label for reports.
        """
        self.setup()
        run = ConvergenceRun(
            name=name or f"ecgraph[{self.config.fp_mode}/{self.config.bp_mode}]",
            preprocessing_seconds=self._preprocessing_seconds,
            meta={
                "fp_mode": self.config.fp_mode,
                "bp_mode": self.config.bp_mode,
                "fp_bits": self.config.fp_bits,
                "bp_bits": self.config.bp_bits,
                # The policy, not the config: ``fp_policy=`` may replace it.
                "trend_period": (
                    self._fp_policy.trend_period
                    if isinstance(self._fp_policy, ReqECPolicy) else None
                ),
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
            run.telemetry = self.obs.report(self.membership_events)
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
