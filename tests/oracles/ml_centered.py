"""``MLCenteredTrainer`` as the parent commit shipped it, verbatim.

The AGL / AliGraph-FG rows now run on the one engine through
``repro.baselines.CachedKHopBackend``; this is the trainer that backend
replaced. Its two edits: it imports the new vectorised
``capped_khop_subgraph`` instead of carrying the per-vertex walk, so
both sides train on the same cached vertex and edge sets, and it imports
the resident ``AttributedGraph`` record (which it reads ``.features``
off) from ``oracles._graph`` since ``src/`` retired it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import csr_matrix

from oracles._graph import AttributedGraph
from repro.baselines.ml_centered import capped_khop_subgraph
from repro.cluster.engine import ClusterRuntime
from repro.cluster.param_server import ParameterServerGroup
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.gcn_math import (
    bias_gradient,
    layer_forward,
    weight_gradient,
)
from repro.core.models import bias_name, build_parameters, weight_name
from repro.core.results import ConvergenceRun, EpochResult
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import make_optimizer
from repro.partition.hashing import HashPartitioner

__all__ = ["MLCenteredTrainer"]


class MLCenteredTrainer:
    """AliGraph-FG / AGL style training on the simulated cluster."""

    def __init__(
        self,
        graph: AttributedGraph,
        model_config: ModelConfig,
        cluster_spec: ClusterSpec,
        cache_fanouts: list[int],
        config: ECGraphConfig | None = None,
        name: str = "ml-centered",
    ):
        """Args:
        cache_fanouts: Per-hop cap (>= 1) on cached in-neighbours. AliGraph-FG
            uses a uniform storage cap; AGL uses its sampling ratios.
        config: Reused for optimizer/learning-rate/seed settings; the
            exchange-policy fields are ignored (no halo exchange here).
        """
        if len(cache_fanouts) != model_config.num_layers:
            raise ValueError("need one cache fanout per layer")
        if min(cache_fanouts) < 1:
            raise ValueError(
                f"cache fanouts must be >= 1, got {list(cache_fanouts)}"
            )
        self.graph = graph
        self.model_config = model_config
        self.spec = cluster_spec
        self.config = config or ECGraphConfig()
        self.cache_fanouts = list(cache_fanouts)
        self.name = name

        self.runtime: ClusterRuntime | None = None
        self.servers: ParameterServerGroup | None = None
        self.params = None
        self._workers: list[dict] = []
        self._preprocessing_seconds = 0.0
        self._global_train_count = 0
        self._setup_done = False

    # ------------------------------------------------------------------
    def setup(self) -> None:
        if self._setup_done:
            return
        start = time.perf_counter()
        rng = np.random.default_rng(self.config.seed)

        self.runtime = ClusterRuntime(self.spec)
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
        for pname, tensor in self.params.tensors.items():
            self.servers.register(pname, tensor.copy())

        partition = HashPartitioner().partition(
            self.graph.adjacency, self.spec.num_workers
        )
        degrees = np.diff(self.graph.adjacency.indptr).astype(np.float64)
        inv_sqrt = 1.0 / np.sqrt(degrees + 1.0)

        self._global_train_count = int(self.graph.train_mask.sum())
        machines = self.spec.num_machines
        for worker in range(self.spec.num_workers):
            targets = partition.part_vertices(worker)
            vertices, edges = capped_khop_subgraph(
                self.graph.adjacency, targets, self.cache_fanouts, rng
            )
            index = {int(v): i for i, v in enumerate(vertices)}
            n_cached = vertices.shape[0]

            dst = np.fromiter(
                (index[int(v)] for v in edges[:, 0]), dtype=np.int64,
                count=edges.shape[0],
            )
            src = np.fromiter(
                (index[int(v)] for v in edges[:, 1]), dtype=np.int64,
                count=edges.shape[0],
            )
            # GCN symmetric normalization with *global* degrees, plus
            # normalized self-loops; sampled edges are not rescaled, which
            # is exactly the downward aggregation bias of a capped cache.
            weights = inv_sqrt[edges[:, 0]] * inv_sqrt[edges[:, 1]]
            loop_idx = np.arange(n_cached, dtype=np.int64)
            loop_w = inv_sqrt[vertices] * inv_sqrt[vertices]
            a_sub = csr_matrix(
                (
                    np.concatenate([weights, loop_w]).astype(np.float32),
                    (
                        np.concatenate([dst, loop_idx]),
                        np.concatenate([src, loop_idx]),
                    ),
                ),
                shape=(n_cached, n_cached),
            )

            target_rows = np.array(
                [index[int(v)] for v in targets], dtype=np.int64
            )
            target_mask = np.zeros(n_cached, dtype=bool)
            target_mask[target_rows] = True

            self._workers.append(
                {
                    "vertices": vertices,
                    "a": a_sub,
                    "a_t": a_sub.T.tocsr(),
                    "features": self.graph.features[vertices],
                    "labels": self.graph.labels[vertices],
                    "train": self.graph.train_mask[vertices] & target_mask,
                    "val": self.graph.val_mask[vertices] & target_mask,
                    "test": self.graph.test_mask[vertices] & target_mask,
                }
            )
            # Preprocessing pull: features + adjacency of the cached
            # neighbourhood come from storage spread over all machines, so
            # (machines - 1) / machines of the bytes cross the network.
            # Byte count from shape arithmetic — slicing the feature
            # matrix here would gather the rows a second time just to
            # read .nbytes off the copy.
            feature_row_bytes = (
                self.graph.feature_dim * self.graph.features.dtype.itemsize
            )
            pull_bytes = (
                vertices.shape[0] * feature_row_bytes + edges.shape[0] * 8
            )
            remote = int(pull_bytes * (machines - 1) / max(machines, 1))
            if remote and machines > 1:
                src_machine = (self.spec.worker_machine(worker) + 1) % machines
                self.runtime.meter.charge(
                    src_machine,
                    self.spec.worker_machine(worker),
                    remote,
                    "lhop_pull",
                )

        self._preprocessing_seconds = time.perf_counter() - start
        pull_bytes = self.runtime.meter.epoch_bytes()
        if pull_bytes:
            self._preprocessing_seconds += self.runtime.meter.epoch_comm_seconds(
                self.spec.network, machines
            )
            self.runtime.meter.reset_epoch()
        self._setup_done = True

    # ------------------------------------------------------------------
    def run_epoch(self, t: int) -> EpochResult:
        self.setup()
        num_layers = self.params.num_layers
        counters = {"train": [0, 0], "val": [0, 0], "test": [0, 0]}
        total_loss = 0.0
        all_grads: dict[int, dict[str, np.ndarray]] = {}

        for worker, local in enumerate(self._workers):
            names = self.params.all_param_names()
            pulled = self.servers.pull(worker, names)
            caches = []
            h = local["features"]
            with self.runtime.worker_compute(worker):
                for layer in range(1, num_layers + 1):
                    weight = pulled[weight_name(layer - 1)]
                    bias = pulled.get(bias_name(layer - 1))
                    cache = layer_forward(
                        local["a"],
                        h,
                        weight,
                        bias,
                        self.params.activation,
                        is_last=(layer == num_layers),
                    )
                    caches.append(cache)
                    h = cache.output

                result = softmax_cross_entropy(
                    h, local["labels"], local["train"]
                )
                local_count = int(local["train"].sum())
                scale = (
                    local_count / self._global_train_count
                    if self._global_train_count
                    else 0.0
                )
                total_loss += result.loss * scale
                g = (result.grad * scale).astype(np.float32)

                grads: dict[str, np.ndarray] = {}
                for layer in range(num_layers, 0, -1):
                    cache = caches[layer - 1]
                    grads[weight_name(layer - 1)] = weight_gradient(
                        cache, local["a"], g
                    )
                    if self.params.use_bias:
                        grads[bias_name(layer - 1)] = bias_gradient(g)
                    if layer > 1:
                        weight = pulled[weight_name(layer - 1)]
                        dh = (local["a_t"] @ g) @ weight.T
                        # What layer_forward keeps for sigma' (Z, or
                        # under ReLU its mask Z > 0), through its one rule.
                        g = self.params.activation.scale_by_derivative(
                            dh, caches[layer - 2].derivative_input
                        ).astype(np.float32)
                all_grads[worker] = grads

                predictions = h.argmax(axis=1)
                counters["train"][0] += result.correct
                counters["train"][1] += result.count
                for split in ("val", "test"):
                    mask = local[split]
                    counters[split][0] += int(
                        (predictions[mask] == local["labels"][mask]).sum()
                    )
                    counters[split][1] += int(mask.sum())

        for worker, grads in all_grads.items():
            self.servers.push(worker, grads)
        self.servers.apply_updates()
        breakdown = self.runtime.end_epoch()

        def _ratio(split: str) -> float:
            correct, count = counters[split]
            return correct / count if count else 0.0

        return EpochResult(
            epoch=t,
            loss=total_loss,
            train_accuracy=_ratio("train"),
            val_accuracy=_ratio("val"),
            test_accuracy=_ratio("test"),
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------
    def train(
        self,
        num_epochs: int,
        patience: int | None = None,
        name: str | None = None,
    ) -> ConvergenceRun:
        """Train for up to ``num_epochs`` epochs (see ECGraphTrainer)."""
        self.setup()
        run = ConvergenceRun(
            name=name or self.name,
            preprocessing_seconds=self._preprocessing_seconds,
            meta={
                "architecture": "ml-centered",
                "cache_fanouts": self.cache_fanouts,
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
            if patience is not None:
                if result.val_accuracy > best_val + 1e-6:
                    best_val = result.val_accuracy
                    stale = 0
                else:
                    stale += 1
                    if stale >= patience:
                        break
        run.final_test_accuracy = run.epochs[-1].test_accuracy if run.epochs else None
        return run

    def cached_vertex_counts(self) -> list[int]:
        """Cached subgraph sizes per worker (Table II memory evidence)."""
        self.setup()
        return [w["vertices"].shape[0] for w in self._workers]
