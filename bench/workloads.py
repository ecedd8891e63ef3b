"""The four workloads and the user-level calls that set one up.

Everything here is a call a user of the library could make: stream a
graph into a store, partition it, build an ``ECGraphTrainer`` on the
partition, run epoch 0. The seed reaches the program only through the
graph spec and ``ECGraphConfig.seed``.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import ClusterSpec, ECGraphConfig, ECGraphTrainer, ModelConfig
from repro.graph.generators import GraphSpec
from repro.graph.rmat import RMATSpec
from repro.graph.streaming import stream_graph, stream_rmat_graph
from repro.partition import make_partitioner

from measure import EpochSample, run_epochs

__all__ = ["Workload", "WORKLOADS", "Setup", "set_up", "make_trainer", "tear_down"]

NUM_WORKERS = 4
FEATURE_DIM = 64
NUM_CLASSES = 8
MODEL = ModelConfig(num_layers=3, hidden_dim=64)
TREND_PERIOD = 10  # ECGraphConfig's default; a timed cycle is one period


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str  # "rmat" or "sbm"
    backend: str  # "memory" or "mmap"
    partitioner: str
    execution: str
    compressed: bool
    # In-process repetitions of the whole set-up behind ``setup_s``. The
    # metis row spends 13 s partitioning, so it cannot afford repeats.
    setup_reps: int


WORKLOADS = {w.name: w for w in (
    Workload(
        "rmat16-ec-sync",
        "paper's headline config (ReqEC-FP + Bit-Tuner + ResEC-BP) on a "
        "scale-16 R-MAT, hash cut 0.63: halo exchange is half the epoch, "
        "so codec, policy and transport changes show here",
        "rmat", "memory", "hash", "sync", True, 3,
    ),
    Workload(
        "rmat16-raw-sync",
        "same graph with the codec bypassed (Non-cp): kernels are 80% of "
        "wall and wire bytes 4.7x larger; a codec change must not move "
        "this row, a kernel or framing change shows undiluted",
        "rmat", "memory", "hash", "sync", False, 3,
    ),
    Workload(
        "rmat16-ec-mp",
        "rmat16-ec-sync under execution=multiprocess: bytes and losses "
        "are bit-identical by contract, so any difference is the mp "
        "layer (fork/shm set-up, pipe rounds, supervisor serialisation)",
        "rmat", "memory", "hash", "multiprocess", True, 3,
    ),
    Workload(
        "sbm16-ec-metis-mmap",
        "learnable SBM labels through the mmap ChunkCache with a metis "
        "cut of 0.36: small halos, out-of-core reads, 17 s set-up of "
        "which 13 s is partitioning, accuracy 0.92 shows convergence",
        "sbm", "mmap", "metis", "sync", True, 1,
    ),
)}


@dataclass
class Setup:
    """One completed set-up: spec -> ingest -> partition -> trainer ->
    ``setup()`` -> epoch 0, with the wall of each phase."""

    graph: Any
    partition: Any
    trainer: ECGraphTrainer
    first: EpochSample
    store_dir: Path | None
    ingest_s: float
    partition_s: float
    trainer_setup_s: float

    @property
    def total_s(self) -> float:
        return (
            self.ingest_s + self.partition_s + self.trainer_setup_s
            + self.first.wall
        )


def _ingest(w: Workload, seed: int, smoke: bool, store_dir: Path | None) -> Any:
    if w.graph == "rmat":
        spec = RMATSpec(
            scale=10 if smoke else 16, edge_factor=8,
            feature_dim=FEATURE_DIM, num_classes=NUM_CLASSES, seed=seed,
        )
        return stream_rmat_graph(spec, backend=w.backend, out_dir=store_dir)
    spec = GraphSpec(
        name="sbm16", num_vertices=2048 if smoke else 65536, avg_degree=16,
        feature_dim=FEATURE_DIM, num_classes=NUM_CLASSES, power_law=2.5,
        homophily=0.8, label_noise=0.1, seed=seed,
    )
    return stream_graph(
        spec, backend=w.backend, out_dir=store_dir,
        chunk_vertices=256 if smoke else 8192, max_resident_blocks=4,
    )


def make_config(w: Workload, seed: int, execution: str | None = None) -> ECGraphConfig:
    config = ECGraphConfig(seed=seed, execution=execution or w.execution)
    return config if w.compressed else config.as_non_cp()


def make_trainer(
    w: Workload, seed: int, graph: Any, partition: Any,
    execution: str | None = None,
) -> ECGraphTrainer:
    return ECGraphTrainer(
        graph, MODEL, ClusterSpec(num_workers=NUM_WORKERS),
        make_config(w, seed, execution), partition=partition,
    )


def set_up(w: Workload, seed: int, smoke: bool, workdir: Path, rep: int) -> Setup:
    """Graph spec to first completed iteration, timed phase by phase."""
    store_dir = None
    if w.backend == "mmap":
        store_dir = workdir / f"store-{rep}"
        store_dir.mkdir(parents=True)
    start = time.perf_counter()
    graph = _ingest(w, seed, smoke, store_dir)
    ingested = time.perf_counter()
    partition = make_partitioner(w.partitioner, seed=seed).partition(
        graph.adjacency, NUM_WORKERS
    )
    partitioned = time.perf_counter()
    trainer = make_trainer(w, seed, graph, partition)
    try:
        trainer.setup()
        ready = time.perf_counter()
        first = run_epochs(trainer, [0])[0]
    except BaseException:
        trainer.close()
        raise
    return Setup(
        graph=graph, partition=partition, trainer=trainer, first=first,
        store_dir=store_dir, ingest_s=ingested - start,
        partition_s=partitioned - ingested, trainer_setup_s=ready - partitioned,
    )


def tear_down(setup: Setup) -> None:
    """Stop the trainer's workers and free the set-up before the next
    repetition, so repetitions do not accumulate RSS."""
    setup.trainer.close()
    store_dir = setup.store_dir
    setup.graph = setup.partition = setup.trainer = None
    gc.collect()
    if store_dir is not None:
        shutil.rmtree(store_dir, ignore_errors=True)
