"""The worker CSR lives once.

A worker's edge arrays exist in one copy, in the index dtype scipy's CSR
keeps for them: ``induced_subgraphs`` emits int32 indices and indptr (at
these sizes), and ``a_local`` is built over those very arrays, weights
included. The sampled GCN and SAGE's transposed rows read that copy.
The ``csr_bytes{worker}`` gauge is ``a_local``'s three arrays, and it is
what ``tracemalloc`` sees freed when the worker's adjacency goes.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.core.worker import build_worker_states
from repro.graph.generators import GraphSpec
from repro.graph.normalize import normalized_adjacency
from repro.graph.streaming import stream_graph
from repro.obs import ObsConfig
from repro.partition.hashing import HashPartitioner

SPEC = ClusterSpec(num_workers=3, num_servers=1)


@pytest.fixture(scope="module")
def csr_graph():
    """Enough edges that the CSR arrays dwarf the objects around them."""
    return stream_graph(GraphSpec(
        name="worker-csr", num_vertices=2000, avg_degree=12.0,
        feature_dim=8, num_classes=3, seed=4,
    ))


def _states(graph):
    normalized = normalized_adjacency(graph.adjacency)
    partition = HashPartitioner().partition(graph.adjacency, 3)
    return build_worker_states(graph, normalized, partition)


class TestOneCopy:
    def test_a_local_is_built_over_the_subgraph_arrays(self, csr_graph):
        for state in _states(csr_graph):
            a, sub = state.a_local, state.sub
            for mine, scipys in (
                (sub.indptr, a.indptr), (sub.indices, a.indices),
                (sub.weights, a.data),
            ):
                assert np.shares_memory(mine, scipys)
            assert a.indices.dtype == a.indptr.dtype == np.int32
            assert state.csr_bytes() == (
                a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
            )

    def test_sage_transposed_rows_share_the_index_arrays(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(model="sage", num_layers=2,
                                     hidden_dim=8),
            SPEC, ECGraphConfig(seed=1),
        )
        trainer.setup()
        backend = trainer.engine.backend
        for state in trainer.workers:
            transposed = backend.a_transposed[state.worker_id]
            assert np.shares_memory(transposed.indices, state.a_local.indices)
            assert np.shares_memory(transposed.indptr, state.a_local.indptr)


class TestCSRGauge:
    def test_gauge_is_what_tracemalloc_sees(self, csr_graph):
        """Dropping a worker's adjacency frees its published bytes: no
        second copy (an int64 twin of the index arrays, say) is left
        holding them."""
        tracemalloc.start()
        try:
            trainer = ECGraphTrainer(
                csr_graph, ModelConfig(num_layers=2, hidden_dim=8), SPEC,
                ECGraphConfig(seed=3, obs=ObsConfig(enabled=True)),
            )
            trainer.run_epoch(0)
            snapshot = trainer.obs.metrics.snapshot()
            published = [
                snapshot.gauge("csr_bytes", worker=w)
                for w in range(SPEC.num_workers)
            ]
            assert published == [
                float(state.csr_bytes()) for state in trainer.workers
            ]
            # The constant M^1 is keyed on the adjacency object.
            trainer.engine.ctx.workspaces.clear()
            gc.collect()
            freed = []
            for state in trainer.workers:
                before = tracemalloc.get_traced_memory()[0]
                state.a_local = None
                sub = state.sub
                sub.indptr = sub.indices = sub.weights = None
                gc.collect()
                freed.append(before - tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        for got, want in zip(freed, published):
            assert abs(got - want) <= 0.05 * want, (freed, published)
