"""Live partition adoption after a permanent worker loss.

When the :class:`~repro.membership.view.MembershipView` declares a
worker dead for good, its partition must not die with it. The
:class:`PartitionReassigner` hands the orphaned vertices to the
least-loaded survivor (load = owned vertices + incident edges, from
:func:`~repro.partition.stats.part_loads`), rebuilds every worker's
request/serve/halo plan from the updated assignment, refetches the
features the adopter now needs from the shared graph store, and carries
what it can of the *gradient gap* — the ResEC-BP residuals queued on
channels that no longer exist — into the residuals of the channels that
replace them, remapped vertex by vertex.

Dead workers keep their index: their slot in ``ctx.workers`` holds an
empty :class:`~repro.core.worker.WorkerState` (zero vertices, no
channels), so worker ids, cluster-spec machine placement and every
positional structure in the engine stay stable across membership
changes. A rejoining worker reclaims exactly the vertices it originally
owned, wherever adoption has since moved them.
"""

from __future__ import annotations

import numpy as np

from repro.core.messages import ChannelKey
from repro.core.worker import WorkerState, fetch_halo_features
from repro.engine.backends import ModelBackend
from repro.engine.context import ExchangeContext
from repro.faults.config import RECOVERY_SECONDS
from repro.graph.csr import CSRGraph
from repro.membership.view import MembershipView
from repro.partition.base import Partition
from repro.partition.stats import part_loads

__all__ = ["PartitionReassigner"]


class PartitionReassigner:
    """Moves partitions between workers and rebuilds the exchange.

    Args:
        ctx: The shared exchange context (workers list is swapped in
            place so every holder of the reference sees the new states).
        backend: The model backend; its ``on_membership_change`` hook
            rebuilds architecture-specific derived structures.
        normalized: The globally normalized adjacency the worker states
            were originally built from.
        partition: The original partition; rejoins reclaim against it.
        membership: The membership view (liveness + event timeline).
    """

    def __init__(
        self,
        ctx: ExchangeContext,
        backend: ModelBackend,
        normalized: CSRGraph,
        partition: Partition,
        membership: MembershipView,
    ):
        self.ctx = ctx
        self.backend = backend
        self.normalized = normalized
        self.membership = membership
        self.original = partition.assignment.copy()
        self.assignment = partition.assignment.copy()

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def adopt(self, epoch: int, dead: int) -> int:
        """Hand ``dead``'s partition to the least-loaded survivor."""
        membership = self.membership
        loads = part_loads(
            self.normalized, self.assignment, membership.num_workers
        )
        survivors = membership.alive_workers()
        if not survivors:
            raise RuntimeError("no survivors left to adopt a partition")
        adopter = min(survivors, key=lambda w: (int(loads[w]), w))
        moved = self.assignment == dead
        count = int(moved.sum())
        self.assignment[moved] = adopter
        membership.custodian[dead] = adopter
        membership.record(
            epoch, "partition_adopted", dead,
            adopter=adopter, vertices=count,
        )
        self._rebuild(epoch, changed={dead, adopter}, reloaded={adopter: count})
        return adopter

    def rejoin(self, epoch: int, worker: int) -> list[int]:
        """Return ``worker``'s original vertices from their custodians."""
        mask = self.original == worker
        holders = [
            int(w) for w in np.unique(self.assignment[mask])
            if int(w) != worker
        ]
        count = int(mask.sum())
        self.assignment[mask] = worker
        self.membership.custodian[worker] = worker
        self.membership.record(
            epoch, "partition_reclaimed", worker,
            reclaimed_from=holders, vertices=count,
        )
        self._rebuild(
            epoch, changed={worker, *holders}, reloaded={worker: count}
        )
        return holders

    # ------------------------------------------------------------------
    # Rebuild
    # ------------------------------------------------------------------
    def _rebuild(
        self, epoch: int, changed: set[int], reloaded: dict[int, int]
    ) -> None:
        """Rebuild worker states and exchange state after a move.

        ``changed`` workers are those whose *local vertex set* changed —
        everything derived from it (requests, serves, halo ordering,
        channels) is rebuilt; unchanged workers keep the same halo
        ordering, so their cached halo features carry over for free.
        ``reloaded`` maps workers to the number of vertices whose
        features they must refetch from the shared graph store.
        """
        ctx = self.ctx
        old_states = list(ctx.workers)

        # Channel state touching a changed worker goes: residuals are
        # exported first (and carried below), the rest is invalidated.
        exported = ctx.bp_policy.export_residuals(changed)
        for worker in sorted(changed):
            ctx.fp_policy.invalidate_worker(worker)
            ctx.bp_policy.invalidate_worker(worker)

        partition = Partition(
            assignment=self.assignment.copy(),
            num_parts=self.membership.num_workers,
            method="elastic",
        )
        new_states = self.backend.build_workers(
            ctx.graph, self.normalized, partition, ctx.config
        )
        if ctx.config.cache_first_hop:
            for state in new_states:
                if state.worker_id not in changed:
                    # Resident, or released and re-read from the store
                    # when the first layer is rebuilt.
                    state.carry_halo(old_states[state.worker_id])
        ctx.workers[:] = new_states

        # Changed survivors refetch their halo feature cache from the
        # owning workers; the adopter additionally reloads its new local
        # features from the shared graph store, and pays the process
        # state-rebuild stall.
        if ctx.config.cache_first_hop:
            for worker in sorted(changed):
                state = ctx.workers[worker]
                if self.membership.is_alive(worker):
                    fetch_halo_features(
                        state, ctx.workers, ctx.runtime, "recovery"
                    )
                else:
                    # Dead slot: an empty cache keeps the positional
                    # eval/exchange paths shape-consistent.
                    state.halo_features = np.zeros(
                        (state.num_halo, ctx.graph.feature_dim),
                        dtype=np.float32,
                    )
        for worker in sorted(reloaded):
            count = reloaded[worker]
            ctx.runtime.add_stall(worker, RECOVERY_SECONDS)
            if count:
                num_bytes = count * ctx.graph.feature_dim * 4 + 16
                ctx.runtime.fetch_from_store(worker, num_bytes, "recovery")

        carried, dropped = self._carry_residuals(
            exported, old_states, new_states
        )

        ctx.transport.rebuild(changed)
        # Worker shapes and feature shards changed: every workspace is
        # re-planned (and the first-layer aggregate rebuilt).
        ctx.workspaces.clear()
        self.backend.on_membership_change()
        self.backend.plan_workspaces()
        self.membership.record(
            epoch, "exchange_rebuilt",
            changed=sorted(changed),
            residual_rows_carried=carried,
            residual_rows_dropped=dropped,
        )

    # ------------------------------------------------------------------
    # Gradient-gap carry
    # ------------------------------------------------------------------
    def _carry_residuals(
        self,
        exported: list[tuple[ChannelKey, np.ndarray]],
        old_states: list[WorkerState],
        new_states: list[WorkerState],
    ) -> tuple[int, int]:
        """Remap exported ResEC residual rows onto the new channels.

        Each residual row belongs to one global vertex; the row moves to
        the channel that now carries that vertex's gradient (new owner →
        surviving consumer), accumulating on collision. Rows whose
        vertex became local to its consumer (no channel anymore) or
        whose consumer has no surviving successor are dropped — that
        part of the gap is genuinely unrecoverable and the watchdog
        covers the fallout. Returns ``(carried_rows, dropped_rows)``.
        """
        if not exported:
            return 0, 0
        pending: dict[ChannelKey, np.ndarray] = {}
        carried = dropped = 0
        for key, residual in exported:
            resolved = self._resolve_channel(key, old_states, residual.shape[0])
            if resolved is None:
                dropped += residual.shape[0]
                continue
            consumer, owner, reverse = resolved
            ids = old_states[consumer].requests[owner]
            new_consumer = self._successor(consumer, old_states)
            if new_consumer is None:
                dropped += residual.shape[0]
                continue
            new_owners = self.assignment[ids]
            for new_owner in np.unique(new_owners):
                new_owner = int(new_owner)
                sel = new_owners == new_owner
                if new_owner == new_consumer:
                    dropped += int(sel.sum())  # became local: no channel
                    continue
                wanted = new_states[new_consumer].requests.get(new_owner)
                if wanted is None:
                    dropped += int(sel.sum())
                    continue
                sub_ids = ids[sel]
                pos = np.searchsorted(wanted, sub_ids)
                ok = pos < wanted.size
                ok &= wanted[np.minimum(pos, wanted.size - 1)] == sub_ids
                dropped += int((~ok).sum())
                if not ok.any():
                    continue
                if reverse:
                    new_key = ChannelKey(key.layer, new_consumer, new_owner)
                else:
                    new_key = ChannelKey(key.layer, new_owner, new_consumer)
                buffer = pending.get(new_key)
                if buffer is None:
                    buffer = pending[new_key] = np.zeros(
                        (wanted.size, residual.shape[1]), dtype=np.float32
                    )
                np.add.at(buffer, pos[ok], residual[sel][ok])
                carried += int(ok.sum())
        for new_key in sorted(pending):
            self.ctx.bp_policy.seed_residual(new_key, pending[new_key])
        return carried, dropped

    def _resolve_channel(
        self, key: ChannelKey, old_states: list[WorkerState], num_rows: int
    ) -> tuple[int, int, bool] | None:
        """Which endpoint consumed the channel's rows?

        Forward-style gradient fetches (GCN/SAGE) key the channel as
        (responder=owner, requester=consumer); reverse pushes (GAT) flip
        it. The residual length equals the consumer's request list for
        the owner, which disambiguates. Returns
        ``(consumer, owner, reverse)`` or None.
        """
        forward = old_states[key.requester].requests.get(key.responder)
        if forward is not None and forward.shape[0] == num_rows:
            return key.requester, key.responder, False
        reverse = old_states[key.responder].requests.get(key.requester)
        if reverse is not None and reverse.shape[0] == num_rows:
            return key.responder, key.requester, True
        return None

    def _successor(
        self, worker: int, old_states: list[WorkerState]
    ) -> int | None:
        """Who consumes ``worker``'s channels now — itself, or the single
        worker that took over its whole vertex set."""
        if self.membership.is_alive(worker):
            return worker
        owners = np.unique(
            self.assignment[old_states[worker].sub.local_vertices]
        )
        if owners.size != 1:
            return None
        successor = int(owners[0])
        return successor if self.membership.is_alive(successor) else None
