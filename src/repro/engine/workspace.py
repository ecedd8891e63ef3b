"""Persistent layer workspaces, planned by liveness.

Layer ``l`` of every worker reads one ``(n_local + n_halo, d)`` matrix
``H_cat^{l-1}``. Each worker keeps it in a persistent *workspace*: the
halo exchange scatters decoded rows straight into its tail, the previous
layer's kernel writes its output into its head, the kernel reads it in
place. Gradients, aggregates and pre-activations live in workspaces too,
and so does a hidden layer's bool mask ``Z > 0`` when its activation's
derivative reads only the sign of ``Z`` (ReLU: ``Z`` itself is then
written into the next layer's head and activated there).

Most of those buffers are dead for most of an iteration, so they are not
allocated one per name. At bind each backend declares every buffer's
*life* on the iteration :class:`Timeline` (:class:`BufferLife`: shape,
dtype, whether an exchange touches it, first write, last read), and
:func:`plan_slots` gives buffers with the same shape, dtype and sharing
and disjoint lives one *slot*, by first fit. A buffer's name is only a
key into its worker's plan; memory is per slot.

A slot an exchange and a kernel both touch comes through
:attr:`LayerWorkspaces.buffer_provider`: private arrays under
``execution="sync"``, :class:`~repro.mp.store.SharedStore` blocks named
``s<k>w<worker>`` under ``"multiprocess"`` (allocated by the supervisor
at plan time, attached by the worker process). Those are float32 rows;
a bool mask is always kernel-private.

With the cached first hop, ``M^1 = A·[X; X_halo]`` is constant while its
inputs are, so it is rebuilt only when the adjacency is a *different
object* or the worker's ``inputs_version`` moved (a new feature shard or
halo cache) — what elastic reassignment, crash recovery's halo refetch
and a sampled-kernel refresh produce. ``[X; X_halo]`` itself is held (as
a persistent ``h0``) only by backends whose kernels read it every
iteration; otherwise ``M^1`` is built from a transient copy. Once this
process holds either, :meth:`LayerWorkspaces.release_first_inputs` drops
the worker's input arrays: the graph store holds the rows. See
``docs/engine.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.gcn_math import spmm

if TYPE_CHECKING:
    from repro.core.worker import WorkerState

__all__ = [
    "BufferLife", "LayerWorkspaces", "Slot", "Timeline", "WorkerPlan",
    "WorkspaceBytes", "plan_slots",
]


_FLOAT32 = np.dtype(np.float32)


def _private(
    _name: str, shape: tuple[int, int], dtype: np.dtype = _FLOAT32
) -> np.ndarray:
    return np.zeros(shape, dtype=dtype)


class Timeline:
    """One iteration's steps in order: ``fwd1..fwdL``, ``loss``, then
    ``bpl<l>`` (weight gradients), ``halo<l>`` (the gradient exchange)
    and ``bpr<l>`` (input gradients) for ``l = L..2``, and ``bpl1``.

    Each step has a read position and, after it, a write position: a
    kernel reads its inputs before it writes its outputs, so a buffer
    last read in a step and one first written there may share a slot. A
    kernel that reads something *after* writing (``σ'(Z)`` once ``out=``
    is written) declares that read at :meth:`write`.
    """

    def __init__(self, num_layers: int) -> None:
        steps = [f"fwd{layer}" for layer in range(1, num_layers + 1)]
        steps.append("loss")
        for layer in range(num_layers, 1, -1):
            steps += [f"bpl{layer}", f"halo{layer}", f"bpr{layer}"]
        steps.append("bpl1")
        self.steps = tuple(steps)
        self._index = {step: i for i, step in enumerate(steps)}

    def read(self, step: str) -> int:
        return 2 * self._index[step]

    def write(self, step: str) -> int:
        return 2 * self._index[step] + 1

    @property
    def always(self) -> tuple[int, int]:
        """The whole iteration: a persistent buffer's life."""
        return 0, 2 * len(self.steps) - 1


@dataclass(frozen=True)
class BufferLife:
    """One buffer of one worker: its shape, whether an exchange touches
    it (``shared``), its life ``[start, end]`` in :class:`Timeline`
    positions, and its dtype (float32 unless it is a kernel-private bool
    mask: an exchange moves float32 rows only)."""

    name: str
    shape: tuple[int, int]
    shared: bool
    start: int
    end: int
    dtype: np.dtype = _FLOAT32

    def overlaps(self, other: BufferLife) -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass(frozen=True)
class Slot:
    """One allocation and the buffers that take turns in it."""

    shape: tuple[int, int]
    shared: bool
    dtype: np.dtype
    occupants: tuple[BufferLife, ...]

    @property
    def nbytes(self) -> int:
        return self.shape[0] * self.shape[1] * self.dtype.itemsize


def plan_slots(lives: Iterable[BufferLife]) -> tuple[dict[str, int], list[Slot]]:
    """First-fit slot assignment: ``(slot index per buffer name, slots)``.

    A name declared more than once (a buffer several layers use) lives
    from its first start to its last end. Buffers are placed in order of
    first write (declaration order breaks ties), each into the first
    slot of its shape, dtype and sharing whose occupants it overlaps
    none of.
    """

    def kind(life: BufferLife) -> tuple[tuple[int, int], bool, np.dtype]:
        return life.shape, life.shared, life.dtype

    merged: dict[str, BufferLife] = {}
    for life in lives:
        held = merged.get(life.name)
        if held is not None:
            if kind(held) != kind(life):
                raise ValueError(
                    f"buffer {life.name!r} declared as {life.shape} "
                    f"{life.dtype} shared={life.shared} and {held.shape} "
                    f"{held.dtype} shared={held.shared}"
                )
            life = replace(
                held, start=min(held.start, life.start),
                end=max(held.end, life.end),
            )
        merged[life.name] = life
    slot_of: dict[str, int] = {}
    groups: list[list[BufferLife]] = []
    for life in sorted(merged.values(), key=lambda b: b.start):
        for k, group in enumerate(groups):
            if kind(group[0]) == kind(life) and not any(
                life.overlaps(other) for other in group
            ):
                group.append(life)
                slot_of[life.name] = k
                break
        else:
            slot_of[life.name] = len(groups)
            groups.append([life])
    slots = [
        Slot(g[0].shape, g[0].shared, g[0].dtype, tuple(g)) for g in groups
    ]
    return slot_of, slots


@dataclass(frozen=True)
class WorkerPlan:
    """One worker's slots, which slot each buffer name takes, and the
    timeline the lives are positions on."""

    slot_of: dict[str, int]
    slots: list[Slot]
    timeline: Timeline

    def persistent(self, name: str) -> bool:
        """Whether ``name`` lives the whole iteration (and so keeps its
        contents from one iteration to the next)."""
        slot = self.slots[self.slot_of[name]]
        life = next(b for b in slot.occupants if b.name == name)
        return (life.start, life.end) == self.timeline.always


class WorkspaceBytes(NamedTuple):
    """What a worker's plan costs: allocated in this process, planned,
    and the first-layer aggregate's share of the allocation."""

    resident: int
    planned: int
    first_aggregate: int


class LayerWorkspaces:
    """Every worker's planned slots, handed out by buffer name."""

    def __init__(self) -> None:
        # (block name, shape) -> zeroed float32 array (shared slots).
        self.buffer_provider: Callable[..., np.ndarray] = _private
        self._plans: dict[int, WorkerPlan] = {}
        self._arrays: dict[tuple[int, int], np.ndarray] = {}
        # worker -> the inputs_version last copied into a persistent h0,
        # and worker -> (adjacency, inputs_version, M^1 built from them).
        self._inputs: dict[int, int] = {}
        self._aggregates: dict[int, tuple[csr_matrix, int, np.ndarray]] = {}

    # -- the plan ----------------------------------------------------------
    def plan(
        self, state: WorkerState, lives: Iterable[BufferLife],
        timeline: Timeline,
    ) -> None:
        """Plan ``state``'s slots from its buffers' lives and make the
        shared ones (so a worker process finds them when it attaches).
        Replaces any earlier plan of the worker, and its arrays."""
        w = state.worker_id
        slot_of, slots = plan_slots(lives)
        self._plans[w] = WorkerPlan(slot_of, slots, timeline)
        for key in [key for key in self._arrays if key[0] == w]:
            del self._arrays[key]
        self._inputs.pop(w, None)
        self._aggregates.pop(w, None)
        for k, slot in enumerate(slots):
            if slot.shared:
                self._slot_array(w, k)

    def plan_of(self, worker: int) -> WorkerPlan:
        return self._plans[worker]

    def _slot_array(self, worker: int, k: int) -> np.ndarray:
        buf = self._arrays.get((worker, k))
        if buf is None:
            slot = self._plans[worker].slots[k]
            name = f"s{k}w{worker}"
            buf = self._arrays[(worker, k)] = (
                self.buffer_provider(name, slot.shape) if slot.shared
                else _private(name, slot.shape, slot.dtype)
            )
        return buf

    def buffer(self, name: str, state: WorkerState) -> np.ndarray:
        """The slot ``state``'s buffer ``name`` lives in."""
        w = state.worker_id
        try:
            k = self._plans[w].slot_of[name]
        except KeyError:
            raise KeyError(
                f"buffer {name!r} is not in worker {w}'s workspace plan"
            ) from None
        return self._slot_array(w, k)

    def h_cat(self, state: WorkerState, k: int) -> np.ndarray:
        """``[H^k; H^k_halo]`` — the input of layer ``k + 1``."""
        return self.buffer(f"h{k}", state)

    # -- the first layer ---------------------------------------------------
    def first_input(self, state: WorkerState) -> np.ndarray | None:
        """``[X; X_halo]`` when the plan holds it as ``h0`` (None else).

        A persistent ``h0`` (the cached first hop) is copied in once per
        ``inputs_version``. Otherwise the exchange fills its tail and the
        feature shard is copied into its head on every call, since the
        slot may be shared."""
        w = state.worker_id
        plan = self._plans[w]
        if "h0" not in plan.slot_of:
            return None
        h_cat = self.buffer("h0", state)
        if not plan.persistent("h0"):
            h_cat[:state.num_local] = state.local_rows()
            return h_cat
        if self._inputs.get(w) != state.inputs_version:
            h_cat[:state.num_local] = state.local_rows()
            h_cat[state.num_local:] = state.halo_rows()
            self._inputs[w] = state.inputs_version
        return h_cat

    def first_aggregate(
        self, state: WorkerState, adjacency: csr_matrix
    ) -> np.ndarray:
        """``M^1 = adjacency @ [X; X_halo]`` (cached first hop), rebuilt
        when ``adjacency`` is a different object or the inputs' version
        moved — from the held ``h0``, or from a transient copy when
        nothing holds it."""
        aggregate = self.held_aggregate(state, adjacency)
        if aggregate is None:
            h_cat = self.first_input(state)
            if h_cat is None:
                h_cat = state.first_layer_cat()
            aggregate = spmm(adjacency, h_cat, self.buffer("m1", state))
            self._aggregates[state.worker_id] = (
                adjacency, state.inputs_version, aggregate
            )
        return aggregate

    def held_aggregate(
        self, state: WorkerState, adjacency: csr_matrix
    ) -> np.ndarray | None:
        """The current ``M^1`` of ``adjacency``, if this process holds it."""
        held = self._aggregates.get(state.worker_id)
        if (
            held is None or held[0] is not adjacency
            or held[1] != state.inputs_version
        ):
            return None
        return held[2]

    def release_first_inputs(self, state: WorkerState) -> None:
        """Drop ``state``'s feature shard and halo cache once this
        process holds what the first-layer kernel reads from them: a
        persistent ``h0`` or the constant ``M^1`` of the current inputs.
        Only rows the store holds go (:meth:`WorkerState.release_inputs`);
        a later reader re-reads them by global id. Without the cached
        first hop neither is held, and the shard stays: it is the
        exchange's source every iteration."""
        w, version = state.worker_id, state.inputs_version
        aggregate = self._aggregates.get(w)
        if self._inputs.get(w) == version or (
            aggregate is not None and aggregate[1] == version
        ):
            state.release_inputs()

    # -- lifecycle and accounting -----------------------------------------
    def clear(self) -> None:
        """Forget every plan and buffer (worker shapes changed)."""
        self._plans.clear()
        self._arrays.clear()
        self._inputs.clear()
        self._aggregates.clear()

    def detached(
        self, buffer_provider: Callable[..., np.ndarray] = _private
    ) -> LayerWorkspaces:
        """The same plans with no arrays, made through ``buffer_provider``
        (a forked worker process attaching its blocks; an executor whose
        shared blocks are gone)."""
        fresh = LayerWorkspaces()
        fresh.buffer_provider = buffer_provider
        fresh._plans = dict(self._plans)
        return fresh

    def held(self, worker: int) -> WorkspaceBytes:
        """Bytes of ``worker``'s slots: allocated in this process, in
        its plan, and held by the first-layer aggregate."""
        plan = self._plans.get(worker)
        if plan is None:
            return WorkspaceBytes(0, 0, 0)
        resident = sum(
            buf.nbytes for (owner, _), buf in self._arrays.items()
            if owner == worker
        )
        k = plan.slot_of.get("m1")
        first = self._arrays.get((worker, k))
        return WorkspaceBytes(
            resident,
            sum(slot.nbytes for slot in plan.slots),
            0 if first is None else first.nbytes,
        )
