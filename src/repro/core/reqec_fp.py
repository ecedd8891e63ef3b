"""ReqEC-FP: requesting-end error compensation for the forward pass
(paper section IV-B, Algorithms 3 and 4).

Every ``T_tr`` iterations (a *trend group*) the responding worker ships
the exact embedding rows and both ends form the changing-rate matrix
``M_cr = (H_now - H_last) / T_tr`` from them: the requesting end already
holds ``H_last``, so ``M_cr`` never travels (a deliberate deviation from
Algorithm 4's wire format, DESIGN.md section 2). In between, both ends
can form three approximations of the current rows:

* ``compressed`` — bucket-quantized rows (id 0),
* ``predicted`` — ``H_last + M_cr * (t mod T_tr + 1)`` (id 1), computable
  on the requesting end with **no payload at all**,
* ``average`` — the mean of the two (id 2).

The responder evaluates the L1 error of each candidate against the truth
it holds, selects per vertex (or per element / per matrix) the best one,
and ships only the 2-bit selector plus the quantized rows the requester
cannot predict. The proportion of predicted selections drives the
adaptive :class:`~repro.core.bit_tuner.BitTuner`.

Like Algorithms 3 and 4, the trend state is kept per vertex and layer:
one :class:`_TrendTable` per (owner, layer) with a row per exported
vertex — the union of the owner's serve lists — so a vertex exported to
three workers is stored once, not once per channel. A channel holds its
rows' positions in the table and one bit (its entry in ``_channels``):
it holds the last boundary snapshot. A channel whose boundary had no
base reads the shared rows with a zero rate, so shared state never
changes for the channels that kept theirs; a channel whose boundary
was lost keeps a private copy of the snapshot it did receive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import serialize
from repro.compression.quantization import BucketQuantizer
from repro.core.bit_tuner import BitTuner
from repro.core.messages import ChannelKey, ChannelMessage, ExchangePolicy

__all__ = ["ReqECPolicy", "is_trend_boundary",
           "SELECT_COMPRESSED", "SELECT_PREDICTED", "SELECT_AVERAGE"]

SELECT_COMPRESSED = 0
SELECT_PREDICTED = 1
SELECT_AVERAGE = 2


def is_trend_boundary(t: int, trend_period: int | None) -> bool:
    """Whether iteration ``t`` closes a trend group of ``trend_period``
    iterations, i.e. ships exact rows. ``None`` (no ReqEC-FP) never does."""
    return bool(trend_period) and (t + 1) % trend_period == 0


@dataclass(eq=False)
class _ExportPlan:
    """One owner's exported rows: its tables' rows as global vertex ids
    (the union of its serve lists, in local order) and each requester's
    positions in them. ``source`` is the serve plan it was built from;
    a new plan object (an elastic re-plan) rebuilds it."""

    source: object
    vertices: np.ndarray
    index: dict[int, np.ndarray]

    @classmethod
    def of_worker(cls, state) -> _ExportPlan:
        serves = state.serves
        if not serves:
            return cls(serves, np.empty(0, dtype=np.int64), {})
        rows = np.unique(np.concatenate(list(serves.values())))
        index = {
            requester: np.searchsorted(rows, served)
            for requester, served in serves.items()
        }
        return cls(serves, state.sub.local_vertices[rows], index)

    @property
    def nbytes(self) -> int:
        return self.vertices.nbytes + sum(
            idx.nbytes for idx in self.index.values()
        )


class _TrendTable:
    """``H_last`` and ``M_cr`` of every exported row of one (owner,
    layer). ``stamp[v]`` is the boundary that last wrote row ``v`` and
    ``base[v]`` the one whose snapshot its ``M_cr`` derives from (-1:
    none; such a row's rate is zero).

    When messages can be lost (``lossy``), ``prior_h``/``prior_m`` hold
    every row's ``H_last``/``M_cr`` from before its last write: the
    snapshot a channel whose boundary was lost still holds. Otherwise
    they are None.
    """

    __slots__ = ("h_last", "m_cr", "stamp", "base", "prior_h", "prior_m")

    def __init__(self, num_rows: int, dim: int, lossy: bool):
        self.h_last = np.zeros((num_rows, dim), dtype=np.float32)
        self.m_cr = np.zeros((num_rows, dim), dtype=np.float32)
        self.stamp = np.full(num_rows, -1, dtype=np.int32)
        self.base = np.full(num_rows, -1, dtype=np.int32)
        self.prior_h = np.zeros_like(self.h_last) if lossy else None
        self.prior_m = np.zeros_like(self.m_cr) if lossy else None

    def _arrays(self):
        for name in self.__slots__:
            array = getattr(self, name)
            if array is not None:
                yield name, array

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for _, array in self._arrays())

    def holds(self, idx: np.ndarray, since: int, t: int) -> bool:
        """Whether rows ``idx`` still hold (as of boundary ``t``) the
        snapshot taken at boundary ``since``."""
        stamp = self.stamp[idx]
        snapshot = np.where(stamp == t, self.base[idx], stamp)
        return bool((snapshot == since).all())

    def carried(
        self, vertices: np.ndarray, new_vertices: np.ndarray
    ) -> _TrendTable:
        """A table over ``new_vertices`` holding this table's rows for
        the vertices both plans export (matched by global id)."""
        table = _TrendTable(
            new_vertices.size, self.h_last.shape[1],
            lossy=self.prior_h is not None,
        )
        if vertices.size == 0 or new_vertices.size == 0:
            return table
        order = np.argsort(vertices, kind="stable")
        pos = np.searchsorted(vertices, new_vertices, sorter=order)
        src = order[np.minimum(pos, vertices.size - 1)]
        found = vertices[src] == new_vertices
        src = src[found]
        for name, array in self._arrays():
            getattr(table, name)[found] = array[src]
        return table


@dataclass(eq=False)
class _Channel:
    """A channel that holds the snapshot of boundary ``boundary_t``;
    ``zero_rate``: that boundary had no base, so ``M_cr`` is zero."""

    boundary_t: int
    zero_rate: bool


class ReqECPolicy(ExchangePolicy):
    """Forward-pass exchange with requesting-end compensation.

    One instance serves all channels of a training run, both ends of
    each (in the real system they are separate processes whose states
    stay in sync through the boundary messages). Trend state is one
    table per (owner, layer) over the owner's serve plan, so the policy
    is bound to the live worker list (:meth:`bind_plan`) before its
    first exchange.
    """

    def __init__(
        self,
        tuner: BitTuner,
        trend_period: int = 10,
        granularity: str = "vertex",
    ):
        if granularity not in ("vertex", "matrix", "element"):
            raise ValueError(f"unknown granularity {granularity!r}")
        self.tuner = tuner
        self.trend_period = trend_period
        self.granularity = granularity
        self._workers: list | None = None
        self._lossy = False
        # owner -> its export plan
        self._plans: dict[int, _ExportPlan] = {}
        # (owner, layer) -> trend table
        self._tables: dict[tuple[int, int], _TrendTable] = {}
        # The channels that hold their last boundary snapshot.
        self._channels: dict[ChannelKey, _Channel] = {}
        # Lossy only. A boundary in flight on a channel that held a
        # snapshot: the channel's state before it (dropped on delivery).
        self._unacked: dict[ChannelKey, _Channel] = {}
        # A channel whose boundary was lost: the (H_last, M_cr,
        # boundary_t) its requester still holds, until its next one.
        self._private: dict[
            ChannelKey, tuple[np.ndarray, np.ndarray, int]
        ] = {}
        self._quantizers: dict[int, BucketQuantizer] = {}

    @property
    def name(self) -> str:
        return f"reqec(T={self.trend_period},{self.granularity})"

    def bind_plan(self, workers: list, *, lossy: bool) -> None:
        """Key trend tables by owner, over ``workers[owner].serves``.

        ``workers`` is the live list: a membership change swaps its
        states in place, and the next call touching an owner whose
        ``serves`` object changed re-plans that owner's tables.
        ``lossy``: messages can be lost (fault injection is on). The
        tables then also keep each row's previous snapshot, so a channel
        whose boundary is lost still extrapolates from the snapshot its
        requester received (:meth:`fallback_rows`).
        """
        self.reset()
        self._workers = workers
        self._lossy = lossy

    def _quantizer(self, bits: int) -> BucketQuantizer:
        if bits not in self._quantizers:
            self._quantizers[bits] = BucketQuantizer(bits)
        return self._quantizers[bits]

    # ------------------------------------------------------------------
    # Trend tables
    # ------------------------------------------------------------------
    def _locate(
        self, key: ChannelKey, num_rows: int | None = None
    ) -> tuple[tuple[int, int], np.ndarray]:
        """The table key and the channel's table rows, after bringing
        the owner's plan up to date (which may drop channels)."""
        idx = self._current_plan(key.responder).index.get(key.requester)
        if idx is None or (num_rows is not None and idx.size != num_rows):
            raise RuntimeError(
                f"channel {key} carries {num_rows} rows but its owner's "
                "serve plan does not export them"
            )
        return (key.responder, key.layer), idx

    def _table(self, table_key: tuple[int, int], dim: int) -> _TrendTable:
        table = self._tables.get(table_key)
        if table is None:
            rows = self._plans[table_key[0]].vertices.size
            table = self._tables[table_key] = _TrendTable(
                rows, dim, self._lossy
            )
        elif table.h_last.shape[1] != dim:
            raise RuntimeError(
                f"trend table {table_key} holds {table.h_last.shape[1]} "
                f"columns, the channel {dim}"
            )
        return table

    def _current_plan(self, owner: int) -> _ExportPlan:
        if self._workers is None:
            raise RuntimeError(
                "ReqEC-FP keeps one trend table per owner: call "
                "bind_plan(workers, lossy=...) before the first exchange"
            )
        state = self._workers[owner]
        plan = self._plans.get(owner)
        if plan is not None and plan.source is state.serves:
            return plan
        fresh = _ExportPlan.of_worker(state)
        if plan is not None:
            self._replan(owner, plan, fresh)
        self._plans[owner] = fresh
        return fresh

    def _replan(
        self, owner: int, old: _ExportPlan, new: _ExportPlan
    ) -> None:
        """Carry ``owner``'s tables over to a new serve plan, row by
        global vertex id, and keep only the channels that still serve
        exactly the vertices they did."""
        if not np.array_equal(old.vertices, new.vertices):
            for table_key, table in list(self._tables.items()):
                if table_key[0] == owner:
                    self._tables[table_key] = table.carried(
                        old.vertices, new.vertices
                    )
        for key in [k for k in self._channels if k.responder == owner]:
            before = old.index.get(key.requester)
            after = new.index.get(key.requester)
            if after is None or not np.array_equal(
                old.vertices[before], new.vertices[after]
            ):
                del self._channels[key]

    def _held(
        self, key: ChannelKey, num_rows: int | None = None
    ) -> tuple[_TrendTable, np.ndarray, _Channel] | None:
        """The channel's table, rows and state — None when it holds no
        snapshot (bringing the owner's plan up to date may drop it)."""
        if key not in self._channels:
            return None
        table_key, idx = self._locate(key, num_rows)
        channel = self._channels.get(key)
        if channel is None:
            return None
        return self._tables[table_key], idx, channel

    def _snapshot(
        self,
        key: ChannelKey,
        table: _TrendTable,
        idx: np.ndarray,
        rows: np.ndarray,
        t: int,
        has_base: bool,
    ) -> None:
        """Write boundary ``t``'s rows into the table, in place.

        The first channel to reach a row at ``t`` forms its
        ``M_cr = (rows - H_last) / T_tr`` from the old snapshot (the
        same two float32 ops per row as a per-channel table), then
        overwrites it; a later channel sharing the row checks that its
        rows are bit-equal to the ones written.
        """
        first = table.stamp[idx] != t
        if not first.all():
            seen = ~first
            if not np.array_equal(
                rows[seen].view(np.uint32),
                table.h_last[idx[seen]].view(np.uint32),
            ):
                raise RuntimeError(
                    f"channel {key}: rows shared with another channel of "
                    f"worker {key.responder} differ at boundary t={t}"
                )
            rows, idx = rows[first], idx[first]
        if idx.size:
            if table.prior_h is not None:
                table.prior_h[idx] = table.h_last[idx]
                table.prior_m[idx] = table.m_cr[idx]
            prior = table.stamp[idx]
            based = prior >= 0
            # A row without a snapshot keeps its zero rate.
            rated, rated_rows = (
                (idx, rows) if based.all() else (idx[based], rows[based])
            )
            if rated.size:
                rate = table.h_last[rated]
                np.subtract(rated_rows, rate, out=rate)
                rate /= self.trend_period
                table.m_cr[rated] = rate
            table.h_last[idx] = rows
            table.base[idx] = prior
            table.stamp[idx] = t
        self._channels[key] = _Channel(boundary_t=t, zero_rate=not has_base)

    def _predict(
        self,
        table: _TrendTable,
        idx: np.ndarray,
        channel: _Channel,
        steps: int,
    ) -> np.ndarray:
        """The predicted candidate ``H_last + M_cr * steps`` of table
        rows ``idx``, as a fresh array the caller may overwrite."""
        if channel.zero_rate:
            h_pdt = np.zeros((idx.size, table.m_cr.shape[1]), np.float32)
        else:
            h_pdt = table.m_cr[idx]
        h_pdt *= steps
        h_pdt += table.h_last[idx]
        return h_pdt

    def trend_table_bytes(self, worker: int) -> int:
        """Bytes of the trend tables, export plan and private snapshots
        of the channels ``worker`` owns."""
        plan = self._plans.get(worker)
        return sum(
            table.nbytes for (owner, _), table in self._tables.items()
            if owner == worker
        ) + sum(
            h_last.nbytes + m_cr.nbytes
            for key, (h_last, m_cr, _) in self._private.items()
            if key.responder == worker
        ) + (plan.nbytes if plan is not None else 0)

    # ------------------------------------------------------------------
    # Responding end (Algorithm 4)
    # ------------------------------------------------------------------
    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        if rows_mask is not None:
            raise NotImplementedError(
                "ReqEC-FP keeps dense per-vertex trend tables; sampled "
                "training uses the compression or ResEC policies instead"
            )
        rows = np.ascontiguousarray(rows, dtype=np.float32)

        if is_trend_boundary(t, self.trend_period):
            table_key, idx = self._locate(key, rows.shape[0])
            table = self._table(table_key, rows.shape[1])
            # ``has_base`` (frame flag bit 0): the channel still holds
            # the previous snapshot, so M_cr derives from it.
            channel = self._channels.get(key)
            has_base = channel is not None and table.holds(
                idx, channel.boundary_t, t
            )
            if has_base and table.prior_h is not None:
                self._unacked[key] = channel
            self._snapshot(key, table, idx, rows, t, has_base)
            # Read-only: an in-place write raises instead of reaching
            # the requester.
            sent = rows.copy()
            sent.setflags(write=False)
            return ChannelMessage(
                kind="exact", frame=serialize.encode_exact(sent, has_base)
            )

        bits = self.tuner.bits(key.pair)
        quantizer = self._quantizer(bits)
        held = self._held(key, rows.shape[0])

        if held is None:
            # No trend snapshot (first trend group): compressed only.
            quantized = quantizer.encode(rows)
            if self.health is not None:
                self.health.record_selection(
                    key.pair, (rows.shape[0], 0, 0), bits, t
                )
            return ChannelMessage(
                kind="quant", frame=serialize.encode_quantized(quantized),
                meta={"proportion": 0.0},
            )

        h_pdt = self._predict(*held, t % self.trend_period + 1)
        # Quantize exactly once: the bucket ids score the compressed
        # candidate AND — sliced at the non-predicted rows — form the
        # subset payload, since ids depend only on (value, lo, hi, bits).
        ids, reps, lo, hi = quantizer.encode_ids(rows)
        h_cps = np.take(reps, ids).reshape(rows.shape)

        selection, proportion = self._select(rows, h_cps, h_pdt)
        # Ship only what the requester cannot predict: the rows (or
        # elements, at element granularity) not predicted, their bucket
        # ids sliced from the ones already computed — quantizing that
        # subset with the full-matrix (lo, hi) yields exactly these ids.
        sub_ids = ids.reshape(rows.shape)[selection != SELECT_PREDICTED]
        subset = quantizer.from_ids(sub_ids, sub_ids.shape, reps, lo, hi)
        if self.health is not None:
            counts = np.bincount(selection.ravel(), minlength=3)
            self.health.record_selection(key.pair, counts, bits, t)
        return ChannelMessage(
            kind="selector",
            frame=serialize.encode_selector(selection, subset, proportion),
            meta={"proportion": proportion},
        )

    def _select(
        self, truth: np.ndarray, h_cps: np.ndarray, h_pdt: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Pick the best candidate at the configured granularity.

        Scores the compressed, predicted and average candidates by L1
        error against ``truth`` through one scratch matrix; the average
        is formed in ``h_cps`` once the compressed score is taken, so
        ``h_cps`` is consumed. Returns the selection array (shape
        depends on granularity) and the proportion of predicted
        selections.
        """
        scratch = np.empty_like(truth)

        def score(candidate: np.ndarray) -> np.ndarray:
            np.subtract(candidate, truth, out=scratch)
            np.abs(scratch, out=scratch)
            if self.granularity == "vertex":
                return scratch.sum(axis=1)
            if self.granularity == "matrix":
                return scratch.sum()
            return scratch.copy()

        s_cps = score(h_cps)
        s_pdt = score(h_pdt)
        h_avg = np.add(h_pdt, h_cps, out=h_cps)
        h_avg *= 0.5
        scores = np.stack([s_cps, s_pdt, score(h_avg)], axis=-1)
        if self.granularity == "matrix":
            selection = np.full(
                truth.shape[0], int(scores.argmin()), dtype=np.uint8
            )
        else:
            selection = scores.argmin(axis=-1).astype(np.uint8)
        proportion = float((selection == SELECT_PREDICTED).mean())
        return selection, proportion

    # ------------------------------------------------------------------
    # Requesting end (Algorithm 3)
    # ------------------------------------------------------------------
    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        if message.kind == "exact":
            # A view of the responder's read-only copy (see respond):
            # the halo scatter copies out of it.
            rows, has_base = serialize.decode_exact(message.frame)
            table_key, idx = self._locate(key, rows.shape[0])
            table = self._table(table_key, rows.shape[1])
            self._unacked.pop(key, None)
            self._private.pop(key, None)
            channel = self._channels.get(key)
            if channel is not None and channel.boundary_t == t:
                # Both ends live in this process and share the table:
                # the rows received must be the rows it holds.
                if channel.zero_rate == has_base or not np.array_equal(
                    rows.view(np.uint32), table.h_last[idx].view(np.uint32)
                ):
                    raise RuntimeError(
                        f"channel {key}: the two ends hold different trend "
                        f"snapshots at boundary t={t}"
                    )
                return rows
            # A separate requesting end takes the snapshot itself.
            if has_base and (
                channel is None
                or not table.holds(idx, channel.boundary_t, t)
            ):
                raise RuntimeError(
                    f"channel {key} received a boundary derived from an "
                    "exact trend snapshot this end does not hold"
                )
            self._snapshot(key, table, idx, rows, t, has_base)
            return rows

        if message.kind == "quant":
            return serialize.decode_quantized(message.frame).decode()

        selection, quantized, _ = serialize.decode_selector(message.frame)
        held = self._held(key, selection.shape[0])
        if held is None:
            raise RuntimeError(
                f"channel {key} received a selector message before any "
                "exact trend snapshot"
            )
        return self._reconstruct(
            selection, quantized, *held, t % self.trend_period + 1
        )

    def _reconstruct(
        self,
        selection: np.ndarray,
        quantized,
        table: _TrendTable,
        idx: np.ndarray,
        channel: _Channel,
        steps: int,
    ) -> np.ndarray:
        """The rows the selector names: shipped where compressed,
        predicted where predicted, their mean where averaged.

        ``quantized`` holds the non-predicted rows (elements, at element
        granularity) in selection order, so boolean masks of
        ``selection`` address both sides without index arrays; the
        averaged ones are formed in the shipped buffer first, so one
        scatter places everything shipped.
        """
        h_pdt = self._predict(table, idx, channel, steps)
        shipped = selection != SELECT_PREDICTED
        if not shipped.any():
            return h_pdt
        merged = quantized.decode()
        average = selection == SELECT_AVERAGE
        if average.any():
            shipped_average = average[shipped]
            mean = merged[shipped_average]
            mean += h_pdt[average]
            mean *= 0.5
            merged[shipped_average] = mean
        h_pdt[shipped] = merged
        return h_pdt

    # ------------------------------------------------------------------
    # Fault tolerance (driven by the NAC)
    # ------------------------------------------------------------------
    def fallback_rows(self, key: ChannelKey, t: int) -> np.ndarray | None:
        """Requester-end stale-halo approximation of the current rows.

        When a message is undeliverable, the requester can still form
        the *predicted* candidate from its last trend snapshot with no
        payload at all — the same machinery Algorithm 3 uses between
        boundaries, extrapolated from however old the snapshot is. A
        channel whose boundary was lost reads its private copy of the
        snapshot before it (the shared rows hold one it never received).
        """
        private = self._private.get(key)
        if private is not None:
            h_last, m_cr, boundary_t = private
            h_pdt = m_cr * (t - boundary_t)
            h_pdt += h_last
            return h_pdt
        held = self._held(key)
        if held is None:
            return None
        table, idx, channel = held
        return self._predict(table, idx, channel, t - channel.boundary_t)

    def on_delivery_failure(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        rows_mask: np.ndarray | None = None,
    ) -> bool:
        """Keep both ends consistent after a lost message.

        A lost boundary snapshot is the dangerous case: the responder
        would start shipping selector messages the requester cannot
        reconstruct. Clearing the channel's bit makes it fall back to
        compressed-only messages until the next boundary, whose clear
        ``has_base`` flag gives it a zero rate over the shared rows.
        The requester still holds the snapshot before the lost one: the
        channel copies it out of the table's prior rows, for
        :meth:`fallback_rows` (copy on divergence).
        """
        del rows_mask
        if message.kind == "exact":
            self._channels.pop(key, None)
            previous = self._unacked.pop(key, None)
            if previous is not None:
                table_key, idx = self._locate(key)
                table = self._tables[table_key]
                h_last = table.prior_h[idx]
                m_cr = (np.zeros_like(h_last) if previous.zero_rate
                        else table.prior_m[idx])
                self._private[key] = (h_last, m_cr, previous.boundary_t)
        return False

    def invalidate_worker(self, worker: int) -> None:
        """Drop the trend snapshot of channels touching ``worker`` (crash
        recovery).

        Channels the crashed worker responds on *or* requests from must
        restart their trend group: the rebuilt process holds neither the
        snapshot nor the changing rate, and the surviving end must not
        reconstruct against state the other side no longer has. The
        table rows stay: other channels may share them.
        """
        for state in (self._channels, self._unacked, self._private):
            for key in [
                k for k in state if worker in (k.responder, k.requester)
            ]:
                del state[key]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all trend state (between independent runs)."""
        self._plans.clear()
        self._tables.clear()
        self._channels.clear()
        self._unacked.clear()
        self._private.clear()
