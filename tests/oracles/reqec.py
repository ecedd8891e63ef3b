"""ReqEC-FP as it stood with per-channel trend state: the verbatim
parent ``core/reqec_fp.py`` (constants, ``is_trend_boundary``,
``TrendState``, ``ReqECPolicy``), standalone — it imports only the
quantizer, the tuner and the message types, never the live policy.

Two references are built on it:

* :class:`PerChannelReqECPolicy` — the parent policy itself: one
  ``TrendState`` per channel end. The shared-table policy must match it
  channel by channel (frames, selections, ``has_base``, reconstructed
  rows) — ``tests/test_reqec_trend_table.py``.
* :class:`ReferenceReqECPolicy` — its ``respond``/``receive`` from
  before the boundary frame stopped shipping ``M_cr``: the responder
  puts the rows AND ``M_cr`` on the wire (header + the rows' bytes
  twice) and the requester stores what it is handed. Everything else is
  the per-channel parent's, so a run through this class is that parent
  run (``TestBoundaryCrossingGolden``).

Edits: the parent's messages carried a policy-specific payload and a
hand-computed size, which live messages no longer do; the oracle keeps
both in its own :class:`ParentMessage`, with the parent's size
arithmetic (``MATRIX_PREFIX_BYTES`` and ``QuantizedMatrix.payload_bytes``
as they stood) as module-level copies. The transport reads only
``kind``, ``nbytes`` and ``meta`` of either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.quantization import BucketQuantizer
from repro.core.bit_tuner import BitTuner
from repro.core.messages import ChannelKey, ExchangePolicy

__all__ = [
    "ParentMessage", "PerChannelReqECPolicy", "ReferenceReqECPolicy",
    "TrendState",
]

# Frame header (16) + shape word (8), as the parent sized messages.
MATRIX_PREFIX_BYTES = 24


@dataclass
class ParentMessage:
    """The parent's ``ChannelMessage``: a payload and its computed size."""

    kind: str
    payload: object
    nbytes: int
    meta: dict = field(default_factory=dict)


ChannelMessage = ParentMessage


def _payload_bytes(quantized) -> int:
    """The parent's ``QuantizedMatrix.payload_bytes()``: frame + shape +
    (bits, lo, hi), the bucket table and the packed ids."""
    header = MATRIX_PREFIX_BYTES + 9
    return header + quantized.bucket_values.size * 4 + quantized.packed.size

SELECT_COMPRESSED = 0
SELECT_PREDICTED = 1
SELECT_AVERAGE = 2


def is_trend_boundary(t: int, trend_period: int | None) -> bool:
    """Whether iteration ``t`` closes a trend group of ``trend_period``
    iterations, i.e. ships exact rows. ``None`` (no ReqEC-FP) never does."""
    return bool(trend_period) and (t + 1) % trend_period == 0


@dataclass
class TrendState:
    """Last exact snapshot and changing rate for one channel."""

    h_last: np.ndarray
    m_cr: np.ndarray
    boundary_t: int


class PerChannelReqECPolicy(ExchangePolicy):
    """Forward-pass exchange with requesting-end compensation.

    One instance serves all channels of a training run; per-channel trend
    state is kept for both ends (in the real system they are separate
    processes whose states stay in sync through the boundary messages).
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
        self._responder_trend: dict[ChannelKey, TrendState] = {}
        self._requester_trend: dict[ChannelKey, TrendState] = {}
        self._quantizers: dict[int, BucketQuantizer] = {}

    @property
    def name(self) -> str:
        return f"reqec(T={self.trend_period},{self.granularity})"

    def _quantizer(self, bits: int) -> BucketQuantizer:
        if bits not in self._quantizers:
            self._quantizers[bits] = BucketQuantizer(bits)
        return self._quantizers[bits]

    def _changing_rate(
        self, rows: np.ndarray, base: TrendState | None
    ) -> np.ndarray:
        """``M_cr`` of a boundary, read-only: ``(rows - base.h_last) /
        T_tr``, or zeros without a base. Both ends run these same two
        float32 ops on the same inputs, so their results are bit-equal."""
        if base is None:
            m_cr = np.zeros_like(rows)
        else:
            m_cr = np.subtract(rows, base.h_last)
            m_cr /= self.trend_period
        m_cr.setflags(write=False)
        return m_cr

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
                "ReqEC-FP keeps dense per-channel trend state; sampled "
                "training uses the compression or ResEC policies instead"
            )
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        state = self._responder_trend.get(key)

        if is_trend_boundary(t, self.trend_period):
            # One snapshot serves the trend state of both ends and the
            # payload; read-only, so an in-place write raises instead of
            # corrupting the other end. ``has_base`` (frame flag bit 0):
            # M_cr derives from the previously delivered snapshot.
            h_last = rows.copy()
            h_last.setflags(write=False)
            has_base = state is not None and state.h_last.shape == rows.shape
            m_cr = self._changing_rate(rows, state if has_base else None)
            self._responder_trend[key] = TrendState(
                h_last=h_last, m_cr=m_cr, boundary_t=t
            )
            return ChannelMessage(
                kind="exact", payload=(h_last, has_base),
                nbytes=MATRIX_PREFIX_BYTES + rows.nbytes,
            )

        bits = self.tuner.bits(key.pair)
        quantizer = self._quantizer(bits)

        if state is None:
            # No trend snapshot yet (first trend group): compressed only.
            quantized = quantizer.encode(rows)
            if self.health is not None:
                self.health.record_selection(
                    key.pair, (rows.shape[0], 0, 0), bits, t
                )
            return ChannelMessage(
                kind="quant", payload=quantized,
                nbytes=_payload_bytes(quantized),
                meta={"proportion": 0.0},
            )

        h_pdt = self._predict(state, t % self.trend_period + 1)
        # Quantize exactly once: the bucket ids score the compressed
        # candidate AND — sliced at the non-predicted rows — form the
        # subset payload, since ids depend only on (value, lo, hi, bits).
        ids, reps, lo, hi = quantizer.encode_ids(rows)
        h_cps = np.take(reps, ids).reshape(rows.shape)

        selection, proportion = self._select(rows, h_cps, h_pdt)
        subset, nbytes = self._build_compressed_payload(
            rows, selection, quantizer, ids, reps, lo, hi
        )
        if self.health is not None:
            counts = np.bincount(selection.ravel(), minlength=3)
            self.health.record_selection(key.pair, counts, bits, t)
        return ChannelMessage(
            kind="selector", payload=(selection, subset, proportion),
            nbytes=nbytes,
            meta={"proportion": proportion},
        )

    @staticmethod
    def _predict(state: TrendState, steps: int) -> np.ndarray:
        """The predicted candidate ``H_last + M_cr * steps``, as a fresh
        array the caller may overwrite."""
        h_pdt = state.m_cr * steps
        h_pdt += state.h_last
        return h_pdt

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

    def _build_compressed_payload(
        self,
        rows: np.ndarray,
        selection: np.ndarray,
        quantizer: BucketQuantizer,
        ids: np.ndarray,
        reps: np.ndarray,
        lo: float,
        hi: float,
    ):
        """Ship only what the requester cannot predict; size the wire.

        Vertex/matrix granularity ships whole rows for non-predicted
        vertices; element granularity ships individual elements. The
        already-computed bucket ids are sliced and re-packed — quantizing
        a value subset with the full-matrix (lo, hi) yields exactly these
        ids, so no second quantization pass is needed.
        """
        sub_ids = ids.reshape(rows.shape)[selection != SELECT_PREDICTED]
        quantized = quantizer.from_ids(sub_ids, sub_ids.shape, reps, lo, hi)
        selector_bytes = -(-2 * selection.size // 8)
        # Frame + shape + (proportion, selector length) + selector bits
        # + the nested quantized frame — see cluster.serialize.
        nbytes = (
            MATRIX_PREFIX_BYTES + 8 + selector_bytes
            + _payload_bytes(quantized)
        )
        return quantized, nbytes

    # ------------------------------------------------------------------
    # Requesting end (Algorithm 3)
    # ------------------------------------------------------------------
    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        if message.kind == "exact":
            # The responder's read-only snapshot (see respond): shared,
            # not copied — the halo scatter copies out of it.
            rows, has_base = message.payload
            base = self._requester_trend.get(key) if has_base else None
            if has_base and (base is None or base.h_last.shape != rows.shape):
                raise RuntimeError(
                    f"channel {key} received a boundary derived from an "
                    "exact trend snapshot this end does not hold"
                )
            m_cr = self._changing_rate(rows, base)
            # Both ends live in this process: check they agree bit for
            # bit (NaNs included), then keep the one array (RSS invariant).
            peer = self._responder_trend.get(key)
            if peer is not None and peer.h_last is rows:
                if not np.array_equal(
                    m_cr.view(np.uint32), peer.m_cr.view(np.uint32)
                ):
                    raise RuntimeError(
                        f"channel {key}: the two ends derived different "
                        f"changing rates at boundary t={t}"
                    )
                m_cr = peer.m_cr
            self._requester_trend[key] = TrendState(
                h_last=rows, m_cr=m_cr, boundary_t=t
            )
            return rows

        if message.kind == "quant":
            return message.payload.decode()

        selection, quantized, _ = message.payload
        state = self._requester_trend.get(key)
        if state is None:
            raise RuntimeError(
                f"channel {key} received a selector message before any "
                "exact trend snapshot"
            )
        h_pdt = self._predict(state, t % self.trend_period + 1)
        return self._reconstruct(selection, quantized, h_pdt)

    def _reconstruct(
        self, selection: np.ndarray, quantized, h_pdt: np.ndarray
    ) -> np.ndarray:
        """Merge the shipped quantized payload into ``h_pdt``, in place.

        ``quantized`` holds the non-predicted rows (elements, at element
        granularity) in selection order, so boolean masks of
        ``selection`` address both sides without index arrays.
        """
        mask = selection != SELECT_PREDICTED
        if not mask.any():
            return h_pdt
        merged = quantized.decode()
        average = selection == SELECT_AVERAGE
        if average.any():
            shipped_average = average[mask]
            merged[shipped_average] = 0.5 * (
                merged[shipped_average] + h_pdt[average]
            )
        h_pdt[mask] = merged
        return h_pdt

    # ------------------------------------------------------------------
    # Fault tolerance (driven by the NAC)
    # ------------------------------------------------------------------
    def fallback_rows(self, key: ChannelKey, t: int) -> np.ndarray | None:
        """Requester-end stale-halo approximation of the current rows.

        When a message is undeliverable, the requester can still form
        the *predicted* candidate from its last trend snapshot with no
        payload at all — the same machinery Algorithm 3 uses between
        boundaries, extrapolated from however old the snapshot is.
        """
        state = self._requester_trend.get(key)
        if state is None:
            return None
        steps = t - state.boundary_t
        return (state.h_last + state.m_cr * steps).astype(np.float32)

    def on_delivery_failure(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        rows_mask: np.ndarray | None = None,
    ) -> bool:
        """Keep both ends consistent after a lost message.

        A lost boundary snapshot is the dangerous case: the responder
        would start shipping selector messages the requester cannot
        reconstruct. Rolling the responder's trend state back makes the
        channel fall back to compressed-only messages until the next
        boundary, whose clear ``has_base`` flag makes the requester start
        from a zero rate too instead of its older, stale snapshot.
        """
        del rows_mask
        if message.kind == "exact":
            self._responder_trend.pop(key, None)
        return False

    def invalidate_worker(self, worker: int) -> None:
        """Drop trend state touching ``worker`` (crash recovery).

        Channels the crashed worker responds on *or* requests from must
        restart their trend group: the rebuilt process holds neither the
        snapshot nor the changing rate, and the surviving end must not
        reconstruct against state the other side no longer has.
        """
        for table in (self._responder_trend, self._requester_trend):
            stale = [
                key for key in table
                if worker in (key.responder, key.requester)
            ]
            for key in stale:
                del table[key]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all per-channel state (between independent runs)."""
        self._responder_trend.clear()
        self._requester_trend.clear()


class ReferenceReqECPolicy(PerChannelReqECPolicy):
    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        if rows_mask is not None:
            raise NotImplementedError(
                "ReqEC-FP keeps dense per-channel trend state; sampled "
                "training uses the compression or ResEC policies instead"
            )
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        state = self._responder_trend.get(key)

        if is_trend_boundary(t, self.trend_period):
            # One snapshot serves the trend state of both ends and the
            # payload; read-only, so an in-place write raises instead of
            # corrupting the other end.
            h_last = rows.copy()
            if state is not None and state.h_last.shape == rows.shape:
                m_cr = np.subtract(rows, state.h_last)
                m_cr /= self.trend_period
            else:
                m_cr = np.zeros_like(rows)
            h_last.setflags(write=False)
            m_cr.setflags(write=False)
            self._responder_trend[key] = TrendState(
                h_last=h_last, m_cr=m_cr, boundary_t=t
            )
            return ChannelMessage(
                kind="exact", payload=(h_last, m_cr),
                nbytes=MATRIX_PREFIX_BYTES + 2 * rows.nbytes,
            )

        bits = self.tuner.bits(key.pair)
        quantizer = self._quantizer(bits)

        if state is None:
            # No trend snapshot yet (first trend group): compressed only.
            quantized = quantizer.encode(rows)
            if self.health is not None:
                self.health.record_selection(
                    key.pair, (rows.shape[0], 0, 0), bits, t
                )
            return ChannelMessage(
                kind="quant", payload=quantized,
                nbytes=_payload_bytes(quantized),
                meta={"proportion": 0.0},
            )

        h_pdt = self._predict(state, t % self.trend_period + 1)
        # Quantize exactly once: the bucket ids score the compressed
        # candidate AND — sliced at the non-predicted rows — form the
        # subset payload, since ids depend only on (value, lo, hi, bits).
        ids, reps, lo, hi = quantizer.encode_ids(rows)
        h_cps = np.take(reps, ids).reshape(rows.shape)

        selection, proportion = self._select(rows, h_cps, h_pdt)
        subset, nbytes = self._build_compressed_payload(
            rows, selection, quantizer, ids, reps, lo, hi
        )
        if self.health is not None:
            counts = np.bincount(selection.ravel(), minlength=3)
            self.health.record_selection(key.pair, counts, bits, t)
        return ChannelMessage(
            kind="selector", payload=(selection, subset, proportion),
            nbytes=nbytes,
            meta={"proportion": proportion},
        )

    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        if message.kind == "exact":
            # The responder's read-only snapshot (see respond): shared,
            # not copied — the halo scatter copies out of it.
            rows, m_cr = message.payload
            self._requester_trend[key] = TrendState(
                h_last=rows, m_cr=m_cr, boundary_t=t
            )
            return rows

        if message.kind == "quant":
            return message.payload.decode()

        selection, quantized, _ = message.payload
        state = self._requester_trend.get(key)
        if state is None:
            raise RuntimeError(
                f"channel {key} received a selector message before any "
                "exact trend snapshot"
            )
        h_pdt = self._predict(state, t % self.trend_period + 1)
        return self._reconstruct(selection, quantized, h_pdt)
