"""Per-channel traffic ledger for the halo transport.

Every halo exchange moves one message per planned (responder,
requester) channel; the :class:`~repro.cluster.network.TrafficMeter`
aggregates those into per-machine and per-category totals, which is
what the epoch model needs — but it cannot answer *which channel* the
bytes belong to, which is exactly the view per-channel bit-width
tuning (AdaQP-style) and straggler debugging need.

The :class:`ChannelLedger` keeps one :class:`ChannelRecord` per
``(responder, consumer, layer, direction)`` channel: wire bytes split
into metered (inter-machine, what the TrafficMeter charges) and local
(co-located, free) bytes, delivery attempts (frames), retries,
degradations by kind, and enough element counts to compute the
channel's *effective bit-width* — bits that actually crossed the wire
per payload element, headers included.

Reconciliation contract: the sum of ``metered_bytes`` over a
direction's channels equals the TrafficMeter's category total for that
direction **exactly** (``fp`` ↔ ``fp_embeddings``, ``bp`` ↔
``bp_gradients``), because the ledger records the same charges the
transport hands the meter, including retransmissions.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ChannelRecord",
    "LedgerSnapshot",
    "ChannelLedger",
    "NullChannelLedger",
    "NULL_LEDGER",
    "direction_of_category",
]

# TrafficMeter categories <-> ledger directions (paper Fig. 6 labels).
_CATEGORY_DIRECTIONS = {"fp_embeddings": "fp", "bp_gradients": "bp"}

LedgerKey = tuple[int, int, int, str]  # (responder, consumer, layer, direction)


def direction_of_category(category: str) -> str:
    """Ledger direction for a traffic-meter category (identity for
    categories outside the fp/bp halo directions, e.g. ``eval``)."""
    return _CATEGORY_DIRECTIONS.get(category, category)


@dataclass
class ChannelRecord:
    """Running totals for one (responder, consumer, layer, direction)."""

    metered_bytes: int = 0
    local_bytes: int = 0
    frames: int = 0
    retries: int = 0
    retry_bytes: int = 0
    rows: int = 0
    elements: int = 0
    degraded_predicted: int = 0
    degraded_cached: int = 0
    degraded_zero: int = 0
    # Wire bytes by message kind (retries included); sums to wire_bytes.
    exact_bytes: int = 0
    selector_bytes: int = 0
    quant_bytes: int = 0
    raw_bytes: int = 0

    @property
    def wire_bytes(self) -> int:
        """All bytes serialized for this channel, metered or local."""
        return self.metered_bytes + self.local_bytes

    @property
    def degraded(self) -> int:
        return (
            self.degraded_predicted + self.degraded_cached + self.degraded_zero
        )

    @property
    def effective_bits(self) -> float:
        """Wire bits per payload element (headers and retries included)."""
        if not self.elements:
            return 0.0
        return 8.0 * self.wire_bytes / self.elements

    def as_dict(self) -> dict:
        return {
            **vars(self),
            "wire_bytes": self.wire_bytes,
            "effective_bits": self.effective_bits,
        }


@dataclass(frozen=True)
class LedgerSnapshot:
    """Immutable copy of the ledger, channels in sorted key order."""

    channels: tuple[tuple[LedgerKey, ChannelRecord], ...] = ()

    def direction_totals(self) -> dict[str, dict]:
        """``direction -> aggregate record fields`` over its channels."""
        out: dict[str, dict] = {}
        for (_, _, _, direction), record in self.channels:
            agg = out.get(direction)
            if agg is None:
                agg = out[direction] = {
                    "metered_bytes": 0, "local_bytes": 0, "frames": 0,
                    "retries": 0, "retry_bytes": 0, "rows": 0,
                    "elements": 0, "degraded": 0, "channels": 0,
                }
            agg["metered_bytes"] += record.metered_bytes
            agg["local_bytes"] += record.local_bytes
            agg["frames"] += record.frames
            agg["retries"] += record.retries
            agg["retry_bytes"] += record.retry_bytes
            agg["rows"] += record.rows
            agg["elements"] += record.elements
            agg["degraded"] += record.degraded
            agg["channels"] += 1
        return out

    def top_channels(self, n: int = 20) -> list[tuple[LedgerKey, ChannelRecord]]:
        """The ``n`` heaviest channels by wire bytes, descending; ties
        broken by key so the waterfall is deterministic."""
        ranked = sorted(
            self.channels, key=lambda item: (-item[1].wire_bytes, item[0])
        )
        return ranked[:n]

    def as_dict(self) -> dict:
        return {
            "channels": {
                f"{responder}->{consumer}/L{layer}/{direction}":
                    record.as_dict()
                for (responder, consumer, layer, direction), record
                in self.channels
            },
            "directions": self.direction_totals(),
        }


class ChannelLedger:
    """Accumulates per-channel traffic records (hot path: dict updates)."""

    enabled = True

    def __init__(self):
        self._records: dict[LedgerKey, ChannelRecord] = {}

    def _record(self, key, direction: str) -> ChannelRecord:
        ledger_key = (key.responder, key.requester, key.layer, direction)
        record = self._records.get(ledger_key)
        if record is None:
            record = self._records[ledger_key] = ChannelRecord()
        return record

    # ------------------------------------------------------------------
    # Hooks (called by HaloTransport)
    # ------------------------------------------------------------------
    def record_frame(
        self,
        key,
        category: str,
        nbytes: int,
        metered: bool,
        retry: bool = False,
        kind: str = "raw",
    ) -> None:
        """One delivery attempt of one channel message.

        ``metered`` mirrors the TrafficMeter's intra-machine exemption:
        only inter-machine frames count toward ``metered_bytes``;
        ``kind`` names the per-kind byte field the frame also counts in.
        """
        record = self._record(key, direction_of_category(category))
        record.frames += 1
        field = f"{kind}_bytes"
        setattr(record, field, getattr(record, field) + nbytes)
        if metered:
            record.metered_bytes += nbytes
        else:
            record.local_bytes += nbytes
        if retry:
            record.retries += 1
            record.retry_bytes += nbytes

    def record_rows(
        self, key, category: str, rows: int, elements: int
    ) -> None:
        """Payload shape of one successfully decoded message."""
        record = self._record(key, direction_of_category(category))
        record.rows += rows
        record.elements += elements

    def record_degraded(self, key, category: str, kind: str) -> None:
        """A channel fell back to ``kind`` (predicted/cached/zero)."""
        record = self._record(key, direction_of_category(category))
        if kind == "predicted":
            record.degraded_predicted += 1
        elif kind == "cached":
            record.degraded_cached += 1
        else:
            record.degraded_zero += 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self) -> LedgerSnapshot:
        """Freeze the ledger (records are copied, keys sorted)."""
        return LedgerSnapshot(
            channels=tuple(
                (ledger_key, ChannelRecord(**vars(record)))
                for ledger_key, record in sorted(self._records.items())
            ),
        )

    def reset(self) -> None:
        """Drop every record (between independent runs)."""
        self._records.clear()


class NullChannelLedger:
    """Disabled twin: every hook returns immediately."""

    enabled = False

    def record_frame(
        self, key, category, nbytes, metered, retry=False, kind="raw"
    ):
        pass

    def record_rows(self, key, category, rows, elements):
        pass

    def record_degraded(self, key, category, kind):
        pass

    def snapshot(self) -> LedgerSnapshot:
        return LedgerSnapshot()

    def reset(self) -> None:
        """Nothing recorded, nothing to clear."""


NULL_LEDGER = NullChannelLedger()
