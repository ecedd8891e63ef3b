"""Wire-size invariants: every byte count a policy *charges* is the
length of the frame it ships, and that frame is the layout
``cluster/serialize.py`` documents.

The traffic meter bills ``ChannelMessage.nbytes``, the length of the
message's frame, so these tests pin the frames themselves: their
lengths against the documented layout, and the decoded content
re-encoded to the same length — no tolerances — across granularities,
bit widths, matrix shapes, and the all-predicted (empty subset)
selector edge case. The layout's sizes have one owner.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster.serialize import (
    MATRIX_PREFIX_BYTES,
    decode_exact,
    decode_quantized,
    decode_selector,
    encode_exact,
    encode_quantized,
    encode_selector,
)
from repro.compression.quantization import (
    SUPPORTED_BITS,
    BucketQuantizer,
    packed_size,
)
from repro.core.bit_tuner import BitTuner
from repro.core.messages import ChannelKey
from repro.core.reqec_fp import SELECT_PREDICTED, ReqECPolicy
from reqec_owners import bind


@pytest.fixture
def rows():
    rng = np.random.default_rng(0)
    return rng.uniform(-2.0, 3.0, size=(19, 7)).astype(np.float32)


def _policy(granularity, bits=4):
    return bind(ReqECPolicy(
        BitTuner(initial_bits=bits, enabled=False),
        trend_period=4,
        granularity=granularity,
    ), {(0, 1): 19})


def _quant_frame_bytes(bits: int, count: int) -> int:
    """The QUANT layout: frame header + shape word, (bits, lo, hi), the
    ``2^B`` float32 bucket table and the packed ids."""
    return MATRIX_PREFIX_BYTES + 9 + 4 * (1 << bits) + packed_size(count, bits)


class TestQuantFrameLength:
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    @pytest.mark.parametrize("shape", [None, (1, 1), (13,)])
    def test_frame_length_is_the_quant_layout(self, rows, bits, shape):
        if shape is not None:
            rows = rows.reshape(-1)[: int(np.prod(shape))].reshape(shape)
        frame = encode_quantized(BucketQuantizer(bits).encode(rows))
        assert len(frame) == _quant_frame_bytes(bits, rows.size)
        assert len(frame) == len(bytes(frame))

    def test_empty_matrix_frame_length(self):
        quantized = BucketQuantizer(4).encode(
            np.zeros((0, 7), dtype=np.float32), lo=-1.0, hi=2.0
        )
        assert len(encode_quantized(quantized)) == _quant_frame_bytes(4, 0)


class TestReqECAccounting:
    @pytest.mark.parametrize("granularity", ["vertex", "element", "matrix"])
    def test_boundary_message_is_exact_frame(self, rows, granularity):
        policy = _policy(granularity)
        for t, based in ((3, False), (7, True)):
            message = policy.respond(ChannelKey(0, 0, 1), rows, t=t)
            assert message.kind == "exact"
            sent, has_base = decode_exact(message.frame)
            assert has_base is based
            assert message.nbytes == len(encode_exact(sent, has_base))
            assert message.nbytes == MATRIX_PREFIX_BYTES + rows.nbytes

    @pytest.mark.parametrize("granularity", ["vertex", "element", "matrix"])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_selector_message_is_selector_frame(self, rows, granularity, bits):
        policy = _policy(granularity, bits=bits)
        key = ChannelKey(0, 0, 1)
        policy.respond(key, rows, t=3)  # boundary primes the trend
        message = policy.respond(key, rows + 0.05, t=4)
        assert message.kind == "selector"
        frame = encode_selector(*decode_selector(message.frame)[:2])
        assert message.nbytes == len(frame)

    @pytest.mark.parametrize("granularity", ["vertex", "element", "matrix"])
    def test_first_group_message_is_quant_frame(self, rows, granularity):
        # t inside the first trend group, before any boundary: the
        # responder has no snapshot and ships plain compressed rows.
        policy = _policy(granularity)
        message = policy.respond(ChannelKey(0, 0, 1), rows, t=1)
        assert message.kind == "quant"
        quantized = decode_quantized(message.frame)
        assert message.nbytes == len(encode_quantized(quantized))
        assert message.nbytes == _quant_frame_bytes(4, rows.size)

    @pytest.mark.parametrize("granularity", ["vertex", "element"])
    def test_all_predicted_selector_is_empty_but_sized(
        self, rows, granularity
    ):
        """The empty-mask edge: every vertex predicted, the quantized
        subset ships zero ids — the frame still carries the selector,
        the true (lo, hi) domain, and the accounting still matches.

        Rows that follow the trend exactly (``H_last + M_cr`` in the
        policy's own float32 ops) are predicted with zero error, so the
        live policy selects the prediction everywhere."""
        policy = _policy(granularity)
        key = ChannelKey(0, 0, 1)
        drift = np.float32(0.25) * np.cos(rows)
        policy.respond(key, rows, t=3)
        later = rows + drift
        policy.respond(key, later, t=7)  # M_cr = (later - rows) / 4
        rate = later - rows
        rate /= 4
        message = policy.respond(key, rate + later, t=8)
        assert message.kind == "selector"
        selection, quantized, predicted = decode_selector(message.frame)
        assert (selection == SELECT_PREDICTED).all()
        assert predicted == selection.size
        shape = rows.shape if granularity == "element" else rows.shape[:1]
        assert selection.shape == shape
        assert quantized.num_elements == 0
        _, _, lo, hi = BucketQuantizer(4).encode_ids(rate + later)
        assert quantized.lo == lo and quantized.hi == hi
        assert message.nbytes == len(
            encode_selector(selection, quantized)
        ) == (
            MATRIX_PREFIX_BYTES + 8 + packed_size(selection.size, 2)
            + _quant_frame_bytes(4, 0)
        )


class TestFramesMatchPreRewriteCodec:
    """The narrow-id quantizer must put the same bytes on the wire as the
    ``uint32`` pipeline it replaced: the frame of ``encode(x)`` equals
    the frame built from the reference ids packed by the original
    bit-matrix kernel (the ``reference_pack_bits`` fixture)."""

    @pytest.mark.parametrize("size", [0, 1, 13, 2**16 + 3])
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_quant_frame_bytes(
        self, bits, size, reference_encode_ids, reference_pack_bits
    ):
        from repro.compression.quantization import QuantizedMatrix

        x = np.random.default_rng(size % 991 + bits).uniform(
            -2.0, 3.0, size=size
        ).astype(np.float32)
        quantizer = BucketQuantizer(bits)
        for bounds in ({}, {"lo": -0.5, "hi": 1.5}, {"lo": 1.0, "hi": 1.0}):
            got = quantizer.encode(x, **bounds)
            want = QuantizedMatrix(
                shape=x.shape,
                bits=bits,
                packed=reference_pack_bits(
                    reference_encode_ids(bits, x, **bounds), bits
                ),
                lo=got.lo,
                hi=got.hi,
                bucket_values=quantizer.representatives(got.lo, got.hi),
            )
            assert bytes(encode_quantized(got)) == bytes(encode_quantized(want))

    @pytest.mark.parametrize("granularity", ["vertex", "element", "matrix"])
    def test_selector_frame_bytes(self, rows, granularity,
                                  reference_pack_bits):
        """The 2-bit selector lanes now take the uint8 selection as is;
        the frame must equal the one the uint32 round trip produced."""
        import struct

        policy = _policy(granularity)
        key = ChannelKey(0, 0, 1)
        policy.respond(key, rows, t=3)
        message = policy.respond(key, rows + 0.05, t=4)
        selection, quantized, predicted = decode_selector(message.frame)
        frame = bytes(encode_selector(selection, quantized))
        want_selector = reference_pack_bits(
            selection.astype(np.uint32).ravel(), 2
        ).tobytes()
        at = 16 + 8  # frame header + shape word
        assert struct.unpack_from("<II", frame, at) == (
            predicted, len(want_selector)
        )
        assert frame[at + 8:at + 8 + len(want_selector)] == want_selector
        assert frame[at + 8 + len(want_selector):] == bytes(
            encode_quantized(quantized)
        )


SIZE_NAMES = {"FRAME_HEADER_BYTES", "SHAPE_WORD_BYTES", "MATRIX_PREFIX_BYTES"}
SIZE_SUFFIXES = ("HEADER_BYTES", "SHAPE_WORD_BYTES", "PREFIX_BYTES")
WIRE_OWNER = Path(repro.__file__).parent / "cluster" / "serialize.py"


def _size_offenders(source: str) -> list[str]:
    """``kind:line`` for each place a module sizes a message itself:
    ``name`` — a reference to one of the layout's size constants,
    ``redefined`` — a layout size bound to a constant under a name of
    its own (``HEADER_BYTES = 16``),
    ``literal`` — the ``16 + 8`` prefix spelled in literals,
    ``message`` — a ``ChannelMessage(...)`` handed anything but its
    ``kind``, ``frame`` and ``meta``."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        redefined = isinstance(
            getattr(node, "value", None), ast.Constant
        ) and any(
            getattr(t, "id", getattr(t, "attr", "")).endswith(SIZE_SUFFIXES)
            for t in targets
        )
        named = (
            isinstance(node, ast.Name) and node.id in SIZE_NAMES
            or isinstance(node, ast.Attribute) and node.attr in SIZE_NAMES
            or isinstance(node, ast.alias) and node.name in SIZE_NAMES
        )
        literal = (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 8
            and isinstance(node.left, ast.Constant)
            and node.left.value == 16
        )
        message = (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", ""))
            == "ChannelMessage"
            and (len(node.args) > 3 or any(
                k.arg not in ("kind", "frame", "meta") for k in node.keywords
            ))
        )
        for kind, hit in (("name", named), ("redefined", redefined),
                          ("literal", literal), ("message", message)):
            if hit:
                offenders.append(f"{kind}:{getattr(node, 'lineno', '?')}")
    return offenders


# Where a byte count reaches the traffic meter: ``ClusterRuntime``'s
# three ``send_*`` calls and the parameter servers' outage retries, each
# taking the count as its third argument.
SINKS = {"send_worker_to_worker", "send_worker_to_server",
         "send_server_to_worker", "_outage_retries"}
# The metered charges that are not frames, each with the reason. A new
# one fails the guard; framing one of these fails it too, until it
# leaves this table.
NOT_FRAMED = {
    ("core/worker.py", "rows.nbytes + 16"):
        "the first-hop feature cache, set-up traffic sized as the rows "
        "plus a 16-byte header; pinned as ``feature_cache`` by every "
        "golden",
    ("engine/backends.py", "64"):
        "an online-sampling request, a modelled 64-byte message with no "
        "payload the program builds; pinned as ``sampling``",
}


def _computed_counts(source: str) -> list[tuple[int, str]]:
    """``(line, expression)`` of each byte count a module computes and
    hands a sink (:data:`SINKS`). A frame's length is not computed: a
    ``len(...)``, a ``ChannelMessage``-annotated parameter's ``.nbytes``
    (the length of its frame), a name every assignment of which binds
    one of those, or — inside a sink, whose own callers are checked — a
    parameter passed on."""
    tree = ast.parse(source)
    owner = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            owner[child] = node if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) else owner.get(node)
    hits = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and getattr(
            call.func, "attr", getattr(call.func, "id", "")
        ) in SINKS):
            continue
        count = call.args[2] if len(call.args) > 2 else next(
            k.value for k in call.keywords if k.arg in ("num_bytes", "nbytes")
        )
        func = owner.get(call)
        args = [] if func is None else [
            *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs
        ]
        messages = {
            a.arg for a in args
            if getattr(a.annotation, "id", None) == "ChannelMessage"
        }
        # What each name is assigned (an augmented assignment is
        # arithmetic); a name bound any other way is not a frame length.
        bound: dict[str, list] = {}
        for node in ast.walk(func) if func is not None else ():
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node if isinstance(node, ast.AugAssign) else node.value
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        bound.setdefault(target.id, []).append(value)

        def framed(expr) -> bool:
            if isinstance(expr, ast.Call):
                return getattr(expr.func, "id", None) == "len"
            if isinstance(expr, ast.Attribute):
                return expr.attr == "nbytes" and getattr(
                    expr.value, "id", None
                ) in messages
            if isinstance(expr, ast.Name) and expr.id in bound:
                return all(framed(value) for value in bound[expr.id])
            return (
                isinstance(expr, ast.Name) and func is not None
                and func.name in SINKS and expr.id in {a.arg for a in args}
            )

        if not framed(count):
            hits.append((call.lineno, ast.unparse(count)))
    return sorted(hits)


class TestMeteredCountsAreFrameLengths:
    """Every byte count handed the traffic meter outside
    ``cluster/serialize.py`` is the length of a frame, not arithmetic:
    ``rows * per_row + 16`` (the parameter servers' shard size before
    each shard became a RAW frame) is what this catches."""

    def test_no_module_computes_a_metered_count(self):
        root = Path(repro.__file__).parent
        found = {
            (path.relative_to(root).as_posix(), expression)
            for path in sorted(root.rglob("*.py"))
            if path != WIRE_OWNER
            for _, expression in _computed_counts(path.read_text())
        }
        assert found == set(NOT_FRAMED)

    def test_the_guard_sees_planted_counts(self):
        sample = (
            "def _pull(self, worker, shard):\n"
            "    nbytes = rows * per_row + 16\n"
            "    self.runtime.send_server_to_worker(shard.server, worker, "
            "nbytes, 'param_pull')\n"
            "    self._outage_retries(worker, shard.server, nbytes, "
            "'param_pull', True)\n"
            "def ok(self, message: ChannelMessage, frame):\n"
            "    n = len(frame)\n"
            "    runtime.send_worker_to_worker(0, 1, n, 'x')\n"
            "    runtime.send_worker_to_worker(0, 1, message.nbytes, 'x')\n"
            "    runtime.send_worker_to_server(0, 1, num_bytes=len(frame), "
            "category='x')\n"
            "def bad(self, rows, n, message):\n"
            "    runtime.send_worker_to_worker(0, 1, rows.nbytes + 16, 'x')\n"
            "    runtime.send_worker_to_worker(0, 1, 64, 'x')\n"
            "    runtime.send_worker_to_worker(0, 1, rows.nbytes, 'x')\n"
            "    runtime.send_worker_to_worker(0, 1, n, 'x')\n"
            "    runtime.send_worker_to_worker(0, 1, message.nbytes, 'x')\n"
            "    for k in sizes:\n"
            "        runtime.send_worker_to_worker(0, 1, k, 'x')\n"
            "    m = len(frame)\n"
            "    m += 8\n"
            "    runtime.send_worker_to_worker(0, 1, m, 'x')\n"
            "def _outage_retries(self, worker, server, nbytes, category):\n"
            "    self.runtime.send_server_to_worker(server, worker, nbytes, "
            "category)\n"
        )
        assert _computed_counts(sample) == [
            (3, "nbytes"), (4, "nbytes"), (11, "rows.nbytes + 16"),
            (12, "64"), (13, "rows.nbytes"), (14, "n"),
            (15, "message.nbytes"), (17, "k"), (20, "m"),
        ]


class TestFrameSizesHaveOneOwner:
    """The frame layout's sizes are defined once, in
    ``cluster/serialize.py``; no other ``src/`` module names them,
    spells them as literals, or hands a message a size — a message's
    size is its frame's length."""

    def test_sizes_are_what_the_serializer_writes(self):
        from repro.cluster.serialize import (
            FRAME_HEADER_BYTES,
            SHAPE_WORD_BYTES,
            encode_raw,
        )

        empty = np.zeros((0, 3), dtype=np.float32)
        assert (FRAME_HEADER_BYTES, SHAPE_WORD_BYTES) == (16, 8)
        assert len(encode_raw(empty)) == MATRIX_PREFIX_BYTES == (
            FRAME_HEADER_BYTES + SHAPE_WORD_BYTES
        )

    def test_no_other_module_sizes_a_message(self):
        offenders = [
            f"{path.name}:{offender}"
            for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
            if path != WIRE_OWNER
            for offender in _size_offenders(path.read_text())
        ]
        assert offenders == []

    def test_the_guard_sees_planted_sizes(self):
        sample = (
            "from repro.cluster.serialize import MATRIX_PREFIX_BYTES\n"
            "n = 16 + 8 + serialize.SHAPE_WORD_BYTES\n"
            "m = ChannelMessage(kind='raw', frame=f, nbytes=n)\n"
            "ok = ChannelMessage(kind='raw', frame=f, meta={})\n"
            "bad = ChannelMessage('raw', f, {}, n)\n"
            "HEADER_BYTES = 16\n"
            "WIRE_HEADER_BYTES: int = 16\n"
            "self.MATRIX_PREFIX_BYTES = 24\n"
            "HEADER_BYTES = _HEADER.size\n"
        )
        assert sorted(_size_offenders(sample)) == [
            "literal:2", "message:3", "message:5", "name:1", "name:2",
            "name:8", "redefined:6", "redefined:7", "redefined:8",
        ]
