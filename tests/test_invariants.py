"""The seven ECG invariants, checked over ``src/repro`` on every run.

EC-Graph's results here rest on a byte-exact wire, the modelled
``NetworkModel`` clock, and bit identity between the sync and
multiprocess backends. Each rule below guards one of them and is one
plain :mod:`ast` function: it takes a module path relative to
``src/repro`` (``"engine/transport.py"``) and that module's source, and
returns the ``path:line`` of every offender, or ``[]`` when the path is
outside the rule's scope. Each guard runs the function over every real
module in scope (one test case per module, so a failure names its
file); planted sources show that each function sees what it guards
against, and stays quiet on what it allows.

See ``docs/static_analysis.md`` for the rules' rationale.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))


@functools.lru_cache(maxsize=None)
def _parse(source: str) -> ast.Module:
    """Each real module is parsed once for all seven rules."""
    return ast.parse(source)


def _source(module: str) -> str:
    return (SRC / module).read_text()


def _package(module: str) -> str:
    """``"engine"`` for ``"engine/transport.py"``; ``""`` at top level."""
    head, _, rest = module.partition("/")
    return head if rest else ""


def _in_scope(scope) -> list[str]:
    return [module for module in MODULES if scope(module)]


def _dotted_name(node: ast.AST) -> str:
    """``a.b.c`` from a Name/Attribute chain, ``""`` otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _terminal(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _at(module: str, nodes) -> list[str]:
    """``path:line`` of each node, in source order."""
    return [
        f"{module}:{node.lineno}"
        for node in sorted(nodes, key=lambda node: (node.lineno, node.col_offset))
    ]


# ----------------------------------------------------------------------
# ECG001 — the modelled clock is the only time oracle in ``engine/``,
# ``mp/`` and ``core/``. A wall-clock read there lets host jitter into
# results or control flow, and sync ≡ multiprocess bit identity and
# same-seed repeatability go with it. (The goldens pin losses, bytes
# and messages, not modelled seconds: a stray clock would not show in
# them.) Wall time enters the modelled clock only through
# ``repro.obs.tracing.monotonic_now``, read where it is charged: the
# transport times each policy call, a worker process its kernel rounds,
# the trainer its set-up. Policies and model backends — every module of
# ``core/`` but ``trainer.py``, and ``engine/backends.py`` — read no
# clock at all, ``monotonic_now`` included. ``time.sleep`` delays, it
# does not measure, and is allowed.
# ----------------------------------------------------------------------
WALL_CLOCKS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
DATETIME_CLOCKS = {"now", "utcnow", "today"}
CLOCK_CALLS = WALL_CLOCKS | {"monotonic_now"}


def _clock_scope(module: str) -> bool:
    return _package(module) in ("engine", "mp", "core")


def _reads_no_clock_at_all(module: str) -> bool:
    return (
        _package(module) == "core" and module != "core/trainer.py"
    ) or module == "engine/backends.py"


def wall_clock_reads(module: str, source: str) -> list[str]:
    if not _clock_scope(module):
        return []
    strict = _reads_no_clock_at_all(module)
    offenders = []
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Call):
            owner, _, attr = _dotted_name(node.func).rpartition(".")
            owner = _terminal(owner)
            called = node.func.attr if isinstance(
                node.func, ast.Attribute
            ) else getattr(node.func, "id", "")
            if (
                (owner == "time" and attr in WALL_CLOCKS)
                or (owner in ("datetime", "date") and attr in DATETIME_CLOCKS)
                or (strict and called in CLOCK_CALLS)
            ):
                offenders.append(node)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if (
                node.module == "time" and node.level == 0
                and names & WALL_CLOCKS
            ) or (strict and names & CLOCK_CALLS):
                offenders.append(node)
    return _at(module, offenders)


@pytest.mark.parametrize("module", _in_scope(_clock_scope))
def test_ecg001_no_wall_clock_read(module):
    assert wall_clock_reads(module, _source(module)) == []


class TestECG001WallClock:
    def test_flags_time_call_in_engine(self):
        assert wall_clock_reads(
            "engine/bad.py",
            "import time\n\n\ndef f():\n    return time.perf_counter()\n",
        ) == ["engine/bad.py:5"]

    def test_flags_from_time_import(self):
        assert wall_clock_reads(
            "mp/bad.py", "from time import monotonic\n",
        ) == ["mp/bad.py:1"]

    def test_flags_datetime_now(self):
        assert wall_clock_reads(
            "core/bad.py", "import datetime\nSTAMP = datetime.datetime.now()\n",
        ) == ["core/bad.py:2"]

    def test_sleep_and_monotonic_now_are_clean(self):
        assert wall_clock_reads(
            "engine/good.py",
            "import time\n"
            "from repro.obs.tracing import monotonic_now\n\n\n"
            "def f():\n"
            "    time.sleep(0.01)\n"
            "    return monotonic_now()\n",
        ) == []

    def test_out_of_scope_package_is_quiet(self):
        assert wall_clock_reads(
            "obs/clock.py",
            "import time\n\n\ndef f():\n    return time.perf_counter()\n",
        ) == []

    @pytest.mark.parametrize("module", ["core/policy.py", "engine/backends.py"])
    def test_policies_and_backends_read_no_clock_at_all(self, module):
        assert wall_clock_reads(
            module,
            "import time\n"
            "from repro.obs.tracing import monotonic_now\n"
            "def f(clock):\n"
            "    return time.perf_counter() - monotonic_now() + clock.time()\n",
        ) == [f"{module}:2", f"{module}:4", f"{module}:4", f"{module}:4"]

    def test_only_the_trainer_may_time_itself_in_core(self):
        trainer = _source("core/trainer.py")
        assert wall_clock_reads("core/trainer.py", trainer) == []
        assert wall_clock_reads("core/other.py", trainer) != []


# ----------------------------------------------------------------------
# ECG002 — randomness flows from ``ECGraphConfig.seed`` through an
# injected ``np.random.default_rng`` Generator, everywhere. The legacy
# numpy module RNG (``np.random.rand``, ``np.random.seed``, ...) and the
# stdlib ``random`` module's functions keep hidden global state that
# couples unrelated call sites and is not spawn-safe across worker
# processes. ``random.Random(seed)`` instances are allowed.
# ----------------------------------------------------------------------
NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
}
STDLIB_RANDOM_ALLOWED = {"Random", "SystemRandom"}


def unseeded_randomness(module: str, source: str) -> list[str]:
    tree = _parse(source)
    stdlib = {"random"} | {
        alias.asname or "random"
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "random"
    }
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random" or (
                node.module in ("numpy.random", "np.random")
                and any(alias.name not in NP_RANDOM_ALLOWED
                        for alias in node.names)
            ):
                offenders.append(node)
        elif isinstance(node, ast.Call):
            parts = _dotted_name(node.func).split(".")
            if (
                len(parts) >= 3 and parts[-3] in ("np", "numpy")
                and parts[-2] == "random"
            ):
                if parts[-1] not in NP_RANDOM_ALLOWED:
                    offenders.append(node)
            elif len(parts) == 2 and parts[0] in stdlib:
                if parts[1] not in STDLIB_RANDOM_ALLOWED:
                    offenders.append(node)
    return _at(module, offenders)


@pytest.mark.parametrize("module", MODULES)
def test_ecg002_no_unseeded_randomness(module):
    assert unseeded_randomness(module, _source(module)) == []


class TestECG002Random:
    def test_flags_legacy_np_random_call(self):
        assert unseeded_randomness(
            "graph/bad.py", "import numpy as np\nX = np.random.rand(4)\n",
        ) == ["graph/bad.py:2"]

    def test_flags_stdlib_module_rng(self):
        assert unseeded_randomness(
            "faults/bad.py", "import random\nV = random.random()\n",
        ) == ["faults/bad.py:2"]

    def test_flags_from_random_import(self):
        assert unseeded_randomness(
            "faults/bad2.py", "from random import shuffle\n",
        ) == ["faults/bad2.py:1"]

    def test_default_rng_and_random_instance_are_clean(self):
        assert unseeded_randomness(
            "graph/good.py",
            "import random\n"
            "import numpy as np\n\n"
            "rng = np.random.default_rng(7)\n"
            "coin = random.Random(7)\n"
            "X = rng.normal(size=3)\n",
        ) == []


# ----------------------------------------------------------------------
# ECG003 — distributed state is iterated in a defined order in
# ``engine/``, ``mp/`` and ``membership/``. Float accumulation does not
# commute and message interleavings follow iteration order, so a loop
# over worker/channel/partition dict state wraps it in ``sorted(...)``.
# Dict evidence is a ``.items()``/``.keys()``/``.values()`` call, or a
# bare name the same module annotates as a dict or assigns ``{}`` or
# ``dict()`` to (so ordered lists such as ``workers`` stay quiet).
# Where insertion order is already the canonical order, the loop is
# listed in ITERATION_ALLOWED with its reason; an entry that no longer
# matches a live loop fails.
# ----------------------------------------------------------------------
DICT_METHODS = {"items", "keys", "values"}
STATE_NAME = re.compile(
    r"(worker|channel|chan\b|partition|custodian|conn|proc\b|procs|"
    r"request|slot|residual|trend|shipped|segment|session|member|"
    r"pending|adopt|stall)",
)
ITERATION_ALLOWED = {
    ("engine/transport.py", "_plan_forward", "requester.halo_slots.items()"):
        "halo_slots insertion order IS the bit-pinned channel plan; sorting "
        "would reorder float scatters and break the goldens",
    ("engine/transport.py", "_plan_reverse", "consumer.halo_slots.items()"):
        "halo_slots insertion order IS the bit-pinned channel plan; sorting "
        "would reorder reverse accumulation and break the goldens",
    ("engine/backends.py", "resample", "state.halo_slots.items()"):
        "halo_slots insertion order IS the bit-pinned channel plan order; "
        "sorting would reorder subset construction",
}


def _iteration_scope(module: str) -> bool:
    return _package(module) in ("engine", "mp", "membership")


def _state_name(node: ast.AST) -> str:
    return _terminal(_dotted_name(node)).lstrip("_").lower()


def _is_sorted(node: ast.AST) -> bool:
    """``sorted(...)``, or ``enumerate``/``reversed``/``list``/``tuple``
    around one."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id == "sorted":
        return True
    return (
        node.func.id in ("enumerate", "reversed", "list", "tuple")
        and bool(node.args) and _is_sorted(node.args[0])
    )


def _dict_names(tree: ast.Module) -> set[str]:
    """Terminal names the module annotates as, or assigns, a dict."""
    targets: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            if "dict" in ast.unparse(node.annotation).lower():
                targets.append(node.target)
        elif isinstance(node, ast.Assign) and (
            isinstance(node.value, ast.Dict)
            or (isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "dict")
        ):
            targets += node.targets
    return {
        _terminal(_dotted_name(target)) for target in targets
        if _dotted_name(target)
    }


def _is_state_dict(node: ast.AST, dict_names: set[str]) -> bool:
    if _is_sorted(node):
        return False
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return (
            node.func.attr in DICT_METHODS and not node.args
            and bool(STATE_NAME.search(_state_name(node.func.value)))
        )
    return (
        isinstance(node, (ast.Name, ast.Attribute))
        and _terminal(_dotted_name(node)) in dict_names
        and bool(STATE_NAME.search(_state_name(node)))
    )


def _functions_and_nodes(tree: ast.Module):
    """``(enclosing function name, node)`` for every node; ``""`` at
    module level."""
    stack: list[tuple[str, ast.AST]] = [("", tree)]
    while stack:
        function, node = stack.pop()
        yield function, node
        for child in ast.iter_child_nodes(node):
            stack.append((
                child.name if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) else function,
                child,
            ))


def _state_iterations(module: str, source: str):
    """``(function, iterable source, anchor node)`` of every loop or
    comprehension over unsorted state dicts, by line."""
    if not _iteration_scope(module):
        return []
    tree = _parse(source)
    dict_names = _dict_names(tree)
    found = []
    for function, node in _functions_and_nodes(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables = [node.iter]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            iterables = [gen.iter for gen in node.generators]
        else:
            continue
        found += [
            (function, ast.unparse(iterable), node) for iterable in iterables
            if _is_state_dict(iterable, dict_names)
        ]
    return sorted(found, key=lambda hit: hit[2].lineno)


def unsorted_state_iterations(module: str, source: str) -> list[str]:
    return _at(module, [
        node for function, iterable, node in _state_iterations(module, source)
        if (module, function, iterable) not in ITERATION_ALLOWED
    ])


@pytest.mark.parametrize("module", _in_scope(_iteration_scope))
def test_ecg003_state_iterated_in_order(module):
    assert unsorted_state_iterations(module, _source(module)) == []


def test_ecg003_every_allowlist_entry_matches_a_live_loop():
    live = {
        (module, function, iterable)
        for module in _in_scope(_iteration_scope)
        for function, iterable, _ in _state_iterations(module, _source(module))
    }
    assert sorted(set(ITERATION_ALLOWED) - live) == []


class TestECG003Iteration:
    def test_flags_items_on_state_dict(self):
        assert unsorted_state_iterations(
            "engine/bad.py",
            "def f(channels):\n"
            "    for key, ch in channels.items():\n"
            "        ch.send()\n",
        ) == ["engine/bad.py:2"]

    def test_flags_bare_name_with_dict_evidence(self):
        assert unsorted_state_iterations(
            "mp/bad.py",
            "workers = {}\n"
            "total = [workers[k] for k in workers]\n",
        ) == ["mp/bad.py:2"]

    def test_sorted_wrapper_is_clean(self):
        assert unsorted_state_iterations(
            "membership/good.py",
            "def f(partitions):\n"
            "    for key in sorted(partitions):\n"
            "        yield key\n"
            "    for key, p in sorted(partitions.items()):\n"
            "        yield p\n",
        ) == []

    def test_list_iteration_without_dict_evidence_is_clean(self):
        assert unsorted_state_iterations(
            "engine/good.py",
            "def f(workers):\n"
            "    return [w.loss for w in workers]\n",
        ) == []

    def test_out_of_scope_package_is_quiet(self):
        assert unsorted_state_iterations(
            "analysis/report.py",
            "def f(channels):\n"
            "    return dict(channels.items())\n",
        ) == []

    def test_an_allowlist_entry_covers_its_function_only(self):
        loop = (
            "    for owner, slots in requester.halo_slots.items():\n"
            "        pass\n"
        )
        assert unsorted_state_iterations(
            "engine/transport.py", "def _plan_forward(self):\n" + loop,
        ) == []
        assert unsorted_state_iterations(
            "engine/transport.py", "def _plan_other(self):\n" + loop,
        ) == ["engine/transport.py:2"]


# ----------------------------------------------------------------------
# ECG004 — a class that allocates ``SharedMemory``/``SharedStore`` or
# spawns a ``Process``/``Thread``/``Popen``/``Pool`` defines a
# ``close()`` or ``shutdown()``. ``/dev/shm`` segments and forked
# children outlive the objects that made them; ``__del__`` alone is not
# teardown, since finalizer order at interpreter exit is undefined.
# ----------------------------------------------------------------------
RESOURCE_CONSTRUCTORS = {
    "SharedMemory", "SharedStore", "Process", "Thread", "Popen", "Pool",
}
TEARDOWN_METHODS = {"close", "shutdown"}


def _acquires_resource(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(node, ast.Call)
        and _terminal(_dotted_name(node.func)) in RESOURCE_CONSTRUCTORS
        for node in ast.walk(cls)
    )


def leaky_resource_owners(module: str, source: str) -> list[str]:
    return _at(module, [
        cls for cls in ast.walk(_parse(source))
        if isinstance(cls, ast.ClassDef) and _acquires_resource(cls)
        and not TEARDOWN_METHODS & {
            item.name for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
    ])


@pytest.mark.parametrize("module", MODULES)
def test_ecg004_resource_owners_tear_down(module):
    assert leaky_resource_owners(module, _source(module)) == []


class TestECG004Lifecycle:
    BAD = (
        "from multiprocessing import shared_memory\n\n\n"
        "class Leaky:\n"
        "    def open(self):\n"
        "        self.shm = shared_memory.SharedMemory(create=True, size=8)\n"
    )

    def test_flags_class_without_close(self):
        assert leaky_resource_owners("mp/bad.py", self.BAD) == ["mp/bad.py:4"]

    def test_close_satisfies(self):
        assert leaky_resource_owners(
            "mp/good.py",
            self.BAD + "\n    def close(self):\n        self.shm.close()\n",
        ) == []

    def test_shutdown_satisfies(self):
        assert leaky_resource_owners(
            "mp/good2.py",
            self.BAD + "\n    def shutdown(self):\n        self.shm.close()\n",
        ) == []

    def test_del_alone_does_not_satisfy(self):
        assert leaky_resource_owners(
            "mp/bad2.py",
            self.BAD + "\n    def __del__(self):\n        self.shm.close()\n",
        ) == ["mp/bad2.py:4"]


# ----------------------------------------------------------------------
# ECG005 — wire decoders fail loudly. The codecs (``compression/``), the
# frame decoders (``cluster/serialize.py``) and the store parsers
# (``graph/``) read bytes that may be truncated, foreign or corrupt.
# Each ``decode*``/``unpack*`` function there raises ``ValueError``
# (or ``KeyError``) itself or calls a validating helper, so malformed
# input never surfaces as an ``IndexError`` deep inside numpy; and no
# ``except:``/``except Exception:`` handler there swallows an error
# with a bare ``pass``. Protocol stubs are exempt.
# ----------------------------------------------------------------------
DECODER_PREFIXES = ("decode", "unpack", "_decode", "_unpack")
VALIDATOR_PREFIXES = (
    "_validate", "validate", "unpack_", "_unpack", "_check", "check_",
    "_decode", "decode_", "_require",
)


def _decode_scope(module: str) -> bool:
    return _package(module) in ("compression", "cluster", "graph")


def _exception_name(exc: ast.AST) -> str:
    return _terminal(_dotted_name(exc.func if isinstance(exc, ast.Call) else exc))


def _is_stub(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Only a docstring, ``pass``, ``...`` or ``raise NotImplementedError``."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        or (isinstance(stmt, ast.Raise) and stmt.exc is not None
            and _exception_name(stmt.exc) == "NotImplementedError")
        for stmt in body
    )


def _validates(fn: ast.AST) -> bool:
    return any(
        (isinstance(node, ast.Raise) and node.exc is not None
         and _exception_name(node.exc) in ("ValueError", "KeyError"))
        or (isinstance(node, ast.Call)
            and _terminal(_dotted_name(node.func)).startswith(VALIDATOR_PREFIXES))
        for node in ast.walk(fn)
    )


def _swallows_everything(handler: ast.ExceptHandler) -> bool:
    too_broad = handler.type is None or (
        isinstance(handler.type, ast.Name)
        and handler.type.id in ("Exception", "BaseException")
    )
    return too_broad and all(isinstance(stmt, ast.Pass) for stmt in handler.body)


def undisciplined_decoders(module: str, source: str) -> list[str]:
    if not _decode_scope(module):
        return []
    return _at(module, [
        node for node in ast.walk(_parse(source))
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith(DECODER_PREFIXES)
            and not _is_stub(node) and not _validates(node)
        ) or (
            isinstance(node, ast.ExceptHandler) and _swallows_everything(node)
        )
    ])


@pytest.mark.parametrize("module", _in_scope(_decode_scope))
def test_ecg005_decoders_fail_loudly(module):
    assert undisciplined_decoders(module, _source(module)) == []


def test_ecg005_covers_the_frame_decoders_and_store_parsers():
    scope = _in_scope(_decode_scope)
    assert "cluster/serialize.py" in scope
    assert "graph/store/mmapstore.py" in scope


class TestECG005Decode:
    def test_flags_decoder_without_validation(self):
        assert undisciplined_decoders(
            "compression/bad.py",
            "def decode_frame(buf):\n"
            "    return buf[4:]\n",
        ) == ["compression/bad.py:1"]

    def test_raising_value_error_is_clean(self):
        assert undisciplined_decoders(
            "compression/good.py",
            "def decode_frame(buf):\n"
            "    if len(buf) < 4:\n"
            "        raise ValueError('truncated frame')\n"
            "    return buf[4:]\n",
        ) == []

    def test_flags_swallowed_exception(self):
        assert undisciplined_decoders(
            "compression/io.py",
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except Exception:\n"
            "        pass\n",
        ) == ["compression/io.py:4"]

    def test_decoder_outside_scope_is_quiet(self):
        assert undisciplined_decoders(
            "engine/codec.py",
            "def decode_frame(buf):\n"
            "    return buf[4:]\n",
        ) == []

    def test_flags_frame_decoder_without_validation(self):
        assert undisciplined_decoders(
            "cluster/serialize.py",
            "import numpy as np\n\n\n"
            "def decode_raw(buf):\n"
            "    return np.frombuffer(buf, np.float32, offset=16)\n",
        ) == ["cluster/serialize.py:4"]

    def test_frame_decoder_delegating_validation_is_clean(self):
        assert undisciplined_decoders(
            "cluster/serialize.py",
            "def decode_raw(buf):\n"
            "    kind, shape, body = _check_header(buf)\n"
            "    return body\n",
        ) == []

    def test_flags_swallowed_exception_in_a_store_parser(self):
        assert undisciplined_decoders(
            "graph/store/manifest.py",
            "def read_manifest(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except:\n"
            "        pass\n",
        ) == ["graph/store/manifest.py:4"]

    def test_protocol_stub_is_clean(self):
        assert undisciplined_decoders(
            "cluster/codec.py",
            "class Codec:\n"
            "    def decode(self, buf):\n"
            "        '''Rows from one frame.'''\n"
            "        raise NotImplementedError\n",
        ) == []


# ----------------------------------------------------------------------
# ECG006 — nothing on the wire or on disk can execute code. No
# ``pickle``/``cPickle``/``dill``/``marshal``/``shelve`` import or call,
# no builtin ``eval``/``exec``, no ``np.load(..., allow_pickle=True)``:
# the formats are validated npz archives, npy chunks behind a JSON
# manifest, headered shared-memory segments and JSON.
# ----------------------------------------------------------------------
BANNED_MODULES = {"pickle", "cPickle", "dill", "marshal", "shelve"}
PICKLE_CALLS = {"loads", "dumps", "load", "dump"}


def _allows_pickle(call: ast.Call) -> bool:
    return any(
        kw.arg == "allow_pickle" and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in call.keywords
    )


def code_executing_loads(module: str, source: str) -> list[str]:
    offenders = []
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Import):
            offenders += [
                node for alias in node.names
                if alias.name.split(".")[0] in BANNED_MODULES
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module and node.module.split(".")[0] in BANNED_MODULES:
                offenders.append(node)
        elif isinstance(node, ast.Call):
            parts = _dotted_name(node.func).split(".")
            if (
                (len(parts) == 2 and parts[0] in BANNED_MODULES
                 and parts[1] in PICKLE_CALLS)
                or parts in (["eval"], ["exec"])
                or _allows_pickle(node)
            ):
                offenders.append(node)
    return _at(module, offenders)


@pytest.mark.parametrize("module", MODULES)
def test_ecg006_no_pickle_or_eval(module):
    assert code_executing_loads(module, _source(module)) == []


class TestECG006Serialization:
    def test_flags_pickle_import_and_calls(self):
        assert code_executing_loads(
            "cluster/bad.py",
            "import pickle\n\n\n"
            "def save(obj):\n"
            "    return pickle.dumps(obj)\n",
        ) == ["cluster/bad.py:1", "cluster/bad.py:5"]

    def test_flags_eval_and_allow_pickle(self):
        assert code_executing_loads(
            "core/bad.py",
            "import numpy as np\n\n\n"
            "def load(path, expr):\n"
            "    eval(expr)\n"
            "    return np.load(path, allow_pickle=True)\n",
        ) == ["core/bad.py:5", "core/bad.py:6"]

    def test_plain_np_load_is_clean(self):
        assert code_executing_loads(
            "core/good.py",
            "import numpy as np\n\n\n"
            "def load(path):\n"
            "    return np.load(path, allow_pickle=False)\n",
        ) == []


# ----------------------------------------------------------------------
# ECG007 — config fields, validators and docs move together. Every
# field of a ``@dataclass`` whose name ends in ``Config`` is named in
# the class docstring, and is referenced in ``__post_init__`` unless it
# is a ``bool``, a nested ``*Config`` (validated by its own
# ``__post_init__``) or a ``ClassVar``. A field added without validation
# lets a typo'd sweep run for hours before it surfaces as NaNs.
# ----------------------------------------------------------------------
def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        _terminal(_dotted_name(dec.func if isinstance(dec, ast.Call) else dec))
        == "dataclass"
        for dec in cls.decorator_list
    )


def _needs_validation(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    return not any(word in text for word in ("bool", "Config", "ClassVar"))


def _config_field_offenders(cls: ast.ClassDef) -> list[ast.AST]:
    validated = {
        node.attr
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
        for node in ast.walk(item)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    docstring = ast.get_docstring(cls) or ""
    offenders: list[ast.AST] = []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            continue
        name = item.target.id
        if name.startswith("_"):
            continue
        if name not in docstring:
            offenders.append(item)
        if _needs_validation(item.annotation) and name not in validated:
            offenders.append(item)
    return offenders


def config_drift(module: str, source: str) -> list[str]:
    return _at(module, [
        item
        for cls in ast.walk(_parse(source))
        if isinstance(cls, ast.ClassDef) and cls.name.endswith("Config")
        and _is_dataclass(cls)
        for item in _config_field_offenders(cls)
    ])


@pytest.mark.parametrize("module", MODULES)
def test_ecg007_config_fields_validated_and_documented(module):
    assert config_drift(module, _source(module)) == []


class TestECG007ConfigDrift:
    def test_flags_unvalidated_undocumented_field(self):
        # depth: missing from the docstring AND from __post_init__.
        assert config_drift(
            "core/bad.py",
            "from dataclasses import dataclass\n\n\n"
            "@dataclass\n"
            "class SweepConfig:\n"
            "    '''A config.\n\n    Attributes:\n"
            "        rate: documented and validated.\n    '''\n\n"
            "    rate: float = 0.1\n"
            "    depth: int = 2\n\n"
            "    def __post_init__(self):\n"
            "        if self.rate <= 0:\n"
            "            raise ValueError('rate must be positive')\n",
        ) == ["core/bad.py:13", "core/bad.py:13"]

    def test_validated_documented_fields_are_clean(self):
        # bool fields are exempt from validation (but not from docs).
        assert config_drift(
            "core/good.py",
            "from dataclasses import dataclass\n\n\n"
            "@dataclass\n"
            "class SweepConfig:\n"
            "    '''A config.\n\n    Attributes:\n"
            "        rate: learning rate.\n"
            "        verbose: chatty mode.\n    '''\n\n"
            "    rate: float = 0.1\n"
            "    verbose: bool = False\n\n"
            "    def __post_init__(self):\n"
            "        if self.rate <= 0:\n"
            "            raise ValueError('rate must be positive')\n",
        ) == []

    def test_non_config_dataclass_is_quiet(self):
        assert config_drift(
            "core/other.py",
            "from dataclasses import dataclass\n\n\n"
            "@dataclass\n"
            "class Snapshot:\n"
            "    epoch: int = 0\n",
        ) == []


# ----------------------------------------------------------------------
# Regression pins for the concrete bugs these rules surfaced.
# ----------------------------------------------------------------------
class TestRepoInvariantsPinned:
    def test_supervisor_ships_versions_in_sorted_order(self):
        # The stale-kernel ship loop iterated _shipped_version in dict
        # insertion order, which diverges from worker id order after a
        # membership event; the fix pins sorted(worker_id) order.
        import inspect

        from repro.mp.supervisor import ProcessExecutor

        source = inspect.getsource(ProcessExecutor.on_epoch_start)
        assert "sorted(self._shipped_version.items())" in source

    def test_ecgraph_config_rejects_out_of_range_bits(self):
        from repro.core.config import ECGraphConfig

        with pytest.raises(ValueError, match="fp_bits"):
            ECGraphConfig(fp_bits=0)
        with pytest.raises(ValueError, match="bp_bits"):
            ECGraphConfig(bp_bits=17)

    def test_fault_config_rejects_negative_seed(self):
        from repro.faults.config import FaultConfig

        with pytest.raises(ValueError, match="seed"):
            FaultConfig(seed=-1)
