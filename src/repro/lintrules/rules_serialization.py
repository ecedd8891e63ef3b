"""ECG006 — no ``pickle``/``eval`` on wire or checkpoint bytes.

Unpickling attacker-controlled (or merely *stale*) bytes executes
arbitrary code; even between trusted processes it silently couples the
wire format to class layouts, so a checkpoint written before a refactor
deserializes into garbage instead of failing validation. The repo's
formats are deliberately dumb: npz archives with magic markers
(``core/checkpoint.py``), npy chunk directories behind a JSON manifest
(``graph/store/mmapstore.py``), headered shared-memory segments
(``mp/store.py``), JSON for metadata.

Flagged anywhere under ``src/repro``:

* ``import pickle`` / ``dill`` / ``marshal`` / ``shelve`` and
  ``from pickle import ...``;
* calls to ``pickle.loads``/``dumps``/``load``/``dump`` (any alias);
* the builtins ``eval(...)`` and ``exec(...)``;
* ``np.load(..., allow_pickle=True)``.

There is no scope carve-out: a sanctioned exception would carry a
reasoned pragma, so it stays visible in every lint summary.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintrules.base import Finding, ModuleInfo, Rule, dotted_name

__all__ = ["SerializationRule"]

_BANNED_MODULES = {"pickle", "cPickle", "dill", "marshal", "shelve"}
_PICKLE_CALLS = {"loads", "dumps", "load", "dump"}


class SerializationRule(Rule):
    """No pickle/eval/exec on bytes anywhere in ``src/repro``."""

    code = "ECG006"
    name = "pickle-eval"
    summary = (
        "pickle/eval/exec on wire or checkpoint bytes; use the "
        "validated npz / headered-segment formats"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in self.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield module.finding(
                            self.code,
                            f"import {alias.name}: arbitrary-code "
                            "deserialization; use validated npz/JSON "
                            "formats",
                            node,
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module and node.module.split(".")[0] in _BANNED_MODULES:
                    yield module.finding(
                        self.code,
                        f"from {node.module} import ...: arbitrary-code "
                        "deserialization on bytes",
                        node,
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                parts = name.split(".")
                if (
                    len(parts) == 2
                    and parts[0] in _BANNED_MODULES
                    and parts[1] in _PICKLE_CALLS
                ):
                    yield module.finding(
                        self.code,
                        f"{name}() deserializes/serializes via pickle",
                        node,
                    )
                elif name in ("eval", "exec"):
                    yield module.finding(
                        self.code,
                        f"builtin {name}() on dynamic input",
                        node,
                    )
                else:
                    for kw in node.keywords:
                        if (
                            kw.arg == "allow_pickle"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            yield module.finding(
                                self.code,
                                f"{name or 'call'}(allow_pickle=True) "
                                "permits pickled arrays on load",
                                node,
                            )
