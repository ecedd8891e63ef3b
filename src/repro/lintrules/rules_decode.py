"""ECG005 — wire decoders validate before they index.

Decode paths (``decode_*`` / ``unpack_*`` in ``compression/``) are the
repo's trust boundary: they consume bytes that may be truncated,
foreign, or corrupt (a partial copy, a stale shared segment, a fuzzed
frame). The contract — established by ``unpack_bits`` — is that
malformed input raises a
:class:`ValueError` naming the problem, never an ``IndexError`` or
``struct.error`` from deep inside numpy.

Two checks enforce the discipline in the scoped files:

* every ``decode*`` / ``unpack*`` function must either raise
  ``ValueError`` itself or delegate to a validating helper (a call
  whose name starts with ``_validate``/``unpack_``/``_check``/
  ``_decode``/``decode_`` or re-raises into ValueError) — a decoder
  with no reachable validation is flagged at its ``def``;
* ``except Exception: pass`` / bare ``except: pass`` handlers are
  flagged anywhere in the scoped files — swallowing a decode error
  turns corrupt bytes into silent wrong answers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintrules.base import Finding, ModuleInfo, Rule, dotted_name

__all__ = ["DecodeDisciplineRule"]

_DECODER_PREFIXES = ("decode", "unpack", "_decode", "_unpack")
_VALIDATOR_PREFIXES = (
    "_validate", "validate", "unpack_", "_unpack", "_check", "check_",
    "_decode", "decode_", "_require",
)


def _in_scope(module: ModuleInfo) -> bool:
    parts = module.parts
    if not parts:
        return False
    return parts[0] == "compression"


def _raises_value_error(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = dotted_name(exc.func) if isinstance(exc, ast.Call) else (
                dotted_name(exc)
            )
            if name.rsplit(".", 1)[-1] in ("ValueError", "KeyError"):
                return True
    return False


def _is_stub(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Protocol/abstract stubs (docstring, ..., pass, NotImplementedError)."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ) and stmt.value.value is Ellipsis:
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            name = dotted_name(
                stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            )
            if name.rsplit(".", 1)[-1] == "NotImplementedError":
                continue
        return False
    return True


def _delegates_validation(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func).rsplit(".", 1)[-1]
            if name.startswith(_VALIDATOR_PREFIXES):
                return True
    return False


class DecodeDisciplineRule(Rule):
    """Decoders in compression/ must fail loudly."""

    code = "ECG005"
    name = "decode-discipline"
    summary = (
        "wire decoder without ValueError validation, or a swallowed "
        "exception, in compression/"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_scope(module):
            return
        for node in self.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith(_DECODER_PREFIXES):
                    continue
                if _is_stub(node):
                    continue
                if _raises_value_error(node) or _delegates_validation(node):
                    continue
                yield module.finding(
                    self.code,
                    f"decoder {node.name}() neither raises ValueError nor "
                    "calls a validating helper; malformed bytes must fail "
                    "loudly, not IndexError deep in numpy",
                    node,
                )
            elif isinstance(node, ast.ExceptHandler):
                too_broad = node.type is None or (
                    isinstance(node.type, ast.Name)
                    and node.type.id in ("Exception", "BaseException")
                )
                swallows = all(
                    isinstance(stmt, ast.Pass) for stmt in node.body
                )
                if too_broad and swallows:
                    yield module.finding(
                        self.code,
                        "broad except swallowing all errors in a decode "
                        "path; corrupt bytes must raise ValueError",
                        node,
                    )
