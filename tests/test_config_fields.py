"""Every configuration field is set by something outside the tests.

A field that no program sets to anything but its default is a constant
with a switch attached: it doubles the configuration product that the
equivalence checks must walk and documents a choice nobody makes. This
guard reads the modules under ``src/``, ``benchmarks/``, ``bench/`` and
``examples/`` and collects every field name passed by keyword to one of
the config classes or to ``dataclasses.replace`` — the CLI reaches the
configs through those same calls — and fails on any field of
``ECGraphConfig``, ``FaultConfig``, ``ObsConfig``, ``ClusterSpec`` or
``ModelConfig`` that none of them sets, unless ``KEPT`` names it with
its reason. A field with no setter either gains one or becomes a
constant.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.faults.config import FaultConfig
from repro.obs.config import ObsConfig

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "bench", "examples")
CONFIGS = (ECGraphConfig, FaultConfig, ObsConfig, ClusterSpec, ModelConfig)
SETTERS = {cls.__name__ for cls in CONFIGS} | {"replace"}

# Fields no program sets, kept on purpose.
KEPT = {
    "ECGraphConfig.learning_rate": (
        "the one training hyperparameter; a library caller tunes it"
    ),
    "ObsConfig.max_spans": (
        "the report's truncation note tells users to raise it"
    ),
    "ClusterSpec.workers_per_machine": "the shape of the deployed cluster",
    "ClusterSpec.colocate_servers": "the shape of the deployed cluster",
    "ClusterSpec.worker_speeds": (
        "the shape of the deployed cluster (heterogeneous speeds)"
    ),
    "ClusterSpec.overlap_comm": (
        "no system uses it yet; ROADMAP item 3(b) reworks it into a "
        "per-stage overlap"
    ),
}

def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _set_fields() -> set[str]:
    """``Class.field`` for every field passed by keyword to its class;
    a keyword to ``replace`` counts for every class with that field."""
    fields = {
        cls.__name__: {field.name for field in dataclasses.fields(cls)}
        for cls in CONFIGS
    }
    qualified: set[str] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = _callee(node)
                if callee not in SETTERS:
                    continue
                owners = [callee] if callee in fields else list(fields)
                for kw in node.keywords:
                    qualified.update(
                        f"{owner}.{kw.arg}" for owner in owners
                        if kw.arg in fields[owner]
                    )
    return qualified


def _all_fields() -> list[str]:
    return [
        f"{cls.__name__}.{field.name}"
        for cls in CONFIGS for field in dataclasses.fields(cls)
    ]


def test_every_field_has_a_setter_or_a_reason():
    unset = set(_all_fields()) - _set_fields()
    assert sorted(unset - set(KEPT)) == [], (
        "fields that no module outside tests/ sets: make each a "
        "constant, or add it to KEPT with a reason"
    )


def test_kept_entries_are_live():
    """A KEPT entry names a real field that still has no setter."""
    set_fields = _set_fields()
    fields = set(_all_fields())
    for qualified, reason in KEPT.items():
        assert qualified in fields, qualified
        assert reason
        assert qualified not in set_fields, (
            f"{qualified} has a setter now: drop it from KEPT"
        )

