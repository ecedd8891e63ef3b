"""Tests for the ``repro lint`` AST-based invariant checker.

Fixtures are laid out as ``<tmp>/repro/<package>/<file>.py`` so the
package-scoped rules (ECG001 engine/mp/core, ECG003 engine/mp/
membership, ECG005 compression) resolve scope exactly as
they do for ``src/repro/...`` — :func:`package_parts` keys on the last
``repro`` directory component, not on ``src``.
"""

import json
import sys
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.lintrules import ALL_RULES, format_json, format_text, run_lint
from repro.lintrules.base import package_parts, parse_pragmas


def write_module(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / "repro" / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def lint_one(tmp_path: Path, relpath: str, source: str, **kwargs):
    return run_lint([write_module(tmp_path, relpath, source)], **kwargs)


def codes(report) -> list[str]:
    return [f.code for f in report.active]


class TestScoping:
    def test_package_parts_after_last_repro_dir(self):
        assert package_parts(Path("src/repro/engine/transport.py")) == (
            "engine", "transport.py",
        )
        assert package_parts(Path("tmp/repro/mp/worker.py")) == (
            "mp", "worker.py",
        )
        assert package_parts(Path("scripts/helper.py")) == ("helper.py",)

    def test_rule_registry_has_seven_rules(self):
        assert len(ALL_RULES) == 7
        assert sorted(cls.code for cls in ALL_RULES) == [
            f"ECG00{i}" for i in range(1, 8)
        ]


class TestECG001WallClock:
    def test_flags_time_call_in_engine(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/bad.py",
            "import time\n\n\ndef f():\n    return time.perf_counter()\n",
        )
        assert codes(report) == ["ECG001"]

    def test_flags_from_time_import(self, tmp_path):
        report = lint_one(
            tmp_path, "mp/bad.py", "from time import monotonic\n",
        )
        assert codes(report) == ["ECG001"]

    def test_flags_datetime_now(self, tmp_path):
        report = lint_one(
            tmp_path, "core/bad.py",
            "import datetime\nSTAMP = datetime.datetime.now()\n",
        )
        assert codes(report) == ["ECG001"]

    def test_sleep_and_monotonic_now_are_clean(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/good.py",
            "import time\n"
            "from repro.obs.tracing import monotonic_now\n\n\n"
            "def f():\n"
            "    time.sleep(0.01)\n"
            "    return monotonic_now()\n",
        )
        assert codes(report) == []

    def test_out_of_scope_package_is_quiet(self, tmp_path):
        report = lint_one(
            tmp_path, "obs/clock.py",
            "import time\n\n\ndef f():\n    return time.perf_counter()\n",
        )
        assert codes(report) == []


class TestECG002Random:
    def test_flags_legacy_np_random_call(self, tmp_path):
        report = lint_one(
            tmp_path, "graph/bad.py",
            "import numpy as np\nX = np.random.rand(4)\n",
        )
        assert codes(report) == ["ECG002"]

    def test_flags_stdlib_module_rng(self, tmp_path):
        report = lint_one(
            tmp_path, "faults/bad.py",
            "import random\nV = random.random()\n",
        )
        assert codes(report) == ["ECG002"]

    def test_flags_from_random_import(self, tmp_path):
        report = lint_one(
            tmp_path, "faults/bad2.py", "from random import shuffle\n",
        )
        assert codes(report) == ["ECG002"]

    def test_default_rng_and_random_instance_are_clean(self, tmp_path):
        report = lint_one(
            tmp_path, "graph/good.py",
            "import random\n"
            "import numpy as np\n\n"
            "rng = np.random.default_rng(7)\n"
            "coin = random.Random(7)\n"
            "X = rng.normal(size=3)\n",
        )
        assert codes(report) == []


class TestECG003Iteration:
    def test_flags_items_on_state_dict(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/bad.py",
            "def f(channels):\n"
            "    for key, ch in channels.items():\n"
            "        ch.send()\n",
        )
        assert codes(report) == ["ECG003"]

    def test_flags_bare_name_with_dict_evidence(self, tmp_path):
        report = lint_one(
            tmp_path, "mp/bad.py",
            "workers = {}\n"
            "total = [workers[k] for k in workers]\n",
        )
        assert codes(report) == ["ECG003"]

    def test_sorted_wrapper_is_clean(self, tmp_path):
        report = lint_one(
            tmp_path, "membership/good.py",
            "def f(partitions):\n"
            "    for key in sorted(partitions):\n"
            "        yield key\n"
            "    for key, p in sorted(partitions.items()):\n"
            "        yield p\n",
        )
        assert codes(report) == []

    def test_list_iteration_without_dict_evidence_is_clean(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/good.py",
            "def f(workers):\n"
            "    return [w.loss for w in workers]\n",
        )
        assert codes(report) == []

    def test_out_of_scope_package_is_quiet(self, tmp_path):
        report = lint_one(
            tmp_path, "analysis/report.py",
            "def f(channels):\n"
            "    return dict(channels.items())\n",
        )
        assert codes(report) == []


class TestECG004Lifecycle:
    BAD = (
        "from multiprocessing import shared_memory\n\n\n"
        "class Leaky:\n"
        "    def open(self):\n"
        "        self.shm = shared_memory.SharedMemory(create=True, size=8)\n"
    )

    def test_flags_class_without_close(self, tmp_path):
        report = lint_one(tmp_path, "mp/bad.py", self.BAD)
        assert codes(report) == ["ECG004"]

    def test_close_satisfies(self, tmp_path):
        report = lint_one(
            tmp_path, "mp/good.py",
            self.BAD + "\n    def close(self):\n        self.shm.close()\n",
        )
        assert codes(report) == []

    def test_shutdown_satisfies(self, tmp_path):
        report = lint_one(
            tmp_path, "mp/good2.py",
            self.BAD + "\n    def shutdown(self):\n        self.shm.close()\n",
        )
        assert codes(report) == []

    def test_del_alone_does_not_satisfy(self, tmp_path):
        report = lint_one(
            tmp_path, "mp/bad2.py",
            self.BAD + "\n    def __del__(self):\n        self.shm.close()\n",
        )
        assert codes(report) == ["ECG004"]


class TestECG005Decode:
    def test_flags_decoder_without_validation(self, tmp_path):
        report = lint_one(
            tmp_path, "compression/bad.py",
            "def decode_frame(buf):\n"
            "    return buf[4:]\n",
        )
        assert codes(report) == ["ECG005"]

    def test_raising_value_error_is_clean(self, tmp_path):
        report = lint_one(
            tmp_path, "compression/good.py",
            "def decode_frame(buf):\n"
            "    if len(buf) < 4:\n"
            "        raise ValueError('truncated frame')\n"
            "    return buf[4:]\n",
        )
        assert codes(report) == []

    def test_flags_swallowed_exception(self, tmp_path):
        report = lint_one(
            tmp_path, "compression/io.py",
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except Exception:\n"
            "        pass\n",
        )
        assert codes(report) == ["ECG005"]

    def test_decoder_outside_scope_is_quiet(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/codec.py",
            "def decode_frame(buf):\n"
            "    return buf[4:]\n",
        )
        assert codes(report) == []


class TestECG006Serialization:
    def test_flags_pickle_import_and_calls(self, tmp_path):
        report = lint_one(
            tmp_path, "cluster/bad.py",
            "import pickle\n\n\n"
            "def save(obj):\n"
            "    return pickle.dumps(obj)\n",
        )
        assert codes(report) == ["ECG006", "ECG006"]

    def test_flags_eval_and_allow_pickle(self, tmp_path):
        report = lint_one(
            tmp_path, "core/bad.py",
            "import numpy as np\n\n\n"
            "def load(path, expr):\n"
            "    eval(expr)\n"
            "    return np.load(path, allow_pickle=True)\n",
        )
        assert codes(report) == ["ECG006", "ECG006"]

    def test_plain_np_load_is_clean(self, tmp_path):
        report = lint_one(
            tmp_path, "core/good.py",
            "import numpy as np\n\n\n"
            "def load(path):\n"
            "    return np.load(path, allow_pickle=False)\n",
        )
        assert codes(report) == []


class TestECG007ConfigDrift:
    def test_flags_unvalidated_undocumented_field(self, tmp_path):
        report = lint_one(
            tmp_path, "core/bad.py",
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
        )
        # depth: missing from docstring AND from __post_init__.
        assert codes(report) == ["ECG007", "ECG007"]

    def test_validated_documented_fields_are_clean(self, tmp_path):
        report = lint_one(
            tmp_path, "core/good.py",
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
        )
        # bool fields are exempt from validation (but not from docs).
        assert codes(report) == []

    def test_non_config_dataclass_is_quiet(self, tmp_path):
        report = lint_one(
            tmp_path, "core/other.py",
            "from dataclasses import dataclass\n\n\n"
            "@dataclass\n"
            "class Snapshot:\n"
            "    epoch: int = 0\n",
        )
        assert codes(report) == []


class TestPragmas:
    def test_trailing_pragma_suppresses_with_reason(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/ok.py",
            "def f(channels):\n"
            "    for k, ch in channels.items():  "
            "# ecg: ignore[ECG003] plan order is canonical here\n"
            "        ch.send()\n",
        )
        assert codes(report) == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].reason == "plan order is canonical here"
        assert report.exit_code == 0

    def test_standalone_pragma_applies_to_next_line(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/ok2.py",
            "def f(channels):\n"
            "    # ecg: ignore[ECG003] plan order is canonical here\n"
            "    for k, ch in channels.items():\n"
            "        ch.send()\n",
        )
        assert codes(report) == []
        assert len(report.suppressed) == 1

    def test_pragma_without_reason_is_ecg000(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/bad.py",
            "def f(channels):\n"
            "    for k, ch in channels.items():  # ecg: ignore[ECG003]\n"
            "        ch.send()\n",
        )
        # The malformed pragma suppresses nothing: the ECG003 stands and
        # the pragma itself is flagged.
        assert sorted(codes(report)) == ["ECG000", "ECG003"]
        assert report.exit_code == 1

    def test_stale_pragma_is_ecg000(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/stale.py",
            "X = 1  # ecg: ignore[ECG003] nothing fires here\n",
        )
        assert codes(report) == ["ECG000"]

    def test_pragma_in_docstring_is_text_not_suppression(self):
        pragmas = parse_pragmas(
            '"""Docs quoting # ecg: ignore[ECG001] example."""\n'
            "Y = 2  # ecg: ignore[ECG001] real one\n"
        )
        assert len(pragmas) == 1
        assert pragmas[0].line == 2
        assert not pragmas[0].standalone

    def test_wrong_code_pragma_does_not_suppress(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/wrong.py",
            "def f(channels):\n"
            "    for k, ch in channels.items():  "
            "# ecg: ignore[ECG001] wrong rule named\n"
            "        ch.send()\n",
        )
        # ECG003 stands; the ECG001 pragma is stale on that line.
        assert sorted(codes(report)) == ["ECG000", "ECG003"]


class TestSelectIgnoreAndFormats:
    SOURCE = (
        "import pickle\n"
        "import time\n\n\n"
        "def f():\n"
        "    return time.perf_counter()\n"
    )

    def test_select_narrows_rules(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/multi.py", self.SOURCE, select=["ECG006"],
        )
        assert codes(report) == ["ECG006"]

    def test_ignore_drops_rules(self, tmp_path):
        report = lint_one(
            tmp_path, "engine/multi.py", self.SOURCE, ignore=["ECG001"],
        )
        assert codes(report) == ["ECG006"]

    def test_select_does_not_stale_other_rule_pragmas(self, tmp_path):
        # A pragma for a rule excluded by --select is out of scope, not
        # stale: narrowing a run must never manufacture ECG000 findings
        # (regression: `repro lint src --select ECG003` flagged the
        # sanctioned ECG006 pragmas of an in-process pickle store as
        # stale).
        report = lint_one(
            tmp_path, "cluster/ok.py",
            "import pickle  # ecg: ignore[ECG006] in-process only\n",
            select=["ECG003"],
        )
        assert codes(report) == []
        assert report.exit_code == 0

    def test_unknown_code_raises(self, tmp_path):
        with pytest.raises(ValueError, match="ECG999"):
            lint_one(tmp_path, "engine/x.py", "X = 1\n", select=["ECG999"])

    def test_json_schema(self, tmp_path):
        report = lint_one(tmp_path, "engine/multi.py", self.SOURCE)
        payload = json.loads(format_json(report))
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["exit_code"] == 1
        assert payload["counts"] == {"active": 2, "suppressed": 0}
        assert {r["code"] for r in payload["rules"]} == {
            f"ECG00{i}" for i in range(1, 8)
        }
        for finding in payload["findings"]:
            assert set(finding) == {
                "code", "message", "path", "line", "col",
                "suppressed", "reason",
            }

    def test_text_format_summary_line(self, tmp_path):
        report = lint_one(tmp_path, "engine/clean.py", "X = 1\n")
        text = format_text(report)
        assert "checked 1 files with 7 rules: 0 finding(s)" in text

    def test_syntax_error_is_ecg000(self, tmp_path):
        report = lint_one(tmp_path, "engine/broken.py", "def f(:\n")
        assert codes(report) == ["ECG000"]
        assert report.exit_code == 1


class TestCLI:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_module(tmp_path, "engine/clean.py", "X = 1\n")
        rc = main(["lint", str(tmp_path)])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        write_module(
            tmp_path, "engine/bad.py",
            "import time\nT = time.time()\n",
        )
        rc = main(["lint", str(tmp_path)])
        assert rc == 1
        assert "ECG001" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        write_module(tmp_path, "engine/clean.py", "X = 1\n")
        rc = main(["lint", str(tmp_path), "--select", "ECG999"])
        assert rc == 2

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        rc = main(["lint", str(tmp_path / "nope")])
        assert rc == 2

    def test_json_artifact_out(self, tmp_path, capsys):
        write_module(
            tmp_path, "engine/bad.py",
            "import time\nT = time.time()\n",
        )
        artifact = tmp_path / "out" / "lint.json"
        rc = main([
            "lint", str(tmp_path / "repro"),
            "--format", "json", "--out", str(artifact),
        ])
        assert rc == 1
        payload = json.loads(artifact.read_text())
        assert payload["exit_code"] == 1
        assert payload["counts"]["active"] == 1


def _linters(monkeypatch, **exit_codes):
    """Point the external-tool lookup at stand-ins: a tool named in
    ``exit_codes`` is a python that exits with that code, any other
    tool is not installed."""

    def command(module):
        if module not in exit_codes:
            return None
        return [sys.executable, "-c",
                f"raise SystemExit({exit_codes[module]})"]

    monkeypatch.setattr(cli, "_linter_command", command)


class TestLintAll:
    """``lint --all``: the ECG rules, then ruff and mypy when installed."""

    def test_missing_tools_are_skipped_loudly(
        self, tmp_path, capsys, monkeypatch
    ):
        _linters(monkeypatch)
        write_module(tmp_path, "engine/clean.py", "X = 1\n")
        rc = main(["lint", str(tmp_path), "--all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out
        assert "SKIPPED: ruff not installed" in out
        assert "SKIPPED: mypy not installed" in out

    @pytest.mark.parametrize("failing", ["ruff", "mypy"])
    def test_a_failing_tool_fails_the_run(
        self, failing, tmp_path, capsys, monkeypatch
    ):
        _linters(monkeypatch, **{"ruff": 0, "mypy": 0, failing: 1})
        write_module(tmp_path, "engine/clean.py", "X = 1\n")
        rc = main(["lint", str(tmp_path), "--all"])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"FAILED: {failing}" in out
        assert "SKIPPED" not in out

    def test_passing_tools_and_a_skip_keep_exit_zero(
        self, tmp_path, capsys, monkeypatch
    ):
        _linters(monkeypatch, ruff=0)
        write_module(tmp_path, "engine/clean.py", "X = 1\n")
        assert main(["lint", str(tmp_path), "--all"]) == 0
        out = capsys.readouterr().out
        assert "SKIPPED: mypy not installed" in out
        assert "FAILED" not in out

    def test_ecg_findings_still_fail_with_tools_clean(
        self, tmp_path, capsys, monkeypatch
    ):
        _linters(monkeypatch, ruff=0, mypy=0)
        write_module(
            tmp_path, "engine/bad.py",
            "import time\nT = time.time()\n",
        )
        assert main(["lint", str(tmp_path), "--all"]) == 1

    def test_without_all_no_tool_runs(self, tmp_path, capsys, monkeypatch):
        _linters(monkeypatch, ruff=1, mypy=1)
        write_module(tmp_path, "engine/clean.py", "X = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAILED" not in out and "SKIPPED" not in out


class TestRepoInvariantsPinned:
    """Regression pins for the concrete bugs this rule set surfaced."""

    def test_src_tree_lints_clean(self):
        report = run_lint([Path(__file__).parent.parent / "src"])
        assert codes(report) == [], format_text(report)
        # The sanctioned exceptions stay visible as reasoned pragmas.
        assert report.suppressed, "expected reasoned pragmas in src/"
        assert all(f.reason for f in report.suppressed)

    def test_supervisor_ships_versions_in_sorted_order(self):
        # The stale-kernel ship loop iterated _shipped_version in dict
        # insertion order, which diverges from worker id order after a
        # membership event; the fix pins sorted(worker_id) order.
        import inspect

        from repro.mp.supervisor import ProcessExecutor

        source = inspect.getsource(ProcessExecutor.on_epoch_start)
        assert "sorted(self._shipped_version.items())" in source

    def test_model_config_rejects_unknown_activation(self):
        from repro.core.config import ModelConfig

        with pytest.raises(ValueError, match="swishy"):
            ModelConfig(activation="swishy")

    def test_ecgraph_config_rejects_out_of_range_bits(self):
        from repro.core.config import ECGraphConfig

        with pytest.raises(ValueError, match="fp_bits"):
            ECGraphConfig(fp_bits=0)
        with pytest.raises(ValueError, match="bp_bits"):
            ECGraphConfig(bp_bits=17)

    def test_ecgraph_config_rejects_unknown_optimizer(self):
        from repro.core.config import ECGraphConfig

        with pytest.raises(ValueError, match="optimizer"):
            ECGraphConfig(optimizer="adamw2")

    def test_fault_config_rejects_negative_seed(self):
        from repro.faults.config import FaultConfig

        with pytest.raises(ValueError, match="seed"):
            FaultConfig(seed=-1)
