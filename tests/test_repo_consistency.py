"""Repository self-consistency guards.

Cheap checks that keep the documentation honest as the code evolves:
every benchmark is listed in the README's reproduction table, every
example compiles, and every public subpackage is mentioned in DESIGN.md.
"""

import ast
import importlib
import py_compile
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.serialize import FRAME_HEADER_BYTES, Frame

REPO = Path(__file__).resolve().parent.parent


def _benchmark_files():
    return sorted(
        p.name for p in (REPO / "benchmarks").glob("test_*.py")
    )


def _example_files():
    return sorted((REPO / "examples").glob("*.py"))


class TestReadme:
    def test_readme_lists_every_benchmark(self):
        readme = (REPO / "README.md").read_text()
        for name in _benchmark_files():
            assert name in readme, f"README reproduction table misses {name}"

    def test_readme_lists_every_example(self):
        readme = (REPO / "README.md").read_text()
        for path in _example_files():
            assert path.name in readme, f"README misses example {path.name}"


def _top_level_calls(cell: str) -> list[str]:
    """The backticked names followed by an opening parenthesis, written
    outside any parenthesis of a module-map cell."""
    names, depth = [], 0
    for token in re.finditer(r"`([^`]*)`( \()?|\(|\)", cell):
        if token.group(1) is not None:
            if token.group(2):
                if depth == 0:
                    names.append(token.group(1))
                depth += 1
        else:
            depth += 1 if token.group() == "(" else -1
    return names


def _module_map_rows():
    """``(package, names)`` per DESIGN.md section 3 row whose module cell
    is one ``repro/<package>/`` directory."""
    section = (REPO / "DESIGN.md").read_text().split("\n## 3.")[1]
    section = section.split("\n## ")[0]
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        match = len(cells) == 3 and re.fullmatch(r"`repro/(\w+)/`", cells[1])
        if match:
            yield pytest.param(
                match.group(1), _top_level_calls(cells[2]),
                id=match.group(1),
            )


def _resolves(package: str, name: str) -> bool:
    """``name`` is a module of ``repro.<package>`` (``*`` globs module
    files) or one of its attributes."""
    name = name.rstrip("/")
    root = REPO / "src" / "repro" / package
    if "*" in name:
        return any(root.glob(f"{name}.py"))
    try:
        importlib.import_module(f"repro.{package}.{name}")
        return True
    except ModuleNotFoundError:
        return hasattr(importlib.import_module(f"repro.{package}"), name)


class TestDesignDoc:
    @pytest.mark.parametrize("package, names", _module_map_rows())
    def test_module_map_names_resolve(self, package, names):
        assert names
        assert [name for name in names if not _resolves(package, name)] == []

    def test_the_module_map_scan_reads_top_level_names_only(self):
        cell = ("`network` (NetworkModel; `inner` (x)), `store/` (a `b` (c)),"
                " `rules_*` (d), `plain`, `max(a, b)` (e)")
        assert _top_level_calls(cell) == [
            "network", "store/", "rules_*", "max(a, b)",
        ]

    def test_design_mentions_every_subpackage(self):
        design = (REPO / "DESIGN.md").read_text()
        packages = sorted(
            p.name for p in (REPO / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        )
        for package in packages:
            assert f"repro/{package}" in design or f"repro.{package}" in design, (
                f"DESIGN.md does not mention subpackage {package}"
            )

    def test_experiments_covers_every_paper_artifact(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("Table II", "Fig. 6", "Fig. 7", "Fig. 8",
                         "Table IV", "Table V", "Fig. 9", "Fig. 10",
                         "Fig. 11", "Theorem 1"):
            assert artifact in experiments, (
                f"EXPERIMENTS.md misses {artifact}"
            )


# Names this repo retired; none may appear in shipped code or docs.
# (Checkpoints retire fields by format version, so not even the
# checkpoint loader names them.)
RETIRED_NAMES = (
    "exchange_threads", "halo_buffer_pool", "NeighborAccessController",
    "SAGETrainer", "GATTrainer", "SampledECGraphTrainer",
    "compare_reports", "speedup_flag_lines", "stage_breakdown_lines",
    "bench_codec", "bench_exchange", "bench_epoch_multiprocess",
    "repro.bench.reference", "max-regress",
    "NullStageProfiler", "NULL_PROFILER", "set_worker_pids",
    "write_trace", "record_event",
    "repro.cluster.nfs", "health_rho", "epoch_snapshots",
    "codec_seconds", "_charge_compute", "_bp_span_stages",
    "_BackendBase", "backward_param_names", "sage_layer_forward",
    "gat_layer_forward", "_SAGECache",
    "generate_graph", "planted_partition_edges", "class_features",
    "generate_rmat_graph", "rmat_edges", "save_graph", "load_graph",
    "khop_neighborhood", "khop_sampled_neighborhood",
    "MLCenteredTrainer", "cached_vertex_counts",
    "attach_all", "StoreLayout", "def layout(", "def generation(",
    "bump_generation", "weights_sink", "_weight_sink",
    "remote_neighbor_lists", "measure_traffic", "snapshot_table",
    "lr_schedule import", "nn.lr_schedule", "ConstantLR", "StepDecayLR",
    "ExponentialDecayLR", "CosineAnnealingLR",
    "AttributedGraph", "as_bundle", "as_topology", "gcn_normalize",
    "row_normalize", ".materialize(",
    "sampling_speedup", "bind_discount_seconds",
    "iter_edges", "has_edge", "sorted_rows", "def transpose(",
    "as_reqec_only", "as_resec_only", "end_to_end_seconds",
    "best_val_accuracy", "def best_epoch(", "def stage_names(",
    "compact_ids", "global_to_compact", "num_parameters", "def row_dim(",
    "def state_names(",
    "EncodedMatrix", "IdentityCodec", "QuantizingCodec", "Float16Codec",
    "OneBitCodec", "TopKCodec", "CodecPolicy", "table_mode",
    "telemetry_table",
    "BIT_LADDER", "map_npy", "chunk_paths",
    "ReceiveResult", "Float16Payload", "_wire_kind", "_TAGGED_KINDS",
    "prime_residual", "prime_residuals", "has_residual", "restore_params",
    "compare_speedups", "export_csv", "load_json", "format_speedup",
    "compression_report", "CompressionReport", "compression.stats",
    "from_scipy", "get_initializer", "INITIALIZERS", "glorot_normal",
    "he_uniform", "he_normal", "def uniform(", "def softmax(",
    "micro_f1", "macro_f1", "f1_scores", "confusion_matrix", "read_jsonl",
    "def max_error(",
    "payload_bytes", "TopKPayload", "OneBitPayload",
    "_build_compressed_payload", "message.payload",
    "to_scipy",
)


def _shipped_files():
    """Code, docs and CI config a user reads or runs."""
    for root in ("src", "examples", "benchmarks"):
        yield from sorted((REPO / root).rglob("*.py"))
    yield from (REPO / "README.md", REPO / "DESIGN.md")
    yield from sorted((REPO / "docs").glob("*.md"))
    yield REPO / ".github" / "workflows" / "ci.yml"


class TestRetiredNamesStayGone:
    def test_no_retired_name_in_shipped_code(self):
        offenders = []
        for path in _shipped_files():
            for line in path.read_text().splitlines():
                offenders += [
                    f"{path.relative_to(REPO)}: {name}"
                    for name in RETIRED_NAMES if name in line
                ]
        assert offenders == []

    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "docs/storage.md", "docs/performance.md",
        ".github/workflows/ci.yml",
    ])
    def test_scan_covers_docs_and_ci(self, name):
        assert REPO / name in set(_shipped_files())


class TestNoTrackedIgnoredFiles:
    def test_git_tracks_nothing_gitignore_excludes(self):
        """Generated files (packaging metadata, caches, build output) are
        ignored, never tracked: a tracked copy goes stale as modules come
        and go."""
        import shutil
        import subprocess

        git = shutil.which("git")
        if git is None or subprocess.run(
            [git, "-C", str(REPO), "rev-parse", "--is-inside-work-tree"],
            capture_output=True,
        ).returncode:
            pytest.skip("not a git work tree")
        tracked = subprocess.run(
            [git, "-C", str(REPO), "ls-files", "-ci", "--exclude-standard"],
            capture_output=True, text=True, check=True,
        ).stdout
        assert tracked == ""


# ----------------------------------------------------------------------
# No code that nothing runs. Every public function, class and method in
# ``src/`` is named somewhere in ``src/``, ``examples/``, ``benchmarks/``
# or ``bench/`` besides its own ``def`` (a call, an attribute, an import
# or a string such as a registry key), or is listed below with the
# reason it stays. Tests do not count: code only a test calls is dead.
# ----------------------------------------------------------------------
REFERENCE_ROOTS = ("src", "examples", "benchmarks", "bench")
UNREFERENCED_ALLOWED = {
    "GNNParameters.all_param_names":
        "the frozen parent trainer in tests/oracles/ml_centered.py calls it",
    "CSRGraph.neighbors":
        "the frozen loop partitioners in tests/oracles/ walk rows with it",
    "CSRGraph.edge_weights":
        "the frozen loop partitioners in tests/oracles/ read row weights",
    "CSRGraph.with_self_loops":
        "the layout NormalizedGraphStore assembles, and its test reference",
    "from_edge_list":
        "test graphs and the frozen loop partitioners in tests/oracles/ "
        "are built with it",
    "restore_trainer":
        "the library call that resumes a trainer from a checkpoint file "
        "(docs/api.md); the resume tests go through it",
    "to_mmap_bundle":
        "CI's partition smoke and the memory == mmap goldens spill graphs "
        "to disk through it",
}


def _public_definitions(source: str) -> list[tuple[str, str, int]]:
    """``(qualified name, name, line)`` of every public function, class
    and method (nested classes included)."""
    found = []

    def visit(body, owner):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                qualified = f"{owner}.{node.name}" if owner else node.name
                found.append((qualified, node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)

    visit(ast.parse(source).body, "")
    return found


def _export_nodes(tree: ast.Module, package_init: bool) -> set[int]:
    """``id`` of the nodes that only export a name: the strings of an
    ``__all__`` and, in a package ``__init__``, its re-export imports."""
    skipped = set()
    for node in ast.walk(tree):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AugAssign)
            else []
        )
        if any(getattr(t, "id", "") == "__all__" for t in targets):
            skipped.update(id(n) for n in ast.walk(node.value))
        elif package_init and isinstance(node, ast.ImportFrom):
            skipped.update(id(alias) for alias in node.names)
    return skipped


def _names_used(source: str, package_init: bool = False) -> set[str]:
    """Identifiers a module mentions: names, attributes, imports and
    identifier-shaped strings (``def`` names themselves are not nodes).
    Exporting a name is not using it: ``__all__`` entries and a package
    ``__init__``'s re-exports do not count."""
    tree = ast.parse(source)
    skipped = _export_nodes(tree, package_init)
    used = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)
    return used


def _unreferenced() -> dict[str, str]:
    used = set().union(*(
        _names_used(path.read_text(), package_init=path.name == "__init__.py")
        for root in REFERENCE_ROOTS for path in (REPO / root).rglob("*.py")
    ))
    return {
        qualified: f"{path.relative_to(REPO)}:{line}"
        for path in sorted((REPO / "src").rglob("*.py"))
        for qualified, name, line in _public_definitions(path.read_text())
        if name not in used
    }


class TestNoDeadNames:
    def test_every_public_name_is_referenced_or_allowlisted(self):
        unreferenced = _unreferenced()
        assert {
            name: where for name, where in unreferenced.items()
            if name not in UNREFERENCED_ALLOWED
        } == {}
        # An entry whose name became referenced (or was deleted) goes too.
        assert sorted(set(UNREFERENCED_ALLOWED) - set(unreferenced)) == []

    def test_the_scan_sees_a_dead_name(self):
        sample = (
            "__all__ = ['Graph', 'exported']\n"
            "class Graph:\n"
            "    def used(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            "        return REGISTRY['listed']\n"
            "    def unused(self):\n"
            "        return 0\n"
            "def listed():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "def exported():\n"
            "    pass\n"
        )
        used = _names_used(sample)
        assert [
            qualified for qualified, name, _ in _public_definitions(sample)
            if name not in used
        ] == ["Graph", "Graph.used", "Graph.unused", "exported"]

    def test_a_package_reexport_is_not_a_use(self):
        init = (
            "from repro.graph.csr import CSRGraph, from_edge_list\n"
            "__all__ = ['CSRGraph', 'from_edge_list']\n"
            "DEFAULT = CSRGraph\n"
        )
        assert _names_used(init, package_init=True) == {
            "__all__", "CSRGraph", "DEFAULT",
        }
        assert "from_edge_list" in _names_used(init)


MULTIPROCESS_STEP = "Multiprocess equivalence + behaviour tests"


def _multiprocess_lane_modules(ci: str) -> set[str]:
    """Test modules the CI multiprocess step runs."""
    step = ci.split(f"- name: {MULTIPROCESS_STEP}\n", 1)[1]
    return set(re.findall(r"tests/(test_\w+\.py)", step.split("- name:", 1)[0]))


def _asks_for_multiprocess(source: str) -> bool:
    """The module passes ``execution="multiprocess"`` as a keyword, or
    lists it among the values of a parametrized ``execution``."""
    def multiprocess(node: ast.AST) -> bool:
        return any(
            isinstance(n, ast.Constant) and n.value == "multiprocess"
            for n in ast.walk(node)
        )

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "execution":
            if multiprocess(node.value):
                return True
        elif (
            isinstance(node, ast.Call) and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "execution"
            and any(multiprocess(arg) for arg in node.args[1:])
        ):
            return True
    return False


class TestContinuousIntegration:
    def test_multiprocess_lane_runs_every_multiprocess_module(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        wanted = {
            path.name for path in sorted((REPO / "tests").glob("test_*.py"))
            if _asks_for_multiprocess(path.read_text())
        }
        assert "test_engine_equivalence.py" in wanted
        assert wanted - _multiprocess_lane_modules(ci) == set()

    def test_the_lane_guard_sees_a_multiprocess_module(self):
        assert _asks_for_multiprocess(
            "t = make(graph, execution='multiprocess')\n"
        )
        assert _asks_for_multiprocess(
            "@pytest.mark.parametrize('execution', ['sync', 'multiprocess'])\n"
            "def test_x(execution):\n"
            "    pass\n"
        )
        assert not _asks_for_multiprocess(
            "ARGS = ['--execution', 'multiprocess']\n"
            "t = make(graph, execution='sync')\n"
        )

    def test_runs_one_bench_smoke_step(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        runs = re.findall(r"python -m repro bench[^\n]*", ci)
        assert len(runs) == 1 and "--smoke" in runs[0]

    def test_lint_strict_runs_the_invariant_guards(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        job = ci[ci.index("  lint-strict:"):ci.index("\n  tests:")]
        runs = re.findall(r"run: (python -m [^\n]*)", job)
        assert runs == [
            "python -m pytest -q tests/test_invariants.py", "python -m mypy",
        ]
        assert "upload-artifact" not in job

    def test_writes_nothing_under_the_benchmark_directory(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert re.findall(r"(?:--out|--json-out|path:)\s+\.?/?bench/", ci) == []


# ----------------------------------------------------------------------
# The set-up path stays off the per-vertex row accessors: a ``for`` loop
# that calls ``.neighbors(`` / ``.edge_weights(`` is one numpy call (and a
# fresh view, and numpy scalars) per vertex — 88 % of a 22 s partition
# before the rewrite. There are no exceptions. The
# multilevel partitioner's refinement goes further: it runs at every
# level, so it may loop over rounds and over the k parts, never over
# vertices.
# ----------------------------------------------------------------------
ROW_ACCESSORS = {"neighbors", "edge_weights"}
LOOP_FREE_MODULES = (
    "src/repro/partition/metis_like.py",
    "src/repro/graph/csr.py",
    "src/repro/baselines/ml_centered.py",
)
# ``MetisLikePartitioner._refine``: the rounds loop, and what its ``for``
# loops may iterate over (both have at most ``num_parts`` items).
REFINE_ROUNDS_LOOP = "while True"
REFINE_PART_LOOPS = {
    "range(num_parts)", "np.flatnonzero(load > cap).tolist()",
}


def _row_accessor_loops(path: Path) -> list[str]:
    """``function:line`` of every ``for`` loop (or comprehension) whose
    body calls a row accessor."""
    offenders = []
    tree = ast.parse(path.read_text())
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(function):
            if not isinstance(loop, (ast.For, ast.While, ast.comprehension,
                                     ast.ListComp, ast.GeneratorExp)):
                continue
            offenders += [
                f"{function.name}:{call.lineno}"
                for call in ast.walk(loop)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ROW_ACCESSORS
            ]
    return sorted(set(offenders))


def _vertex_loops(source: str, function_name: str) -> list[str]:
    """Loops in ``function_name`` other than one rounds loop and ``for``
    loops over the parts; comprehensions count as loops."""
    function = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function_name
    )
    offenders, rounds_loops = [], 0
    for loop in ast.walk(function):
        if isinstance(loop, ast.While):
            rounds_loops += 1
            if f"while {ast.unparse(loop.test)}" != REFINE_ROUNDS_LOOP:
                offenders.append(f"while:{loop.lineno}")
        elif isinstance(loop, ast.For):
            if ast.unparse(loop.iter) not in REFINE_PART_LOOPS:
                offenders.append(f"for:{loop.lineno}")
        elif isinstance(loop, ast.comprehension):
            offenders.append(f"comprehension:{loop.iter.lineno}")
    if rounds_loops > 1:
        offenders.append("nested rounds loops")
    return offenders


class TestSetupPathStaysLoopFree:
    @pytest.mark.parametrize("module", LOOP_FREE_MODULES)
    def test_no_row_accessor_inside_a_loop(self, module):
        assert _row_accessor_loops(REPO / module) == []

    def test_refinement_loops_over_rounds_and_parts_only(self):
        source = (REPO / LOOP_FREE_MODULES[0]).read_text()
        assert _vertex_loops(source, "_refine") == []

    def test_the_refinement_guard_sees_a_vertex_loop(self):
        sample = (
            "def _refine(graph, num_parts, load, cap):\n"
            "    while True:\n"
            "        for part in range(num_parts):\n"
            "            pass\n"
            "        for v in range(graph.num_vertices):\n"
            "            pass\n"
            "        while load:\n"
            "            pass\n"
            "        return [v for v in order]\n"
        )
        assert _vertex_loops(sample, "_refine") == [
            "for:5", "while:7", "comprehension:9", "nested rounds loops",
        ]

    def test_the_guard_sees_what_it_guards_against(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text(
            "def slow(graph):\n"
            "    for v in range(graph.num_vertices):\n"
            "        for u in graph.neighbors(v):\n"
            "            pass\n"
            "def also_slow(graph):\n"
            "    return [graph.edge_weights(v).sum() for v in range(3)]\n"
            "def fine(graph):\n"
            "    return graph.neighbors(0)\n"
        )
        assert _row_accessor_loops(sample) == ["also_slow:6", "slow:3"]


# ----------------------------------------------------------------------
# One kernel op table. It exists once, in ``engine/executor.py``: the
# multiprocess worker dispatches through it instead of keeping a copy.
# (That policies and backends read no clock is ECG001 in
# ``tests/test_invariants.py``.)
# ----------------------------------------------------------------------
KERNEL_OPS = {"fwd", "loss", "bpl", "bpr"}
KERNEL_CALLS = {
    "forward_kernel", "loss_kernel", "forward_layer", "backward_local",
    "backward_reduce",
}
EXECUTOR = REPO / "src" / "repro" / "engine" / "executor.py"
BACKENDS = REPO / "src" / "repro" / "engine" / "backends.py"


def _kernel_op_table(source: str) -> set[str]:
    """Kernel op names and kernel entry points a module spells out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in KERNEL_OPS:
            found.add(node.value)
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_CALLS:
            found.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in KERNEL_CALLS:
            found.add(node.id)
        elif isinstance(node, ast.alias) and node.name in KERNEL_CALLS:
            found.add(node.name)
    return found


class TestOneKernelOpTable:
    @pytest.mark.parametrize("module", ["worker.py", "supervisor.py"])
    def test_mp_keeps_no_kernel_op_table(self, module):
        source = (REPO / "src" / "repro" / "mp" / module).read_text()
        assert _kernel_op_table(source) == set()

    def test_the_executor_holds_the_op_table(self):
        assert _kernel_op_table(EXECUTOR.read_text()) == (
            KERNEL_OPS | KERNEL_CALLS
        )


# ----------------------------------------------------------------------
# One backend skeleton: ``ModelBackend`` owns the plumbing, so a backend
# in ``engine/backends.py`` writes math only. GCN alone keeps its own
# forward and eval kernels; nobody resets or reads caches of its own.
# ----------------------------------------------------------------------
OWN_KERNELS = {"forward_layer", "eval_layer"}
BASE_ONLY = {"begin_iteration", "final_logits", "backward_param_names"}


def _model_backend_subclasses(source: str) -> dict[str, ast.ClassDef]:
    """Module-level classes deriving, directly or not, from ``ModelBackend``."""
    classes = {
        node.name: node for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
    }
    found: dict[str, ast.ClassDef] = {}
    grew = True
    while grew:
        grew = False
        for name, node in classes.items():
            bases = {getattr(base, "id", "") for base in node.bases}
            if name not in found and bases & (set(found) | {"ModelBackend"}):
                found[name] = node
                grew = True
    return found


def _backend_skeleton_offenders(source: str) -> list[str]:
    """``Class.name`` of every plumbing hook a ``ModelBackend`` subclass
    redefines, and of every ``self.caches`` it assigns."""
    offenders = []
    for name, node in sorted(_model_backend_subclasses(source).items()):
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and (
                item.name in BASE_ONLY
                or (item.name in OWN_KERNELS and name != "GCNBackend")
            ):
                offenders.append(f"{name}.{item.name}")
        for sub in ast.walk(node):
            targets = (
                sub.targets if isinstance(sub, ast.Assign)
                else [sub.target] if isinstance(sub, (ast.AnnAssign, ast.AugAssign))
                else []
            )
            offenders += [
                f"{name}.self.caches" for target in targets
                if isinstance(target, ast.Attribute)
                and target.attr == "caches"
                and getattr(target.value, "id", "") == "self"
            ]
    return offenders


class TestOneBackendSkeleton:
    def test_backends_write_math_only(self):
        source = BACKENDS.read_text()
        assert set(_model_backend_subclasses(source)) == {
            "GCNBackend", "SampledGCNBackend", "SAGEBackend", "GATBackend",
        }
        assert _backend_skeleton_offenders(source) == []

    def test_every_backend_subclasses_model_backend(self):
        from repro.engine import backends

        for name in ("GCNBackend", "SampledGCNBackend", "SAGEBackend",
                     "GATBackend"):
            assert issubclass(getattr(backends, name), backends.ModelBackend)
        assert "Protocol" not in BACKENDS.read_text()

    def test_the_skeleton_guard_sees_a_private_copy(self):
        sample = (
            "class ModelBackend:\n"
            "    def forward_layer(self): pass\n"
            "class GCNBackend(ModelBackend):\n"
            "    def eval_layer(self): pass\n"
            "class Sampled(GCNBackend):\n"
            "    def forward_layer(self): pass\n"
            "class Other(ModelBackend):\n"
            "    def bind(self):\n"
            "        self.caches: list = []\n"
            "    def final_logits(self): pass\n"
            "class Unrelated:\n"
            "    def begin_iteration(self): pass\n"
        )
        assert _backend_skeleton_offenders(sample) == [
            "Other.final_logits", "Other.self.caches",
            "Sampled.forward_layer",
        ]


# ----------------------------------------------------------------------
# One ``ExchangePolicy`` base class: every hook the engine calls on a
# policy has a no-op default there, so nothing under ``engine/``,
# ``membership/`` or ``core/`` probes a policy with getattr/hasattr.
# ----------------------------------------------------------------------
PROBE_FREE_PACKAGES = ("engine", "membership", "core")


def _policy_probes(source: str) -> list[str]:
    """``call:line`` of every getattr/hasattr whose object is a name or
    attribute ending in ``policy``."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call) and node.args
            and getattr(node.func, "id", "") in ("getattr", "hasattr")
        ):
            continue
        target = node.args[0]
        name = target.attr if isinstance(target, ast.Attribute) else (
            getattr(target, "id", "")
        )
        if name.endswith("policy"):
            offenders.append(f"{node.func.id}:{node.lineno}")
    return offenders


def _policy_classes() -> dict[str, type]:
    """Every ``*Policy`` class defined anywhere in ``src/``, by AST."""
    found = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Policy"):
                found[node.name] = getattr(
                    importlib.import_module(module), node.name
                )
    return found


class TestOneExchangePolicyBase:
    @pytest.mark.parametrize("package", PROBE_FREE_PACKAGES)
    def test_no_policy_probes(self, package):
        root = REPO / "src" / "repro" / package
        assert [
            f"{path.name}:{probe}"
            for path in sorted(root.glob("*.py"))
            for probe in _policy_probes(path.read_text())
        ] == []

    def test_the_probe_guard_sees_a_probe(self):
        sample = (
            "def f(ctx, policy, other):\n"
            "    getattr(ctx.bp_policy, 'reset', None)\n"
            "    hasattr(policy, 'health')\n"
            "    getattr(other, 'policy', None)\n"
        )
        assert _policy_probes(sample) == ["getattr:2", "hasattr:3"]

    def test_every_policy_subclasses_the_base(self):
        """Every ``*Policy`` class defined anywhere in ``src/`` (found by
        AST, so a new one cannot be left off a list) is an
        ``ExchangePolicy``."""
        from repro.core.messages import ExchangePolicy

        found = _policy_classes()
        assert found.pop("ExchangePolicy") is ExchangePolicy
        assert {"RawPolicy", "CompressPolicy", "Float16Policy", "TopKPolicy",
                "OneBitPolicy", "DelayedPolicy", "ReqECPolicy",
                "ResECPolicy"} <= set(found)
        assert [
            name for name, cls in sorted(found.items())
            if not issubclass(cls, ExchangePolicy)
        ] == []


# One policy contract: what the transport reads of every policy. Each
# ``respond`` names one of the ledger's frame kinds and ships a
# ``cluster/serialize.py`` frame, whose length is the size it is
# charged, and ``receive`` returns float32 rows of the served shape.
CONTRACT_PERIOD = 3  # ReqEC-FP's T_tr: t = 0..T_tr+1 sends every kind


def _contract_policy(name: str):
    from repro.core.bit_tuner import BitTuner
    from repro.core.messages import RawPolicy
    from repro.core.policies import (
        CompressPolicy,
        DelayedPolicy,
        Float16Policy,
        OneBitPolicy,
        TopKPolicy,
    )
    from reqec_owners import bind
    from repro.core.reqec_fp import ReqECPolicy
    from repro.core.resec_bp import ResECPolicy

    return {
        "RawPolicy": lambda: RawPolicy(),
        "CompressPolicy": lambda: CompressPolicy(4),
        "Float16Policy": lambda: Float16Policy(),
        "TopKPolicy": lambda: TopKPolicy(k=2),
        "OneBitPolicy": lambda: OneBitPolicy(),
        "DelayedPolicy": lambda: DelayedPolicy(),
        "ReqECPolicy": lambda: bind(ReqECPolicy(
            BitTuner(initial_bits=4, enabled=False),
            trend_period=CONTRACT_PERIOD,
        ), {(0, 1): 6}),
        "ResECPolicy": lambda: ResECPolicy(4),
    }[name]()


class TestOnePolicyContract:
    KINDS = ("raw", "quant", "exact", "selector")

    def test_kinds_are_the_ledger_byte_fields(self):
        from repro.obs.ledger import ChannelRecord

        fields = set(vars(ChannelRecord()))
        assert {f"{kind}_bytes" for kind in self.KINDS} <= fields

    @pytest.mark.parametrize(
        "name", sorted(set(_policy_classes()) - {"ExchangePolicy"})
    )
    def test_respond_names_a_kind_and_receive_returns_rows(self, name):
        from repro.core.messages import ChannelKey

        policy = _contract_policy(name)
        key = ChannelKey(layer=1, responder=0, requester=1)
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((6, 5)).astype(np.float32)
        kinds = []
        for t in range(CONTRACT_PERIOD + 2):
            rows = rows + np.float32(0.01) * rng.standard_normal(
                rows.shape
            ).astype(np.float32)
            message = policy.respond(key, rows, t)
            assert message.kind in self.KINDS
            kinds.append(message.kind)
            # The charged size is the frame's, header included.
            assert isinstance(message.frame, Frame), (name, t)
            wire = bytes(message.frame)
            assert message.nbytes == len(wire), (name, t)
            length = struct.unpack_from("<HHIQ", wire)[3]
            assert length == len(wire) - FRAME_HEADER_BYTES, (name, t)
            decoded = policy.receive(key, message, t)
            assert isinstance(decoded, np.ndarray)
            assert decoded.dtype == np.float32
            assert decoded.shape == rows.shape
        if name == "ReqECPolicy":
            assert kinds == ["quant", "quant", "exact", "selector", "selector"]


# ----------------------------------------------------------------------
# One graph type: a ``GraphStoreBundle`` is the graph and a ``GraphStore``
# its topology, so no annotation in ``src/`` unions a resident
# ``CSRGraph`` with a store and no code branches on which one it got.
# ----------------------------------------------------------------------
GRAPH_TYPES = {"CSRGraph", "GraphStore", "GraphStoreBundle"}


def _type_names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _graph_type_branches(source: str) -> list[str]:
    """``union:line`` for an annotation that unions ``CSRGraph`` with a
    store type, ``isinstance:line`` for a test against a graph type."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [a.annotation for a in arguments] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            line = annotation.lineno
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                annotation = ast.parse(annotation.value, mode="eval").body
            unions = [
                n for n in ast.walk(annotation)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitOr)
                or isinstance(n, ast.Subscript) and "Union" in _type_names(n.value)
            ]
            names = set().union(*map(_type_names, unions))
            if "CSRGraph" in names and names & {"GraphStore", "GraphStoreBundle"}:
                offenders.append((line, "union"))
        if (
            isinstance(node, ast.Call) and len(node.args) == 2
            and getattr(node.func, "id", "") == "isinstance"
            and _type_names(node.args[1]) & GRAPH_TYPES
        ):
            offenders.append((node.lineno, "isinstance"))
    return [f"{kind}:{line}" for line, kind in sorted(offenders)]


class TestOneGraphType:
    def test_src_has_no_graph_type_unions_or_branches(self):
        root = REPO / "src" / "repro"
        assert [
            f"{path.relative_to(root)}:{offender}"
            for path in sorted(root.rglob("*.py"))
            for offender in _graph_type_branches(path.read_text())
        ] == []

    def test_the_graph_type_guard_sees_a_planted_union(self):
        sample = (
            "def f(graph: CSRGraph | GraphStore, n: int) -> int:\n"
            "    if isinstance(graph, (GraphStore, str)):\n"
            "        return 1\n"
            "    return isinstance(n, int)\n"
            "def g(bundle: 'AttributedGraph | GraphStoreBundle | CSRGraph'):\n"
            "    store: Union[store.GraphStore, CSRGraph] = bundle\n"
            "def h(graph: GraphStore, csr: CSRGraph | None) -> GraphStoreBundle:\n"
            "    return isinstance(csr, repro.graph.csr.CSRGraph)\n"
        )
        assert _graph_type_branches(sample) == [
            "union:1", "isinstance:2", "union:5", "union:6", "isinstance:8",
        ]


# ----------------------------------------------------------------------
# One width set: ``SUPPORTED_BITS`` in ``compression/quantization.py`` is
# the only place the bucket-id widths are written down. No other module
# spells out the ladder or range-checks a width as ``1 <= bits <= 16``.
# ----------------------------------------------------------------------
WIDTH_OWNER = REPO / "src" / "repro" / "compression" / "quantization.py"
LADDER = (1, 2, 4, 8, 16)


def _is_constant(node: ast.AST, value: int) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _width_sets(source: str) -> list[str]:
    """``ladder:line`` for a literal ``(1, 2, 4, 8, 16)`` (tuple, list or
    set) and ``range:line`` for a chained ``1 <= x <= 16``."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, (ast.Tuple, ast.List, ast.Set))
            and len(node.elts) == len(LADDER)
            and all(map(_is_constant, node.elts, LADDER))
        ):
            offenders.append((node.lineno, "ladder"))
        elif (
            isinstance(node, ast.Compare)
            and [type(op) for op in node.ops] == [ast.LtE, ast.LtE]
            and _is_constant(node.left, 1)
            and _is_constant(node.comparators[1], 16)
        ):
            offenders.append((node.lineno, "range"))
    return [f"{kind}:{line}" for line, kind in sorted(offenders)]


class TestOneWidthSet:
    def test_only_the_quantizer_writes_the_widths(self):
        root = REPO / "src" / "repro"
        assert [
            f"{path.relative_to(root)}:{offender}"
            for path in sorted(root.rglob("*.py")) if path != WIDTH_OWNER
            for offender in _width_sets(path.read_text())
        ] == []

    def test_the_quantizer_writes_them_once(self):
        found = _width_sets(WIDTH_OWNER.read_text())
        assert len(found) == 1 and found[0].startswith("ladder:")

    def test_the_width_guard_sees_a_second_set(self):
        sample = (
            "LADDER = (1, 2, 4, 8, 16)\n"
            "def f(bits):\n"
            "    if not 1 <= bits <= 16:\n"
            "        return [1, 2, 4, 8, 16]\n"
            "    return 1 <= bits <= 32 or bits in (1, 2, 4, 8)\n"
        )
        assert _width_sets(sample) == ["ladder:1", "range:3", "ladder:4"]


def _documented_names():
    """Backticked ``repro.<pkg>...<Name>`` references in the API docs."""
    found = []
    for doc in ("docs/api.md", "README.md"):
        text = (REPO / doc).read_text()
        for dotted in re.findall(r"`(repro(?:\.\w+)+)", text):
            found.append(pytest.param(dotted, id=f"{doc}:{dotted}"))
    return found


class TestDocumentedNamesResolve:
    @pytest.mark.parametrize("dotted", _documented_names())
    def test_name_imports(self, dotted):
        parts = dotted.split(".")
        for split in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ModuleNotFoundError:
                continue
            for attr in parts[split:]:
                assert hasattr(obj, attr), f"{dotted}: no {attr}"
                obj = getattr(obj, attr)
            return
        raise AssertionError(f"{dotted} does not import")


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "path", _example_files(), ids=lambda p: p.name
    )
    def test_example_compiles(self, path, tmp_path):
        py_compile.compile(
            str(path), cfile=str(tmp_path / (path.name + "c")), doraise=True
        )


def _repro_imports(source: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` per ``from repro... import name`` and
    ``(module, None)`` per ``import repro...`` anywhere in ``source``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                found += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (alias.name, None) for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            ]
    return found


def _unresolved_imports(source: str) -> list[str]:
    """The ``repro`` imports in ``source`` that would fail to resolve."""
    missing = []
    for module, name in _repro_imports(source):
        try:
            imported = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is None or name == "*" or hasattr(imported, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"{module}.{name}")
    return missing


def _never_run_files():
    """Scripts CI only byte-compiles or runs outside the test suite."""
    for root in ("examples", "benchmarks", "bench"):
        yield from sorted((REPO / root).rglob("*.py"))


class TestReproImportsResolve:
    @pytest.mark.parametrize(
        "path", list(_never_run_files()),
        ids=lambda p: str(p.relative_to(REPO)),
    )
    def test_every_repro_import_resolves(self, path):
        assert _unresolved_imports(path.read_text()) == []

    def test_the_guard_flags_a_missing_name(self):
        source = (
            "from repro.graph.generators import GraphSpec, no_such_generator\n"
            "from repro.graph import store\n"
            "import repro.no_such_module\n"
            "def f():\n"
            "    from repro.graph.streaming import stream_graph, nope\n"
        )
        assert _unresolved_imports(source) == [
            "repro.graph.generators.no_such_generator",
            "repro.no_such_module",
            "repro.graph.streaming.nope",
        ]


class TestPublicImports:
    def test_top_level_all_resolves(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module", [
        "repro.nn", "repro.graph", "repro.partition", "repro.cluster",
        "repro.compression", "repro.core", "repro.baselines",
        "repro.analysis",
    ])
    def test_subpackage_all_resolves(self, module):
        import importlib

        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"
