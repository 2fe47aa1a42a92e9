"""Documentation executability (doctests, examples) and the error
hierarchy contract."""

import ast
import doctest
import re
import runpy
import sys
from pathlib import Path

import pytest

import repro.bounds.analysis
import repro.bounds.restrictions
import repro.cluster.config
import repro.columnsort.validation
import repro.disks.pdm
import repro.matrix.bits
import repro.oocs.api
import repro.records.format
import repro.records.generators
import repro.records.keys
from repro.errors import (
    CommError,
    ConfigError,
    DimensionError,
    DiskError,
    DiskFullError,
    ReproError,
    SpmdError,
    VerificationError,
)

DOCTEST_MODULES = [
    repro.matrix.bits,
    repro.records.keys,
    repro.records.format,
    repro.records.generators,
    repro.columnsort.validation,
    repro.cluster.config,
    repro.disks.pdm,
    repro.bounds.restrictions,
    repro.bounds.analysis,
    repro.oocs.api,
]


@pytest.mark.parametrize(
    "module", DOCTEST_MODULES, ids=lambda m: m.__name__
)
def test_doctests(module):
    """Every usage example in the docstrings actually runs."""
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"


EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.py"),
    key=lambda path: path.name,
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda s: s.stem)
def test_examples_run_clean(script, capsys, monkeypatch):
    """Every example script executes end to end (they are all
    laptop-scale by construction)."""
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"
    assert "Traceback" not in out


def test_src_reads_no_environment_variable():
    """A behaviour switch has to be a reviewed parameter, not ambient
    state that selects a second code path and crosses ``fork()`` unseen."""
    src = Path(__file__).parent.parent / "src" / "repro"
    readers = [
        f"{path.relative_to(src)}:{lineno}"
        for path in sorted(src.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "os.environ" in line or "getenv" in line
    ]
    assert readers == []


def test_one_runner_for_every_pass_program():
    """One orchestration: under ``oocs/`` only ``base.run_pass_program``
    launches a metered SPMD world and builds an ``OocResult``, and one
    module, ``grid``, builds the pass list of every program in
    ``ALGORITHMS`` (``baseline_io`` builds the I/O-only baseline's per
    pass count for the same runner)."""
    import ast

    from repro.oocs import grid
    from repro.oocs.api import ALGORITHMS

    oocs = Path(__file__).parent.parent / "src" / "repro" / "oocs"
    callers = {"run_spmd_metered": set(), "OocResult": set()}
    declaring = set()
    for path in sorted(oocs.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:  # nested helpers count for their top-level def
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id in callers:
                        where = getattr(top, "name", "<module>")
                        callers[node.func.id].add(f"{path.stem}.{where}")
                    elif node.func.id == "PassSpec":
                        declaring.add(path.stem)
    assert callers == {
        "run_spmd_metered": {"base.run_pass_program"},
        "OocResult": {"base.run_pass_program"},
    }
    assert declaring == {"grid", "baseline_io"}
    bodies = {body for body, _local, _distributed in grid.KINDS.values()}
    for program in ALGORITHMS.values():
        assert {spec.body for spec in program.passes} <= bodies
        assert program.derive_shape.func is grid.derive_shape


def test_one_column_store_and_one_shape_function():
    """One height interpretation: ``repro.disks`` exports a single
    column-store class, and the names of the second store, the second
    read helper, the shape mirrors and the layout probes are gone from
    ``src/`` for good."""
    import inspect

    import repro.disks

    stores = [
        name
        for name in repro.disks.__all__
        if inspect.isclass(getattr(repro.disks, name)) and "ColumnStore" in name
    ]
    assert stores == ["ColumnStore"]
    gone = (
        "StripedColumnStore", "owned_column_reads", "shape_threaded",
        "shape_subblock", "shape_m", "striped=", "hasattr(store",
    )
    src = Path(__file__).parent.parent / "src"
    hits = [
        f"{path.relative_to(src)}: {name}"
        for path in sorted(src.rglob("*.py"))
        for name in gone
        if name in path.read_text()
    ]
    assert hits == []


def test_one_statement_of_each_pass_program():
    """The pass list that runs is the pass list Figure 2 is priced from:
    no second builder of run traces, no shape-name table and no pass
    body restating its per-round work survive under ``src/``;
    ``repro.simulate`` knows no algorithm (it imports neither
    ``repro.oocs`` nor ``repro.columnsort`` at module level); and every
    ``PassSpec`` pairs a stage constructor with a work builder naming
    exactly its stages — the check a future pass cannot dodge."""
    import ast

    from repro.oocs.api import ALGORITHMS
    from repro.oocs.baseline_io import baseline_program

    src = Path(__file__).parent.parent / "src"
    gone = {"_run_trace(": src, "TRACE_BUILDERS": src, "new_pass_trace": src,
            "rounds.append": src / "repro" / "oocs"}
    hits = [
        f"{path.relative_to(src)}: {name}"
        for name, root in gone.items()
        for path in sorted(root.rglob("*.py"))
        if name in path.read_text()
    ]
    assert hits == []
    for path in sorted((src / "repro" / "simulate").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
                    alias.name for alias in node.names
                ]
                assert not any(
                    m.startswith(("repro.oocs", "repro.columnsort")) for m in modules
                ), f"{path.name} imports {modules}"
    r, s, p, g = 2**12, 16, 4, 2
    for program in (*ALGORITHMS.values(), baseline_program(3)):
        for spec in program.passes:
            assert set(spec.work(64, r, s, p, g).work) == {
                st.name for st in spec.stages()
            }, f"{program.name}: {spec.name}"


def test_one_declaration_of_each_run_knob():
    """``OocJob`` is the only place a run knob is declared: the entry
    points take the job (or forward ``**job`` to it) and restate only
    the machine, record format and buffer they build it from; the job
    is frozen, so no caller can reset a knob after it was validated.
    ``SPEC_FIELDS`` is the only place a job-spec field is declared:
    every ``sort`` option is one of its fields, an ``OocJob`` field
    under its own name, or a named CLI-only input, and the service
    accepts exactly its fields."""
    import dataclasses
    import inspect

    from repro.cli import build_parser
    from repro.errors import ServiceError
    from repro.oocs.api import (
        SPEC_FIELDS,
        run_baseline_io,
        run_job,
        sort_out_of_core,
    )
    from repro.oocs.base import OocJob, run_pass_program
    from repro.service.protocol import validate_spec

    knobs = {f.name for f in dataclasses.fields(OocJob)}
    for entry in (sort_out_of_core, run_baseline_io, run_pass_program, run_job):
        params = set(inspect.signature(entry).parameters)
        assert params & knobs <= {"cluster", "fmt", "buffer_records"}, entry
    job = OocJob(cluster=repro.cluster.config.ClusterConfig(p=2, mem_per_proc=64),
                 fmt=repro.records.format.RecordFormat("u8", 16), n=256,
                 buffer_records=64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        job.pipeline_depth = 2

    # The CLI's inputs from which it builds retry_policy, cancel and
    # restart_policy, its output switch, and the pool budget.
    cli_only = {"workdir", "json", "mem_budget", "retries", "deadline",
                "max_restarts", "restart_backoff"}
    command = next(a for a in build_parser()._actions if a.dest == "command")
    options = {a.dest for a in command.choices["sort"]._actions} - {"help"}
    assert options <= set(SPEC_FIELDS) | knobs | cli_only
    assert options >= (set(SPEC_FIELDS) - {"verify"}) | cli_only
    assert set(validate_spec({})) == set(SPEC_FIELDS)
    for name in sorted(knobs - set(SPEC_FIELDS)):
        with pytest.raises(ServiceError, match="unknown job-spec field"):
            validate_spec({name: None})


#: Public ``src/`` definitions that nothing in ``src/``, ``bench/`` or
#: ``examples/`` calls, kept on purpose. Each reason is a DESIGN.md
#: claim id or section — the paper oracle or harness the tests compare
#: the system against — or ``seam: tests/<file>``, a fault-injection or
#: leak-check hook that file uses.
UNCALLED_ON_PURPOSE = {
    "repro.bounds.analysis.log2_improvement_summary": "T-bounds",
    "repro.bounds.analysis.max_n_for_buffer": "T-bounds",
    "repro.columnsort.validation.max_s_basic": "T-bounds",
    "repro.columnsort.validation.max_s_subblock": "T-bounds",
    "repro.columnsort.subblock.subblock_columnsort": "Figure 1",
    "repro.columnsort.checks.runs_after_subblock_ok": "Figure 1",
    "repro.columnsort.zero_one.empirical_min_height": "T-boundary",
    "repro.matrix.layout.from_columns": "§5",
    "repro.matrix.permutations.apply_index_map": "§5",
    "repro.matrix.permutations.column_major_rank": "§5",
    "repro.matrix.permutations.shift_down_target": "§5",
    "repro.matrix.permutations.step4_target": "§5",
    "repro.oocs.incore.bitonic.bitonic_exchange_count": "T-incore",
    "repro.oocs.incore.bitonic.distributed_bitonic_sort": "T-incore",
    "repro.oocs.incore.radix.distributed_radix_sort": "T-incore",
    "repro.oocs.incore.sample.distributed_sample_sort": "T-incore",
    "repro.oocs.runs.verify_run_structure": "T-merge",
    "repro.crashsim.cache.is_legal_state": "§14",
    "repro.crashsim.harness.run_sweep": "§14",
    # The interposer records every write path a traced program can take.
    "repro.crashsim.interpose.TracedFile.writelines": "§14",
    "repro.resilience.faults.FaultPlan": "seam: tests/test_resilience_faultplan.py",
    "repro.resilience.faults.FaultPlan.arm_once": "seam: tests/conftest.py",
    "repro.membuf.pool.BufferPool.free_buffers": "seam: tests/test_membuf.py",
    "repro.membuf.pool.BufferPool.lent": "seam: tests/test_round_allocations.py",
    "repro.cluster.arena.ShmArena.slab_count": "seam: tests/test_shm_arena.py",
}


def _definitions(tree, module):
    """``(qualified name, bare name, node)`` of each public module-level
    function, class and UPPER_CASE constant, and each public method of
    a class, in one parsed ``src/`` module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{module}.{node.name}.{method.name}", method.name, method
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = getattr(target, "id", "")
                if name.isupper() and not name.startswith("_"):
                    yield f"{module}.{name}", name, node


def _appearances(tree, is_init):
    """``(name, line)`` of every identifier a module mentions: names,
    attributes, import aliases and identifier strings — except an
    ``__init__`` module's re-exports and any ``__all__`` list. A
    function under a decorator other than ``property``,
    ``staticmethod`` or ``classmethod`` (a registry) counts as
    mentioned, at line 0."""
    plain = {"property", "staticmethod", "classmethod", "setter", "deleter"}
    skip = set()
    for node in ast.walk(tree):
        if is_init and isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(map(id, node.names))
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            skip.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (*node.name.split("."), node.asname):
                if name:
                    yield name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno
        elif isinstance(node, ast.FunctionDef):
            if any(
                getattr(d, "id", getattr(d, "attr", None)) not in plain
                for d in node.decorator_list
            ):
                yield node.name, 0


def test_every_public_definition_has_a_caller():
    """Dead code stays deleted: every public function, class,
    UPPER_CASE constant and method under ``src/`` is named somewhere in
    ``src/``, ``bench/`` or ``examples/`` outside its own definition
    (``tests/`` does not count), or is in ``UNCALLED_ON_PURPOSE`` with
    a reason that holds. An entry that no longer exists or has since
    found a caller is stale and fails too."""
    root = Path(__file__).parent.parent
    subjects, seen = [], {}
    for tree_name in ("src", "bench", "examples"):
        for path in sorted((root / tree_name).rglob("*.py")):
            rel = path.relative_to(root)
            tree = ast.parse(path.read_text())
            for name, line in _appearances(tree, path.name == "__init__.py"):
                seen.setdefault(name, []).append((rel, line))
            if tree_name == "src":
                module = ".".join(rel.with_suffix("").parts[1:])
                module = module.removesuffix(".__init__")
                subjects += [(rel, *d) for d in _definitions(tree, module)]
    uncalled = {}
    for rel, qualified, name, node in subjects:
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno] + [d.lineno for d in decorators])
        if all(
            where == rel and first <= line <= node.end_lineno
            for where, line in seen.get(name, [])
        ):
            uncalled[qualified] = f"{rel}:{node.lineno} {qualified}"
    offenders = [uncalled[q] for q in sorted(uncalled.keys() - UNCALLED_ON_PURPOSE.keys())]
    assert not offenders, "public and called by nothing:\n" + "\n".join(offenders)
    stale = sorted(UNCALLED_ON_PURPOSE.keys() - uncalled.keys())
    assert not stale, f"UNCALLED_ON_PURPOSE entries gone or now called: {stale}"

    design = (root / "DESIGN.md").read_text()
    unfounded = [
        f"{qualified}: {reason}"
        for qualified, reason in UNCALLED_ON_PURPOSE.items()
        if not _reason_holds(reason, qualified.rsplit(".", 1)[1], root, design)
    ]
    assert not unfounded, "reasons that do not hold:\n" + "\n".join(unfounded)


def _reason_holds(reason, name, root, design):
    """A ``seam: tests/<file>`` reason holds when that file uses
    ``name``; a DESIGN reason when DESIGN.md has that section (``§N``)
    or that bold claim id."""
    if reason.startswith("seam: tests/"):
        seam = root / reason.removeprefix("seam: ")
        return seam.is_file() and re.search(rf"\b{name}\b", seam.read_text())
    if reason.startswith("§"):
        return re.search(rf"^## {reason[1:]}\. ", design, re.M)
    return f"**{reason}**" in design


class TestErrorHierarchy:
    def test_everything_is_repro_error(self):
        for exc in (
            ConfigError, DimensionError, CommError,
            DiskError, DiskFullError, VerificationError,
        ):
            assert issubclass(exc, ReproError)

    def test_stdlib_compatibility(self):
        """Callers can catch with the natural stdlib classes too."""
        assert issubclass(DimensionError, ValueError)
        assert issubclass(ConfigError, ValueError)
        assert issubclass(DiskError, IOError)
        assert issubclass(CommError, RuntimeError)
        assert issubclass(VerificationError, AssertionError)

    def test_spmd_error_payload(self):
        cause = ValueError("inner")
        err = SpmdError(3, cause)
        assert err.rank == 3 and err.cause is cause
        assert "rank 3" in str(err)

    def test_one_except_catches_all(self):
        from repro.cluster.config import ClusterConfig

        with pytest.raises(ReproError):
            ClusterConfig(p=3)
