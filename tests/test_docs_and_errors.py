"""Documentation executability (doctests, examples) and the error
hierarchy contract."""

import doctest
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
    ProblemSizeError,
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
    is frozen, so no caller can reset a knob after it was validated."""
    import dataclasses
    import inspect

    from repro.oocs.api import run_baseline_io, run_job, sort_out_of_core
    from repro.oocs.base import OocJob, run_pass_program

    knobs = {f.name for f in dataclasses.fields(OocJob)}
    for entry in (sort_out_of_core, run_baseline_io, run_pass_program, run_job):
        params = set(inspect.signature(entry).parameters)
        assert params & knobs <= {"cluster", "fmt", "buffer_records"}, entry
    job = OocJob(cluster=repro.cluster.config.ClusterConfig(p=2, mem_per_proc=64),
                 fmt=repro.records.format.RecordFormat("u8", 16), n=256,
                 buffer_records=64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        job.pipeline_depth = 2

class TestErrorHierarchy:
    def test_everything_is_repro_error(self):
        for exc in (
            ConfigError, DimensionError, ProblemSizeError, CommError,
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

    def test_problem_size_error_payload(self):
        err = ProblemSizeError(n=100, bound=50, algorithm="threaded")
        assert err.n == 100 and err.bound == 50
        assert "threaded" in str(err)
        assert isinstance(err, ConfigError)

    def test_spmd_error_payload(self):
        cause = ValueError("inner")
        err = SpmdError(3, cause)
        assert err.rank == 3 and err.cause is cause
        assert "rank 3" in str(err)

    def test_one_except_catches_all(self):
        from repro.cluster.config import ClusterConfig

        with pytest.raises(ReproError):
            ClusterConfig(p=3)
