"""The numbers ROADMAP quotes about the product's surface, as assertions.

A new config field or CLI subcommand, or growth of ``src/``, DESIGN.md or
README.md, has to raise a ceiling here, in a reviewed diff; a config field
nothing in the product reads, or that only tests set, fails outright, and
so do a second transport class, a public name that only tests refer to, product code that imports
``sqlite3``, an access log that holds more than 64 bytes per BELLE II
row, an access record with an instance dict, product code that touches
the garbage collector and a new ``np.errstate`` block.
"""

import ast
import importlib
import pkgutil
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import repro
from repro.agents.transport import Transport
from repro.cli import build_parser
from repro.core.config import GeomancyConfig
from repro.replaydb import db as db_module
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent
#: harness and CLI code consumes the product; a field only they read is a
#: parameter of theirs, not configuration of what ``Geomancy(...)`` builds
CONSUMERS = ("experiments", "cli.py")

CONFIG = SRC / "core" / "config.py"

MAX_CONFIG_FIELDS = 34
MAX_CLI_SUBCOMMANDS = 20
#: ``find src -name '*.py' | xargs cat | wc -l``
MAX_SRC_LINES = 19_062
#: ``wc -c`` of the two documents a newcomer reads first
MAX_DESIGN_BYTES = 85_574
MAX_README_BYTES = 20_200

#: Public names under ``src/repro`` that only tests refer to, each with the
#: reason it stays.  A test that tests only the name is not a reason: the
#: test observes or drives *other* behaviour through it, compares the
#: product against it, or it is an extension the README advertises.
TEST_SEAMS = {
    "pending_retries": "ControlAgent: tests watch the retry queue drain",
    "buffered": "MonitoringAgent: tests watch batching and backlog bounds",
    "pending_by_priority": "Transport: the lane split of `pending`, held "
                           "equal to it by the contract test",
    "random_fraction": "ActionChecker: tests watch the exploration share "
                       "approach `exploration_rate`",
    "mount_mean": "Table4Result: Table IV's device ordering is asserted "
                  "through it",
    "consecutive_failures": "HealthTracker: tests watch a success reset "
                            "the circuit breaker's count",
    "pending_actions": "FaultInjector: tests watch a schedule expand into "
                       "its start/end actions",
    "build_training_set": "FeaturePipeline: fit + both transforms in one "
                          "call; drives the smoothing, round-trip and "
                          "records == columns tests",
    "of_kind": "EventBus / EventLog: tests pick drift, rollback and "
               "readmit events out of a run's history",
    "covers_rowid": "provenance: causal-integrity check of a batch's rows",
    "in_flight": "provenance: causal-integrity check, no batch left open",
    "orphaned_parents": "provenance: causal-integrity check, every parent "
                        "id resolves",
    "closed": "ReplayDB: tests watch close() and the context manager",
    "average_throughput": "ReplayDB: per-device view of the running totals "
                          "that test_db_aggregates holds to SQLite's",
    "total_bytes": "AccessRecord: record-at-a-time reference of the "
                   "`total_bytes` column (tests/oracles/record_features)",
    "max_priority": "PrioritizedReplay: tests watch a non-finite error "
                    "leave the priority ceiling alone",
    "add_device": "StorageCluster: drives the facade's lazy per-device "
                  "monitor (TestLazyMonitors)",
    "set_device_available": "StorageCluster: drives the Action Checker "
                            "and control-agent availability paths",
    "migrate_incremental": "StorageCluster: README extension (paper "
                           "section VI) with its own test class",
    "PathEncoder": "the paper's section V-E locality-preserving path "
                   "codec, with its own test module",
}

_PLANE = "overload plane: driven through run_recoverable and kill/resume"
_GUARDRAIL = "guardrail tunable: driven through run_recoverable and kill/resume"
#: ``GeomancyConfig`` fields no product or benchmark code sets, each with
#: the reason it is still a field rather than a constant of its reader.
TEST_ONLY_FIELDS = {
    "telemetry_queue_capacity": _PLANE,
    "queue_shed_policy": _PLANE,
    "admission_enabled": _PLANE,
    "admission_rate_records_s": _PLANE,
    "admission_burst_records": _PLANE,
    "admission_tenant_rates": _PLANE,
    "dead_letter_capacity": _PLANE,
    "dead_letter_path": _PLANE,
    "guardrail_window": _GUARDRAIL,
    "guardrail_regression_fraction": _GUARDRAIL,
    "guardrail_explode_factor": _GUARDRAIL,
    "guardrail_cooldown_runs": _GUARDRAIL,
}


def attributes_read_by_the_product() -> set[str]:
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        # The config's own validators are not readers either.
        if path.relative_to(SRC).parts[0] in CONSUMERS or path == CONFIG:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                names.add(node.attr)
    return names


def test_every_config_field_is_read_by_the_product():
    read = attributes_read_by_the_product()
    unread = [f.name for f in fields(GeomancyConfig) if f.name not in read]
    assert unread == []


def _forwards_config(keyword: ast.keyword) -> bool:
    """``name=<...>.config.name``: passes a field on, does not set it."""
    value = keyword.value
    return (
        isinstance(value, ast.Attribute)
        and value.attr == keyword.arg
        and (
            isinstance(value.value, ast.Attribute)
            and value.value.attr == "config"
            or isinstance(value.value, ast.Name)
            and value.value.id == "config"
        )
    )


def test_every_config_field_is_set_outside_tests():
    """A field only tests move is a constant of the module that reads it,
    or listed in ``TEST_ONLY_FIELDS``.  A field counts as set where its
    name is a keyword argument or a string (ablation sweeps name fields
    as strings)."""
    names = {f.name for f in fields(GeomancyConfig)}
    set_somewhere: set[str] = set()
    paths = [p for p in sorted(SRC.rglob("*.py")) if p != CONFIG]
    paths += sorted((REPO / "benchmarks").rglob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword) and not _forwards_config(node):
                set_somewhere.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                set_somewhere.add(node.value)
    test_only = names - set_somewhere
    assert sorted(test_only - set(TEST_ONLY_FIELDS)) == []
    # Two-sided, like TEST_SEAMS: an entry that gained a caller or left
    # the config has to leave the allowlist.
    assert sorted(set(TEST_ONLY_FIELDS) - test_only) == []
    assert all(
        reason.strip() and "\n" not in reason
        for reason in TEST_ONLY_FIELDS.values()
    )


def test_config_field_ceiling():
    assert len(fields(GeomancyConfig)) <= MAX_CONFIG_FIELDS


def test_cli_subcommand_ceiling():
    (subparsers,) = [
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.dest == "command"
    ]
    assert len(subparsers.choices) <= MAX_CLI_SUBCOMMANDS


def test_src_line_ceiling():
    lines = sum(
        path.read_text().count("\n") for path in SRC.rglob("*.py")
    )
    assert lines <= MAX_SRC_LINES


def test_document_byte_ceilings():
    assert (REPO / "DESIGN.md").stat().st_size <= MAX_DESIGN_BYTES
    assert (REPO / "README.md").stat().st_size <= MAX_README_BYTES


def _trees(*tops: Path):
    for top in tops:
        for path in sorted(top.rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _uses(tree: ast.AST, *, count_imports: bool):
    """Every ``ast.Name`` / ``ast.Attribute`` / imported name in ``tree``;
    without ``count_imports``, what import statements name is skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias) and count_imports:
            yield node.name.rpartition(".")[2]


def test_every_public_name_has_a_caller():
    """A public function, class or method nothing refers to is deleted
    with the tests that test only it, or listed in ``TEST_SEAMS``.  A
    package ``__init__.py`` that re-exports a name is not a caller of it
    (code in such a file still is)."""
    product = list(_trees(SRC))
    referenced: set[str] = set()
    for path, tree in (
        *product, *_trees(REPO / "benchmarks", REPO / "examples")
    ):
        referenced.update(_uses(
            tree,
            count_imports=not (
                path.name == "__init__.py" and path.is_relative_to(SRC)
            ),
        ))
    unreferenced = {
        node.name
        for _, tree in product
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        and not node.name.startswith("_")
        and node.name not in referenced
    }
    assert sorted(unreferenced - set(TEST_SEAMS)) == []
    # The allowlist cannot rot: an entry whose name gained a caller, or
    # went away, has to leave it.
    assert sorted(set(TEST_SEAMS) - unreferenced) == []
    assert all(
        reason.strip() and "\n" not in reason
        for reason in TEST_SEAMS.values()
    )


#: every ``np.errstate`` block in ``src/``, as (module, enclosing function)
ERRSTATE_SITES = [
    # a relative residual over a target that can be 0 (clamped to 1e-12)
    ("core/engine.py", "train_incremental"),
    # a diverging fit overflows, then sends ``inf * 0`` through a ReLU
    # mask: divergence is a reported outcome (Table II), not a warning
    ("nn/network.py", "fit"),
]


def test_errstate_blocks_are_the_listed_ones():
    """A ratchet: each silenced floating-point warning is a listed,
    documented site; a new one fails here instead of hiding a NaN from
    ``filterwarnings = ["error"]``."""

    def calls(node: ast.AST, scope: str):
        """The innermost enclosing function of every ``errstate`` call."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                yield from calls(child, child.name)
                continue
            if isinstance(child, ast.Call) and "errstate" in (
                getattr(child.func, "attr", None),
                getattr(child.func, "id", None),
            ):
                yield scope
            yield from calls(child, scope)

    sites = [
        (path.relative_to(SRC).as_posix(), scope)
        for path in sorted(SRC.rglob("*.py"))
        for scope in calls(ast.parse(path.read_text()), "<module>")
    ]
    assert sites == ERRSTATE_SITES


def test_src_does_not_import_sqlite3():
    """A ratchet: the ReplayDB is an in-memory column store; its SQL
    twin lives in ``tests/oracles/sqlite_replaydb.py``."""
    importers = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import | ast.ImportFrom)
        and "sqlite3" in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import) else [node.module]
        )
    ]
    assert importers == []


def test_access_log_holds_at_most_64_bytes_per_belle2_row():
    """A ratchet on what the ReplayDB keeps per stored access -- rows,
    name tables and per-file state -- over one full chunk of BELLE II
    telemetry, landed in the daemon's batches."""
    rows = db_module._CHUNK_ROWS
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=1))
    names = cluster.device_names
    runner.ensure_files_placed(
        {f.fid: names[f.fid % len(names)] for f in files}
    )
    records = []
    while len(records) < rows:
        for run in runner.run_many(50):
            records.extend(run.records)
    records = records[:rows]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        db = db_module.ReplayDB()
        for start in range(0, rows, 31):
            db.insert_accesses(records[start : start + 31])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert db.max_rowid() == rows
    assert held / rows <= 64


def test_an_access_is_one_tuple_and_src_leaves_gc_alone():
    """Ratchets: a record is the tuple the scan built -- no instance dict
    to seed, no cache to fill on first read -- and the collector's cost is
    lowered by allocating less, never by switching it off."""
    records = (SRC / "replaydb" / "records.py").read_text()
    assert "cached_property" not in records and "__dict__" not in records
    touches_gc = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if re.search(r"\bimport gc\b|\bgc\.", path.read_text())
    ]
    assert touches_gc == []


def test_each_grid_experiment_is_defined_once():
    """No trampoline: the module that owns a figure defines its ``run_*``."""
    grids = ("run_fig5a", "run_fig5b", "run_robustness", "run_table2")
    defined = [
        node.name
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in grids
    ]
    assert sorted(defined) == sorted(grids)


def test_there_is_one_transport_class():
    """Lanes, bound and faults are arguments of the one channel, not types."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name != "repro.__main__":  # importing it runs the CLI
            importlib.import_module(module.name)
    assert Transport.__subclasses__() == []
