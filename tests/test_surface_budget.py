"""The numbers ROADMAP quotes about the product's surface, as assertions.

A new config field or CLI subcommand, or growth of ``src/``, DESIGN.md or
README.md, has to raise a ceiling here, in a reviewed diff; a config field
nothing in the product reads, or that only tests set, fails outright, and
so do a second transport class, a public name that only tests refer to,
a defaulted parameter that only tests set, a ``*`` / ``**`` forward to a
callee not listed in ``FORWARDED``, product code that imports
``sqlite3``, an access log that holds more than 64 bytes per BELLE II
row or grows with a run's length, an access record with an instance
dict, product code that touches the garbage collector, a run that
imports ``numpy.ma``, a new
``np.errstate`` block, a span or tick the code opens on itself and a
``global`` statement.
"""

import ast
import gc
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import repro
from repro.agents.transport import Transport
from repro.cli import build_parser
from repro.core.config import GeomancyConfig
from repro.core.engine import TrainingReport
from repro.core.geomancy import StepOutcome
from repro.experiments.facade import run_facade
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
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

MAX_CONFIG_FIELDS = 16
MAX_CLI_SUBCOMMANDS = 17
#: ``find src -name '*.py' | xargs cat | wc -l``
MAX_SRC_LINES = 14_634
#: ``wc -c`` of the two documents a newcomer reads first, and of the
#: paper-vs-measured record
MAX_DESIGN_BYTES = 71_468
MAX_README_BYTES = 17_787
MAX_EXPERIMENTS_BYTES = 25_000

#: Public names under ``src/repro`` that only tests refer to, each with the
#: reason it stays.  A test that tests only the name is not a reason: the
#: test observes or drives *other* behaviour through it, compares the
#: product against it, or it is an extension the README advertises.
TEST_SEAMS = {
    "pending_retries": "ControlAgent: tests watch the retry queue drain",
    "buffered": "MonitoringAgent: tests watch records wait for a full "
                "batch",
    "random_fraction": "ActionChecker: tests watch the exploration share "
                       "approach `EXPLORATION_RATE`",
    "mount_mean": "Table4Result: Table IV's device ordering is asserted "
                  "through it",
    "consecutive_failures": "HealthTracker: tests watch a success reset "
                            "the circuit breaker's count",
    "pending_actions": "FaultInjector: tests watch a schedule expand into "
                       "its start/end actions",
    "of_kind": "EventLog: tests pick rollback and readmit events out of "
               "a run's history",
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
    "PathEncoder": "the paper's section V-E locality-preserving path "
                   "codec, with its own test module",
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
    """A field only tests move is a constant of the module that reads it.
    A field counts as set where its name is a keyword argument or a
    string (ablation sweeps name fields as strings)."""
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
    assert sorted(names - set_somewhere) == []


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
    assert (REPO / "EXPERIMENTS.md").stat().st_size <= MAX_EXPERIMENTS_BYTES


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


_PER_DEVICE = ("ReplayDB: the per-device totals device_throughput_ranking "
               "folds, held to the SQLite twin per device")
#: Defaulted parameters of public functions that no call in ``src/``,
#: ``benchmarks/`` or ``examples/`` sets, as ``callee.parameter``, each with
#: the reason it is not a constant of its module.
TEST_OPTIONS = {
    "access_count.device": _PER_DEVICE,
    "average_throughput.device": _PER_DEVICE,
    "main.argv": "the CLI entry point: `python -m repro` parses sys.argv, "
                 "tests pass a list",
    "Transport.latency_s": "the paper's 3 ms link latency (section V-A) is "
                           "the default; tests set and validate it",
}

#: Callees that some call in ``src/``, ``benchmarks/`` or ``examples/``
#: reaches through ``*args`` / ``**kwargs``, each with the reason; such a
#: forward counts as setting every parameter of its callee, so a forward
#: to a callee not listed here fails instead of hiding an option.
FORWARDED = {
    "make_experiment_config": "the CLI and the ablation bench pass config "
                              "fields as a dict of overrides",
    "access_columns": "DRLEngine._telemetry passes one window: limit=, "
                      "since= or ids=",
    "FaultStage": "the Faults stage's `link` dict holds the lossy link's "
                  "rates, checkpointed as plain data",
}


def _options(tree: ast.AST):
    """``(callee, parameter, positional index or None, offset)`` for every
    defaulted parameter of a public function, method or constructor
    (``__init__`` is called by its class name); classes in ``TEST_SEAMS``
    are skipped with their methods."""

    def defaults(func: ast.FunctionDef, callee: str, offset: int):
        positional = [*func.args.posonlyargs, *func.args.args]
        first = len(positional) - len(func.args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield callee, arg.arg, index, offset
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None, offset

    for node in getattr(tree, "body", []):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from defaults(node, node.name, 0)
        elif (
            isinstance(node, ast.ClassDef)
            and not node.name.startswith("_")
            and node.name not in TEST_SEAMS
        ):
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or (
                    method.name.startswith("_") and method.name != "__init__"
                ):
                    continue
                static = any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in method.decorator_list
                )
                callee = node.name if method.name == "__init__" else method.name
                yield from defaults(method, callee, 0 if static else 1)


def _calls(tree: ast.AST):
    """``(callee, call)`` for every call; in a class, a classmethod's
    ``cls(...)`` calls the class and ``super().__init__(...)`` each of its
    bases."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = [getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases]
        for call in ast.walk(cls):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "__init__"
                and isinstance(call.func.value, ast.Call)
                and getattr(call.func.value.func, "id", None) == "super"
            ):
                for base in bases:
                    yield base, call
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and any(
                getattr(d, "id", None) == "classmethod"
                for d in method.decorator_list
            ):
                for call in ast.walk(method):
                    if (
                        isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "cls"
                    ):
                        yield cls.name, call
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name:
                yield name, call


def options_without_a_caller() -> tuple[set[str], set[str]]:
    """The options no call sets, and the callees a call forwards to."""
    set_by_call: set[tuple[str, str]] = set()
    product = list(_trees(SRC))
    options = [opt for _, tree in product for opt in _options(tree)]
    wanted = {callee for callee, *_ in options}
    positional_set: dict[str, int] = {}
    forwards_all: set[str] = set()
    for _, tree in (*product, *_trees(REPO / "benchmarks", REPO / "examples")):
        for callee, call in _calls(tree):
            if callee not in wanted:
                continue
            for keyword in call.keywords:
                if keyword.arg is None:
                    forwards_all.add(callee)
                else:
                    set_by_call.add((callee, keyword.arg))
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                forwards_all.add(callee)
            positional_set[callee] = max(
                positional_set.get(callee, 0), len(call.args)
            )
    honoured = forwards_all & set(FORWARDED)
    flagged = set()
    for callee, param, index, offset in options:
        if callee in honoured or (callee, param) in set_by_call:
            continue
        if index is not None and index - offset < positional_set.get(callee, 0):
            continue
        flagged.add(f"{callee}.{param}")
    return flagged, forwards_all


def test_every_option_has_a_caller():
    """A defaulted parameter nothing outside the tests passes is a
    constant of its module (tests monkeypatch it), deleted with the tests
    that test only it, or listed in ``TEST_OPTIONS``.  A call counts by
    callee name (the class name for ``__init__``, also reached as a
    classmethod's ``cls(...)``), by keyword, by position or by forwarding
    ``*args`` / ``**kwargs`` / ``super().__init__`` to a callee listed in
    ``FORWARDED``."""
    flagged, forwarded = options_without_a_caller()
    assert sorted(flagged - set(TEST_OPTIONS)) == []
    assert sorted(set(TEST_OPTIONS) - flagged) == []
    assert len(TEST_OPTIONS) <= 15
    # Neither allowlist can rot: a forward leaves FORWARDED with its call.
    assert sorted(forwarded) == sorted(FORWARDED)
    assert all(
        reason.strip() and "\n" not in reason
        for reason in (*TEST_OPTIONS.values(), *FORWARDED.values())
    )


#: every ``np.errstate`` block in ``src/``, as (module, enclosing function)
ERRSTATE_SITES = [
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


def _receiver(node: ast.AST) -> str | None:
    """The last name of a call's receiver: ``self.obs`` -> ``obs``,
    ``get_observability()`` -> ``get_observability``."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "attr", None) or getattr(node, "id", None)


def test_src_times_itself_nowhere():
    """A ratchet: timing comes from outside, where a run asks for it
    (``repro.observability.tracing.Recorder``); no ``span(`` / ``tick(``
    call on an observability object is left in the code it times."""
    observability = {"obs", "observability", "tracer", "get_observability"}
    sites = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.parent.name != "observability"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("span", "tick")
        and _receiver(node.func.value) in observability
    ]
    assert sites == []


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
    name tables and per-file state -- over 2^16 rows of BELLE II
    telemetry, landed in the daemon's batches.  The volume is pinned,
    not the chunk size: over a few thousand rows the fixed per-file and
    name-table costs would dominate."""
    rows = 1 << 16
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


def test_a_facade_run_keeps_a_fixed_ring_of_chunks(monkeypatch):
    """A ratchet on what a growing run holds: with chunks patched small, a
    facade run of 3N decision epochs ends with as many live ReplayDB
    chunks as a run of N, and device stats keep running aggregates, no
    per-access buffer."""
    monkeypatch.setattr(db_module, "_CHUNK_ROWS", 512)
    live = []
    for runs in (20, 60):  # 4 epochs, then 12
        scale = replace(TEST_SCALE, runs=runs)
        geo = run_facade(
            make_experiment_config(scale, seed=0), scale=scale, seed=0
        ).geo
        live.append(len(geo.db._chunks))
    assert geo.db._first > 0
    assert live[0] == live[1]
    for name in geo.cluster.device_names:
        state = geo.cluster.device(name).stats.state_dict()
        assert state["n"] > 0
        assert all(type(value) in (int, float) for value in state.values())


def test_a_test_scale_run_holds_at_most_512_kib_of_chunks():
    """A ratchet on the shipped chunk size: the ReplayDB's resident rows
    follow the learner's window, not a chunk far larger than it."""
    geo = run_facade(
        make_experiment_config(TEST_SCALE, seed=0), scale=TEST_SCALE, seed=0
    ).geo
    assert sum(chunk.nbytes for chunk in geo.db._chunks.values()) <= 512 << 10


def test_a_facade_run_never_imports_numpy_ma():
    """A ratchet on set-up cost: a plain ``np.unique`` imports
    ``numpy.ma`` (about 15 ms and 1 MB in every fresh process), so the run
    path takes distinct values by sorting or ``np.bincount`` instead.
    Checked in a fresh interpreter, as this one has imported everything."""
    script = (
        "import sys\n"
        "from repro.experiments.facade import run_facade\n"
        "from repro.experiments.harness import make_experiment_config\n"
        "from repro.experiments.spec import TEST_SCALE\n"
        "run_facade(make_experiment_config(TEST_SCALE, seed=0),"
        " scale=TEST_SCALE, seed=0)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_a_facade_run_holds_no_history_of_its_outcomes():
    """A facade run of 3N decision epochs holds no more step outcomes and
    training reports than a run of N: its books are tallies."""
    held = []
    for runs in (20, 60):
        scale = replace(TEST_SCALE, runs=runs)
        run = run_facade(
            make_experiment_config(scale, seed=0), scale=scale, seed=0
        )
        gc.collect()
        held.append(sum(
            isinstance(obj, (StepOutcome, TrainingReport))
            for obj in gc.get_objects()
        ))
    assert held[1] <= held[0]
    assert run.geo.steps == 60


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
    grids = ("run_fig5a", "run_fig5b", "run_table2")
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


def _registrations(src: Path) -> list[str]:
    """Every ``.counter(`` / ``.gauge(`` / ``.histogram(`` call on a metric
    registry under ``src`` outside ``observability/``."""
    return [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        if path.parent.name != "observability"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("counter", "gauge", "histogram")
        and _receiver(node.func.value) == "metrics"
    ]


def test_src_counts_itself_nowhere():
    """A ratchet: metrics are read off the tallies each layer keeps, by
    the table in ``repro.observability.metrics``; no module registers a
    metric of its own to bump beside them."""
    assert _registrations(SRC) == []


#: what a message or record would carry if ids rode along in transit
_TRACE_NAMES = {"trace_id", "CausalContext", "causal"}


def _trace_ids(src: Path) -> list[str]:
    """Every name, attribute, parameter, keyword, definition or import
    under ``src`` in ``_TRACE_NAMES``, and every ``"trace_id"`` key."""
    sites = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {
                getattr(node, field, None)
                for field in ("id", "attr", "arg", "name")
            }
            if isinstance(node, ast.Constant) and node.value == "trace_id":
                names.add(node.value)
            sites += [
                f"{path.relative_to(src)}:{node.lineno}:{name}"
                for name in sorted(names & _TRACE_NAMES)
            ]
    return sites


def test_src_carries_no_trace_ids():
    """A ratchet: provenance is recorded where the ReplayDB is written
    (the daemon's landed batches, the facade's dispatches) and named by
    the ledger's own counters; no id rides a message, a record or a
    channel."""
    assert _trace_ids(SRC) == []


def test_src_has_no_global_statement():
    """A ratchet: what a run observes hangs off the objects it builds;
    no module rebinds process-wide state with ``global``."""
    sites = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert sites == []


def test_observability_has_no_installed_instance():
    """Events are the run's ``EventLog`` and its layers' tallies; there
    is no process-wide observability instance to look up."""
    import repro.observability

    assert not hasattr(repro.observability, "get_observability")
