#!/usr/bin/env python
"""Trace-driven workflow: capture telemetry, persist it, train offline.

Mirrors the paper's EOS methodology ("Traces are used as a proof of
concept"): run a workload, export the ReplayDB to a JSONL trace, reload it
elsewhere, and train a model offline from the file -- the workflow a
downstream user needs to analyze their own system's logs with this library.

Run:  python examples/trace_workflow.py
"""

import tempfile
from pathlib import Path

from repro import (
    Belle2Workload,
    GeomancyConfig,
    DRLEngine,
    ReplayDB,
    WorkloadRunner,
    belle2_file_population,
    make_bluesky_cluster,
)
from repro.policies import EvenSpreadPolicy
from repro.replaydb.traceio import (
    export_db,
    import_db,
    load_trace_csv,
    save_trace_csv,
)


def main() -> None:
    # 1. Capture: run the workload and fill a ReplayDB.
    cluster = make_bluesky_cluster(seed=1)
    files = belle2_file_population(seed=1)
    db = ReplayDB()
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=2), db)
    runner.ensure_files_placed(
        EvenSpreadPolicy().initial_layout(files, cluster.device_names)
    )
    runner.warm_up(2000)
    print(f"captured {db.access_count()} accesses")

    with tempfile.TemporaryDirectory() as tmp:
        jsonl = Path(tmp) / "bluesky_trace.jsonl"
        csv_path = Path(tmp) / "bluesky_trace.csv"

        # 2. Persist: JSONL for round-trips, CSV for plotting tools.
        exported = export_db(db, jsonl)
        save_trace_csv(db.recent_accesses(exported), csv_path)
        print(f"exported {exported} records "
              f"({jsonl.stat().st_size // 1024} KiB jsonl, "
              f"{csv_path.stat().st_size // 1024} KiB csv)")

        # 3. Reload into a fresh DB (a different process, in practice);
        #    the CSV, edited or filtered in a spreadsheet, loads the same way.
        offline_db = ReplayDB()
        import_db(offline_db, jsonl)
        print(f"reloaded {offline_db.access_count()} records")
        from_csv = load_trace_csv(csv_path)
        print(f"csv holds the same {len(from_csv)} records: "
              f"{from_csv == db.recent_accesses(exported)}")

        # 4. Train offline from the trace.
        engine = DRLEngine(
            GeomancyConfig(epochs=60, training_rows=2000)
        )
        report = engine.train(offline_db)
        print(
            f"offline model: error {report.test_mare:.1f}% "
            f"(constant-baseline error {report.constant_mare:.1f}%), "
            f"skillful={report.skillful}"
        )


if __name__ == "__main__":
    main()
