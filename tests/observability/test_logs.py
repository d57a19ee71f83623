"""Module logging: configure(), JSON output, dead-letter warnings."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.agents.daemon import InterfaceDaemon
from repro.agents.transport import Transport
from repro.errors import ConfigurationError
from repro.observability.logs import ROOT_LOGGER, configure, get_logger
from repro.replaydb.db import ReplayDB

SRC = Path(repro.__file__).parent.parent


@pytest.fixture(autouse=True)
def _reset_repro_logger():
    """configure() mutates process-global logger state; undo it."""
    root = logging.getLogger(ROOT_LOGGER)
    previous = (list(root.handlers), root.propagate, root.level)
    yield
    root.handlers, root.propagate = previous[0], previous[1]
    root.setLevel(previous[2])


@pytest.fixture
def stderr(capsys):
    """What configure()'s handler has written to stderr so far."""
    return lambda: capsys.readouterr().err


class TestGetLogger:
    def test_namespaces_under_repro(self):
        assert get_logger("agents.daemon").name == "repro.agents.daemon"

    def test_already_namespaced_names_pass_through(self):
        assert get_logger("repro.core").name == "repro.core"


class TestUnconfigured:
    def test_warnings_stay_silent_until_configure(self):
        # pytest installs root handlers of its own, so only a fresh
        # interpreter shows what an unconfigured host prints.
        script = (
            "from repro.observability.logs import get_logger; "
            "get_logger('agents.daemon').warning('dead-lettered')"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
        )
        assert done.stderr == ""


class TestConfigure:
    def test_idempotent_no_handler_stacking(self):
        configure("info")
        configure("debug")
        root = logging.getLogger(ROOT_LOGGER)
        ours = [
            h for h in root.handlers if getattr(h, "_repro_handler", False)
        ]
        assert len(ours) == 1
        assert root.level == logging.DEBUG
        assert root.propagate is False

    def test_text_format(self, stderr):
        configure("info")
        get_logger("test").info("hello %s", "world")
        line = stderr().strip()
        assert "INFO" in line
        assert "repro.test" in line
        assert line.endswith("hello world")

    def test_json_format(self, stderr):
        configure("warning", json_format=True)
        get_logger("test").warning("trouble at %d", 7)
        record = json.loads(stderr())
        assert record["level"] == "WARNING"
        assert record["logger"] == "repro.test"
        assert record["message"] == "trouble at 7"

    def test_level_filtering(self, stderr):
        configure("error")
        get_logger("test").warning("suppressed")
        assert stderr() == ""

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigurationError, match="log level"):
            configure("loud")


class TestDaemonDeadLetterLogging:
    def test_non_telemetry_message_warns_with_context(self, stderr):
        configure("warning")
        telemetry = Transport()
        daemon = InterfaceDaemon(ReplayDB(), telemetry, Transport())
        telemetry.send("not a batch")
        assert daemon.pump_telemetry() == 0
        assert daemon.dead_letters == 1
        line = stderr()
        assert "WARNING" in line
        assert "dead-lettered" in line
        assert "str" in line  # the offending message type is named
