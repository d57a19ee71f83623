"""Module-level logging for the whole ``repro`` package.

Every module logs through ``logging.getLogger("repro.<module>")``; this
module owns the single handler on the ``repro`` root logger.  Nothing is
configured at import time -- a library must not hijack the host's logging
-- so diagnostics are silent until :func:`configure` runs (the CLI calls
it from ``--log-level``/``--log-json``).

``json_format=True`` switches the handler to one-JSON-object-per-line
output for machine ingestion; otherwise a compact human format is used.
"""

from __future__ import annotations

import json
import logging
import sys

from repro.errors import ConfigurationError

ROOT_LOGGER = "repro"

LEVELS = ("debug", "info", "warning", "error", "critical")

_TEXT_FORMAT = "%(asctime)s %(levelname)-8s %(name)s: %(message)s"

# Until configure() runs, records stop here instead of falling through to
# logging's last-resort handler, which would print every WARNING to stderr.
logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())


class JsonFormatter(logging.Formatter):
    """One JSON object per record: level, logger, message, extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": self.formatTime(record),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


def get_logger(name: str) -> logging.Logger:
    """The logger for one module, namespaced under ``repro``."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def configure(
    level: str = "warning",
    *,
    json_format: bool = False,
) -> logging.Logger:
    """(Re)configure the ``repro`` root logger; returns it.

    Idempotent: the previous handler installed by this function is
    replaced, not stacked, so repeated CLI invocations in one process do
    not duplicate output.
    """
    if level.lower() not in LEVELS:
        raise ConfigurationError(
            f"log level must be one of {LEVELS}, got {level!r}"
        )
    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(level.upper())
    for handler in list(root.handlers):
        if getattr(handler, "_repro_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler._repro_handler = True
    handler.setFormatter(
        JsonFormatter() if json_format else logging.Formatter(_TEXT_FORMAT)
    )
    root.addHandler(handler)
    # Stop at our handler instead of bubbling to the (possibly
    # basicConfig'd) global root, which would double-print.
    root.propagate = False
    return root
