"""Monitoring/control agents and the Interface Daemon (paper section V-A).

"Monitoring agents collect access features from the target system and send
back performance information from each I/O operation ... Each monitoring
agent only measures the performance of one storage device ... When a new
data layout is determined, Geomancy sends the updated data layout to
Control Agents. ... the Interface Daemon stores the raw performance data
into the ReplayDB ... Overall transferring data from the target system to
Geomancy's dataset takes around 3ms on average."

Geomancy and the target system are decoupled behind message passing; here
the wire is an in-memory transport whose latency cost is tracked so the
overhead study can report it.
"""

from repro.agents.control import ControlAgent
from repro.agents.daemon import InterfaceDaemon
from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.agents.monitoring import MonitoringAgent
from repro.agents.transport import Transport

__all__ = [
    "ControlAgent",
    "InterfaceDaemon",
    "LayoutCommand",
    "TelemetryBatch",
    "MonitoringAgent",
    "Transport",
]
