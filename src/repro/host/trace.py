"""Command trace player.

"Both interfaces include a command/data trace player which parses a file
containing the operations to be performed.  During simulation the Host
Interface model parses the trace file and triggers operations for the
following components accordingly." (paper, Section III-C1)

The native trace format — one command per line::

    <issue_time_us> <R|W|T|F> <lba> <sectors>

``#`` starts a comment.  ``issue_time_us`` is the earliest issue time; a
value of 0 for every line reproduces a closed-loop (queue-limited) stream
like the Fig. 3/4 experiments use.

Real block traces (MSR-Cambridge CSV, blkparse text) are handled by the
streaming ingestion pipeline in :mod:`repro.host.traces`; the helpers
here keep the original convenience API (parse whole text, command lists)
on top of it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TYPE_CHECKING

from .commands import IoCommand, IoOpcode
from .traces.formats import emit_records, iter_trace, parse_trace_lines
from .traces.records import TraceError, TraceRecord, records_to_commands

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel import Simulator
    from ..ssd.device import SsdDevice
    from ..ssd.metrics import RunResult

__all__ = ["TraceError", "format_trace", "load_trace", "parse_trace",
           "play_trace", "save_trace"]


def parse_trace(text: str) -> List[IoCommand]:
    """Parse native trace text into a command list (ordered by line)."""
    records = parse_trace_lines(text.splitlines(), "native",
                                source="<string>")
    return list(records_to_commands(records))


def load_trace(path: str, fmt: str = "auto") -> List[IoCommand]:
    """Read and parse a trace file (native, MSR CSV or blkparse)."""
    return list(records_to_commands(iter_trace(path, fmt=fmt)))


def format_trace(commands: Iterable[IoCommand]) -> str:
    """Render commands back into native trace text (inverse of
    :func:`parse_trace`)."""
    records = (TraceRecord(issue_ps=max(0, command.issue_time_ps),
                           opcode=command.opcode, lba=command.lba,
                           sectors=command.sectors)
               for command in commands)
    return "\n".join(emit_records(records, "native")) + "\n"


def save_trace(path: str, commands: Iterable[IoCommand]) -> None:
    """Write commands to a native-format trace file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_trace(commands))


def play_trace(sim: "Simulator", device: "SsdDevice",
               commands: List[IoCommand], pattern: str = "sequential",
               label: str = "host.trace",
               max_commands: Optional[int] = None) -> "RunResult":
    """Replay a parsed command trace through ``device`` — the paper's
    host-side trace player.  Each command is held until its
    ``issue_time_ps`` before entering the interface queue (open loop).
    """
    from ..ssd.metrics import run_workload  # deferred: breaks import cycle
    from .workload import CommandListWorkload

    workload = CommandListWorkload(list(commands), pattern=pattern)
    return run_workload(sim, device, workload, max_commands=max_commands,
                        label=label or workload.pattern_name,
                        honor_issue_times=True)
