"""Host-time hooks the benchmark installs on the simulator from outside.

Nothing here edits the program: every hook replaces a public attribute
for the duration of a ``with`` block and restores the original after.

* :class:`Probe` (always on, a few calls per device run) times
  ``Simulator.run`` -- the event loop -- with both clocks and records
  every simulator run and every ``SsdDevice`` built, so the benchmark
  can read their public counters after a run.  Its clocks leave out
  the time of the yardstick chunks (see ``yardstick.py``).
* :class:`Tracer` (``--trace 1`` only) wraps ``Simulator.process`` and
  the public generator methods of every simulated component class, plus
  the public methods of the FTL classes, in spans.  Each span's self
  time (``perf_counter``) and resume count go to the innermost active
  span; a span is named ``<layer>.<function>`` after the ``repro``
  package that defines the code it runs.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

from repro.kernel import Simulator
from repro.kernel.component import Component
from repro.ssd.device import SsdDevice

#: Packages whose component classes get generator-method spans.
COMPONENT_LAYERS = ("host", "cpu", "dram", "controller", "nand", "ssd")


class Patches:
    """Attribute replacements undone in reverse order."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(name, self._MISSING)
        else:
            original = getattr(owner, name, self._MISSING)
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


class Probe:
    """Event-loop host time and the devices a workload built."""

    def __init__(self) -> None:
        self.loop_cpu_s = 0.0
        self.loop_wall_s = 0.0
        self.in_loop = False
        self.sims: Dict[int, Simulator] = {}
        self.devices: List[SsdDevice] = []
        #: Yardstick chunks run so far and their seconds, left out of
        #: both clocks.
        self.excluded_chunks = 0
        self.excluded_cpu_s = 0.0
        self.excluded_wall_s = 0.0

    def _clock(self, clock, excluded: str) -> float:
        # A chunk runs from a signal handler, which may fire between any
        # two reads; read again until none did.
        while True:
            chunks = self.excluded_chunks
            seconds = getattr(self, excluded)
            now = clock()
            if chunks == self.excluded_chunks:
                return now - seconds

    def cpu(self) -> float:
        """``time.process_time`` without the yardstick's time."""
        return self._clock(time.process_time, "excluded_cpu_s")

    def wall(self) -> float:
        """``time.perf_counter`` without the yardstick's time."""
        return self._clock(time.perf_counter, "excluded_wall_s")

    def reset(self) -> None:
        self.loop_cpu_s = 0.0
        self.loop_wall_s = 0.0
        self.sims = {}
        self.devices = []

    @contextmanager
    def installed(self):
        patches = Patches()
        probe = self
        original_run = Simulator.run
        original_init = SsdDevice.__init__

        def run(sim, until=None):
            probe.sims[id(sim)] = sim
            cpu, wall = probe.cpu(), probe.wall()
            probe.in_loop = True
            try:
                return original_run(sim, until)
            finally:
                probe.in_loop = False
                probe.loop_cpu_s += probe.cpu() - cpu
                probe.loop_wall_s += probe.wall() - wall

        def init(device, *args, **kwargs):
            original_init(device, *args, **kwargs)
            probe.devices.append(device)

        try:
            patches.replace(Simulator, "run", run)
            patches.replace(SsdDevice, "__init__", init)
            yield self
        finally:
            patches.restore()


# ----------------------------------------------------------------------
# Spans


class SpanStat:
    """Counts and self time of one span name."""

    __slots__ = ("calls", "resumes", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.resumes = 0
        self.self_s = 0.0
        self.total_s = 0.0


class _TracedGenerator:
    """A generator stand-in that times every step of the one it wraps.

    It works wherever the wrapped generator did: as a kernel process
    (``send``/``throw``), under ``yield from`` (iterator protocol plus
    ``send``/``throw``/``close``) and as a plain iterator.
    """

    __slots__ = ("_gen", "_stat", "_tracer")

    def __init__(self, gen, stat: SpanStat, tracer: "Tracer") -> None:
        self._gen = gen
        self._stat = stat
        self._tracer = tracer
        stat.calls += 1

    @property
    def __name__(self) -> str:
        return getattr(self._gen, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.step(self._stat, self._gen.send, None)

    def send(self, value):
        return self._tracer.step(self._stat, self._gen.send, value)

    def throw(self, *args):
        return self._tracer.step(self._stat, self._gen.throw, *args)

    def close(self):
        return self._gen.close()


class Tracer:
    """Span recorder; install with :meth:`installed`."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.stats: Dict[str, SpanStat] = {}
        #: Open spans: [child seconds, a child yielded].
        self._stack: List[list] = []
        #: Seconds spent in outermost spans while the event loop ran.
        self.top_in_loop_s = 0.0
        self._generator_methods = _component_generator_methods()
        self._ftl_methods = _ftl_methods()

    def reset(self) -> None:
        self.stats = {}
        self.top_in_loop_s = 0.0

    def stat(self, name: str) -> SpanStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat()
        return stat

    def step(self, stat: SpanStat, function, *args):
        """Run one step of a generator span: charge its self time, and
        the resume too unless a nested span yielded."""
        return self._timed(stat, True, function, args, {})

    def _timed(self, stat: SpanStat, resumable: bool, function, args,
               kwargs):
        stack = self._stack
        frame = [0.0, False]
        stack.append(frame)
        yielded = False
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
            yielded = resumable
            return result
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            stat.self_s += elapsed - frame[0]
            stat.total_s += elapsed
            if yielded and not frame[1]:
                stat.resumes += 1
            if stack:
                parent = stack[-1]
                parent[0] += elapsed
                if yielded:
                    parent[1] = True
            elif self.probe.in_loop:
                self.top_in_loop_s += elapsed

    # ------------------------------------------------------------------
    def _traced_method(self, function, name: str):
        tracer = self

        def method(*args, **kwargs):
            return _TracedGenerator(function(*args, **kwargs),
                                    tracer.stat(name), tracer)
        method.__wrapped__ = function
        return method

    def _timed_call(self, function, name: str):
        tracer = self

        def call(*args, **kwargs):
            stat = tracer.stat(name)
            stat.calls += 1
            return tracer._timed(stat, False, function, args, kwargs)
        call.__wrapped__ = function
        return call

    @contextmanager
    def installed(self, extra: Dict[Tuple[str, str], str] = None):
        """Install every span hook; ``extra`` maps ``(module, function)``
        to a span name for module-level functions timed as plain calls
        (a missing one raises ``AttributeError``)."""
        patches = Patches()
        tracer = self
        original_process = Simulator.process

        def process(sim, generator, name=""):
            if not isinstance(generator, _TracedGenerator):
                generator = _TracedGenerator(
                    generator, tracer.stat(_process_span(generator)),
                    tracer)
            return original_process(sim, generator, name)

        try:
            patches.replace(Simulator, "process", process)
            for cls, attr, layer in self._generator_methods:
                patches.replace(cls, attr, self._traced_method(
                    cls.__dict__[attr], f"{layer}.{attr}"))
            for cls, attr in self._ftl_methods:
                patches.replace(cls, attr, self._timed_call(
                    cls.__dict__[attr], f"ftl.{attr}"))
            for (module_name, attr), span in (extra or {}).items():
                module = importlib.import_module(module_name)
                patches.replace(module, attr, self._timed_call(
                    getattr(module, attr), span))
            yield self
        finally:
            patches.restore()


def _process_span(gen) -> str:
    """``<layer>.<function>`` of a bare generator started as a process."""
    code = getattr(gen, "gi_code", None)
    frame = getattr(gen, "gi_frame", None)
    if code is None or frame is None:
        return "other.process"
    module = frame.f_globals.get("__name__", "").split(".")
    layer = module[1] if len(module) > 2 and module[0] == "repro" \
        else "other"
    return f"{layer}.{code.co_name.strip('_')}"


def _submodules(package_name: str):
    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.walk_packages(package.__path__, package_name + "."):
        yield importlib.import_module(info.name)


def _classes_of(module):
    return [value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__]


def _component_generator_methods() -> List[Tuple[type, str, str]]:
    """(class, method, layer) for each public generator method that a
    simulated component class defines itself."""
    found = []
    for layer in COMPONENT_LAYERS:
        for module in _submodules(f"repro.{layer}"):
            for cls in _classes_of(module):
                if not issubclass(cls, Component):
                    continue
                for attr, value in vars(cls).items():
                    if not attr.startswith("_") \
                            and inspect.isgeneratorfunction(value):
                        found.append((cls, attr, layer))
    return found


def _ftl_methods() -> List[Tuple[type, str]]:
    """(class, method) for the public plain methods of the FTL mapping
    schemes and flash back ends."""
    found = []
    for module in _submodules("repro.ftl"):
        for cls in _classes_of(module):
            if not cls.__name__.endswith(("Ftl", "Backend")):
                continue
            for attr, value in vars(cls).items():
                if not attr.startswith("_") and inspect.isfunction(value) \
                        and not inspect.isgeneratorfunction(value):
                    found.append((cls, attr))
    return found
