"""Channel/way controller.

"From an architectural point of view, the channel/way controller is
composed of five macro blocks: an AMBA AHB slave program port, a Push-Pull
DMA (PP-DMA) controller, a SRAM cache buffer, an Open NAND Flash Interface
2.0 (ONFI) port and a command translator." (paper, Section III-B3)

This component owns the dies of one channel (``n_ways x dies_per_way``)
and exposes page-level operations that thread through:

  command translator (fixed controller cycles)
  -> SRAM staging slot (backpressure)
  -> ECC engine (encode on writes, decode on reads; latency by wear)
  -> ONFI bus per the gang scheme
  -> the die state machine (array time)

The PP-DMA that moves data between the DRAM buffers and the SRAM cache is
instantiated per channel; the SSD device drives it with DRAM movers.
"""

from __future__ import annotations

from typing import List, Optional

from ..cpu.dma import DmaEngine
from ..ecc.adaptive import EccScheme
from ..faults import ProgramFailError, UncorrectableReadError
from ..kernel import Component, Resource, Simulator
from ..kernel.simtime import Clock, ns
from ..obs import spans as _obs
from ..nand.die import NandDie
from ..nand.geometry import NandGeometry, PageAddress
from ..nand.onfi import OnfiTiming
from ..nand.timing import MlcTimingModel
from ..nand.wear import WearModel
from .gang import ChannelBuses, GangScheme


class ChannelWayController(Component):
    """Controller for one channel and its gang of ways/dies."""

    def __init__(self, sim: Simulator, name: str, n_ways: int,
                 dies_per_way: int, geometry: NandGeometry,
                 nand_timing: MlcTimingModel, wear_model: WearModel,
                 onfi_timing: OnfiTiming, ecc: EccScheme,
                 gang_scheme: GangScheme = GangScheme.SHARED_BUS,
                 clock: Optional[Clock] = None,
                 sram_page_slots: int = 8,
                 translator_cycles: int = 12,
                 initial_pe_cycles: int = 0,
                 fast: bool = False,
                 fast_overhead_ps: int = 0,
                 parent: Optional[Component] = None):
        super().__init__(sim, name, parent)
        if dies_per_way < 1:
            raise ValueError(f"dies_per_way must be >= 1, got {dies_per_way}")
        if sram_page_slots < 1:
            raise ValueError("sram_page_slots must be >= 1")
        self.n_ways = n_ways
        self.dies_per_way = dies_per_way
        self.geometry = geometry
        self.ecc = ecc
        self.clock = clock or Clock("ctrl", frequency_hz=200e6)
        self.translator_cycles = translator_cycles
        #: Fast fidelity: page operations collapse the ONFI phase chain
        #: into one prep timeout + one bus tenure (see the _fast methods).
        self._fast = fast
        #: Calibrated residual overhead per fast op (covers the phase
        #: boundaries the closed form folds away).
        self._fast_overhead_ps = fast_overhead_ps

        self.buses = ChannelBuses(sim, "gang", gang_scheme, n_ways,
                                  onfi_timing, parent=self)
        self.dies: List[List[NandDie]] = [
            [NandDie(sim, f"way{w}_die{d}", geometry, nand_timing,
                     wear_model, parent=self,
                     initial_pe_cycles=initial_pe_cycles)
             for d in range(dies_per_way)]
            for w in range(n_ways)
        ]
        # One encoder and one decoder engine per channel controller.
        self.encoder = Resource(sim, f"{name}.enc", capacity=1)
        self.decoder = Resource(sim, f"{name}.dec", capacity=1)
        # One array operation in flight per die: the controller polls die
        # status and holds further commands until ready (ONFI R/B#).
        self._die_locks: List[List[Resource]] = [
            [Resource(sim, f"{name}.rb_w{w}d{d}", capacity=1)
             for d in range(dies_per_way)]
            for w in range(n_ways)
        ]
        # SRAM cache buffer: page staging slots shared by all ways.
        self.sram = Resource(sim, f"{name}.sram", capacity=sram_page_slots)
        # PP-DMA between DRAM buffer and this controller's SRAM.
        self.ppdma = DmaEngine(sim, "ppdma", channels=2, setup_ps=ns(150),
                               parent=self)

    # ------------------------------------------------------------------
    def die(self, way: int, die_index: int) -> NandDie:
        if not 0 <= way < self.n_ways:
            raise ValueError(f"way {way} out of range")
        if not 0 <= die_index < self.dies_per_way:
            raise ValueError(f"die {die_index} out of range")
        return self.dies[way][die_index]

    @property
    def total_dies(self) -> int:
        return self.n_ways * self.dies_per_way

    def _translate(self):
        """Command translator latency (controller clock cycles)."""
        yield self.sim.timeout(self.clock.cycles(self.translator_cycles))

    # ------------------------------------------------------------------
    # Page operations
    # ------------------------------------------------------------------
    def program_page(self, way: int, die_index: int, address: PageAddress):
        """Generator: full write path for one page; returns elapsed ps."""
        if self._fast:
            return (yield from self._program_page_fast(way, die_index,
                                                       address))
        die = self.die(way, die_index)
        start = self.sim.now
        yield from self._translate()

        slot = self.sram.acquire()
        yield slot
        try:
            # Encode while the page sits in SRAM.
            pe = die.pe_cycles(address.plane, address.block)
            encode_ps = self.ecc.encode_time_ps(self.geometry.page_bytes, pe)
            if encode_ps:
                engine = self.encoder.acquire()
                yield engine
                t0 = self.sim.now if _obs.enabled else -1
                yield self.sim.timeout(encode_ps)
                self.encoder.release(engine)
                if t0 >= 0:
                    _obs.record_span(self.path(), "ecc_encode", t0,
                                     self.sim.now)
            # Wait for die ready (R/B#), then command + data-in on the
            # ONFI fabric (payload + spare).
            ready = self._die_locks[way][die_index].acquire()
            yield ready
            yield from self.buses.issue_command(way)
            yield from self.buses.transfer(way, self.geometry.raw_page_bytes)
        finally:
            self.sram.release(slot)
        # Array program: die busy, buses free.
        try:
            yield self.sim.process(die.program(address))
        finally:
            self._die_locks[way][die_index].release(ready)
        if die.fault_plan is not None and die.last_program_failed:
            # Status poll reports FAIL: array time is spent, the page is
            # consumed, and the device layer must remap the data.
            self.stats.counter("program_fail_reports").increment()
            raise ProgramFailError(
                f"{self.path()}: program-status FAIL at way{way} "
                f"die{die_index} {address}", address=address)
        self.stats.counter("programs").increment()
        self.stats.meter("write_data").record(self.geometry.page_bytes)
        return self.sim.now - start

    def read_page(self, way: int, die_index: int, address: PageAddress,
                  errors_present: bool = True, span=None, command=None):
        """Generator: full read path for one page; returns elapsed ps.

        With fault injection enabled the drawn bit errors are compared
        against the ECC scheme's correction capability at this block's
        wear; an over-budget page climbs the read-retry ladder (each rung
        pays a full re-sense + transfer + decode), and a page that
        exhausts the ladder raises :class:`UncorrectableReadError` for
        the device layer to surface as a command error completion.

        ``span`` is an optional :class:`~repro.obs.spans.CommandSpan`
        carried by the host command this page belongs to: the read path
        is serial per page, so stage marks placed here decompose the
        command's latency into queue / bus_xfer / nand_busy / ecc_decode
        segments (retry rungs fold into the same stages).

        ``command`` is the owning :class:`~repro.host.IoCommand` (``None``
        for GC-internal reads): the ladder annotates it with masked-error
        and retry counts for per-command outcome classification.
        """
        if self._fast:
            return (yield from self._read_page_fast(way, die_index, address,
                                                    errors_present))
        die = self.die(way, die_index)
        plan = die.fault_plan
        start = self.sim.now
        yield from self._translate()
        if span is not None:
            span.mark("cpu", self.sim.now)

        attempt = 0
        while True:
            # Wait for die ready, command issue, then array sense (die
            # busy, bus free).
            ready = self._die_locks[way][die_index].acquire()
            yield ready
            if span is not None:
                span.mark("queue", self.sim.now)
            try:
                yield from self.buses.issue_command(way)
                if span is not None:
                    span.mark("bus_xfer", self.sim.now)
                yield self.sim.process(die.read(address))
                if span is not None:
                    span.mark("nand_busy", self.sim.now)
            finally:
                self._die_locks[way][die_index].release(ready)

            slot = self.sram.acquire()
            yield slot
            if span is not None:
                span.mark("queue", self.sim.now)
            try:
                # Data-out, then decode; wear decides the decode effort.
                yield from self.buses.transfer(way,
                                               self.geometry.raw_page_bytes)
                if span is not None:
                    span.mark("bus_xfer", self.sim.now)
                pe = die.pe_cycles(address.plane, address.block)
                decode_ps = self.ecc.decode_time_ps(self.geometry.page_bytes,
                                                    pe, errors_present)
                if decode_ps:
                    engine = self.decoder.acquire()
                    yield engine
                    if span is not None:
                        span.mark("queue", self.sim.now)
                    t0 = self.sim.now if _obs.enabled else -1
                    yield self.sim.timeout(decode_ps)
                    self.decoder.release(engine)
                    if span is not None:
                        span.mark("ecc_decode", self.sim.now)
                    if t0 >= 0:
                        _obs.record_span(self.path(), "ecc_decode", t0,
                                         self.sim.now)
            finally:
                self.sram.release(slot)

            if plan is None or not plan.config.bit_errors:
                break
            t = self.ecc.correction_for(pe)
            errors = die.draw_read_errors(
                address, self.ecc.codeword_bits(),
                self.ecc.codewords_per_page(self.geometry.page_bytes),
                attempt)
            if errors <= t:
                if attempt:
                    self.stats.counter("read_retry_success").increment()
                elif errors and command is not None:
                    command.masked_page_reads += 1
                break
            if attempt >= plan.config.read_retry_max:
                self.stats.counter("uncorrectable_reads").increment()
                raise UncorrectableReadError(
                    f"{self.path()}: way{way} die{die_index} {address} "
                    f"uncorrectable after {attempt} retries "
                    f"({errors} errors > t={t})",
                    address=address, errors=errors, t=t, retries=attempt)
            attempt += 1
            self.stats.counter("read_retries").increment()
            if command is not None:
                command.read_retries += 1
        self.stats.counter("reads").increment()
        self.stats.meter("read_data").record(self.geometry.page_bytes)
        return self.sim.now - start

    def program_page_cached(self, way: int, die_index: int,
                            address: PageAddress):
        """Cache-program variant: the data-in transfer of this page may
        overlap the previous page's array program on the same die (the
        ONFI cache-register pipeline).  The array itself still serializes;
        only the bus transfer is hidden.
        """
        die = self.die(way, die_index)
        start = self.sim.now
        yield from self._translate()

        slot = self.sram.acquire()
        yield slot
        try:
            pe = die.pe_cycles(address.plane, address.block)
            encode_ps = self.ecc.encode_time_ps(self.geometry.page_bytes, pe)
            if encode_ps:
                engine = self.encoder.acquire()
                yield engine
                yield self.sim.timeout(encode_ps)
                self.encoder.release(engine)
            # Transfer into the cache register without waiting for the
            # array: the bus FIFO keeps same-die transfers ordered, and
            # the R/B# lock below keeps array programs ordered.
            yield from self.buses.issue_command(way)
            yield from self.buses.transfer(way, self.geometry.raw_page_bytes)
            ready = self._die_locks[way][die_index].acquire()
            yield ready
        finally:
            self.sram.release(slot)
        try:
            yield self.sim.process(die.program(address))
        finally:
            self._die_locks[way][die_index].release(ready)
        self.stats.counter("programs").increment()
        self.stats.counter("cached_programs").increment()
        self.stats.meter("write_data").record(self.geometry.page_bytes)
        return self.sim.now - start

    def program_page_multiplane(self, way: int, die_index: int,
                                addresses):
        """Multi-plane program: one data-in transfer per plane, then a
        single interleaved array operation covering all planes."""
        die = self.die(way, die_index)
        start = self.sim.now
        yield from self._translate()

        slot = self.sram.acquire()
        yield slot
        try:
            encode_total = 0
            for address in addresses:
                pe = die.pe_cycles(address.plane, address.block)
                encode_total += self.ecc.encode_time_ps(
                    self.geometry.page_bytes, pe)
            if encode_total:
                engine = self.encoder.acquire()
                yield engine
                yield self.sim.timeout(encode_total)
                self.encoder.release(engine)
            ready = self._die_locks[way][die_index].acquire()
            yield ready
            for __ in addresses:
                yield from self.buses.issue_command(way)
                yield from self.buses.transfer(
                    way, self.geometry.raw_page_bytes)
        finally:
            self.sram.release(slot)
        try:
            yield self.sim.process(die.program_multiplane(addresses))
        finally:
            self._die_locks[way][die_index].release(ready)
        self.stats.counter("programs").increment(len(addresses))
        self.stats.meter("write_data").record(
            self.geometry.page_bytes * len(addresses))
        return self.sim.now - start

    def read_page_multiplane(self, way: int, die_index: int, addresses,
                             errors_present: bool = True):
        """Multi-plane read: one array sense, then per-plane data-out and
        decode."""
        die = self.die(way, die_index)
        start = self.sim.now
        yield from self._translate()

        ready = self._die_locks[way][die_index].acquire()
        yield ready
        try:
            yield from self.buses.issue_command(way)
            yield self.sim.process(die.read_multiplane(addresses))
        finally:
            self._die_locks[way][die_index].release(ready)

        slot = self.sram.acquire()
        yield slot
        try:
            for address in addresses:
                yield from self.buses.transfer(
                    way, self.geometry.raw_page_bytes)
                pe = die.pe_cycles(address.plane, address.block)
                decode_ps = self.ecc.decode_time_ps(
                    self.geometry.page_bytes, pe, errors_present)
                if decode_ps:
                    engine = self.decoder.acquire()
                    yield engine
                    yield self.sim.timeout(decode_ps)
                    self.decoder.release(engine)
        finally:
            self.sram.release(slot)
        self.stats.counter("reads").increment(len(addresses))
        self.stats.meter("read_data").record(
            self.geometry.page_bytes * len(addresses))
        return self.sim.now - start

    def erase_block(self, way: int, die_index: int, plane: int, block: int):
        """Generator: block erase; returns elapsed ps."""
        if self._fast:
            return (yield from self._erase_block_fast(way, die_index,
                                                      plane, block))
        die = self.die(way, die_index)
        start = self.sim.now
        yield from self._translate()
        ready = self._die_locks[way][die_index].acquire()
        yield ready
        try:
            yield from self.buses.issue_command(way)
            yield self.sim.process(die.erase(plane, block))
        finally:
            self._die_locks[way][die_index].release(ready)
        if die.fault_plan is not None and die.last_erase_failed:
            # The die already retired the block; the caller consults the
            # spare pool (see SsdDevice._note_grown_bad).
            self.stats.counter("erase_fail_reports").increment()
        self.stats.counter("erases").increment()
        return self.sim.now - start

    # ------------------------------------------------------------------
    # Fast-fidelity page operations (closed-form NAND op timing)
    #
    # The same physical sequence as the cycle-accurate chains above, but
    # command issue + overheads + data train collapse into one bus
    # tenure, translate + ECC encode into one prep timeout, and the die
    # generators run inline (`yield from`) instead of as sub-processes.
    # Die exclusivity (R/B#), bus contention and the decoder engine —
    # the three contention points that shape throughput — keep their
    # Resources, so saturation behavior matches the golden model; the
    # SRAM staging slots and encoder engine are dropped (their service
    # times are ~7% and ~0.4% of a page's bus time respectively).
    # ------------------------------------------------------------------
    def _program_page_fast(self, way: int, die_index: int,
                           address: PageAddress):
        die = self.die(way, die_index)
        timing = self.buses.timing
        start = self.sim.now
        pe = die.pe_cycles(address.plane, address.block)
        prep = (self.clock.cycles(self.translator_cycles)
                + self.ecc.encode_time_ps(self.geometry.page_bytes, pe)
                + self._fast_overhead_ps)
        yield self.sim.timeout(prep)
        ready = self._die_locks[way][die_index].acquire()
        yield ready
        try:
            yield from self.buses.tenure(
                way, timing.effective_page_time(self.geometry.raw_page_bytes))
            yield from die.program(address)
        finally:
            self._die_locks[way][die_index].release(ready)
        self.stats.counter("programs").increment()
        self.stats.meter("write_data").record(self.geometry.page_bytes)
        return self.sim.now - start

    def _read_page_fast(self, way: int, die_index: int, address: PageAddress,
                        errors_present: bool = True):
        die = self.die(way, die_index)
        timing = self.buses.timing
        start = self.sim.now
        prep = (self.clock.cycles(self.translator_cycles)
                + self._fast_overhead_ps)
        yield self.sim.timeout(prep)
        ready = self._die_locks[way][die_index].acquire()
        yield ready
        try:
            yield from self.buses.tenure(way, timing.command_time()
                                         + timing.overhead_ps)
            yield from die.read(address)
        finally:
            self._die_locks[way][die_index].release(ready)
        yield from self.buses.tenure(
            way, timing.data_time(self.geometry.raw_page_bytes))
        pe = die.pe_cycles(address.plane, address.block)
        decode_ps = self.ecc.decode_time_ps(self.geometry.page_bytes, pe,
                                            errors_present)
        if decode_ps:
            # The decoder regularly exceeds the page's bus time under
            # adaptive BCH at high wear, so its engine contention stays
            # a real Resource even at fast fidelity (it shapes Fig. 5).
            engine = self.decoder.acquire()
            yield engine
            yield self.sim.timeout(decode_ps)
            self.decoder.release(engine)
        self.stats.counter("reads").increment()
        self.stats.meter("read_data").record(self.geometry.page_bytes)
        return self.sim.now - start

    def _erase_block_fast(self, way: int, die_index: int, plane: int,
                          block: int):
        die = self.die(way, die_index)
        timing = self.buses.timing
        start = self.sim.now
        yield self.sim.timeout(self.clock.cycles(self.translator_cycles)
                               + self._fast_overhead_ps)
        ready = self._die_locks[way][die_index].acquire()
        yield ready
        try:
            yield from self.buses.tenure(way, timing.command_time()
                                         + timing.overhead_ps)
            yield from die.erase(plane, block)
        finally:
            self._die_locks[way][die_index].release(ready)
        self.stats.counter("erases").increment()
        return self.sim.now - start

    # ------------------------------------------------------------------
    def mean_die_utilization(self) -> float:
        total = sum(die.utilization()
                    for way in self.dies for die in way)
        return total / self.total_dies
