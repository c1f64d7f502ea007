"""Seeded MSR-Cambridge block trace generator for the benchmark.

The trace is a sequence of blocks of :data:`BLOCK_RECORDS` records.
Every block has the same composition and lasts the same time; the seed
only decides the order of the records inside each block, the gaps
between them and where the random ones land.  So every seed -- and
every prefix of whole blocks -- gives exactly the same read share, size
histogram per request type, share of sequential records and duration,
and host cost moves little from seed to seed while the simulated
outputs differ.

Composition of a block (see :data:`READ_SIZES`, :data:`WRITE_SIZES`):

* 14 reads and 6 writes (70% reads), 4-64 KiB;
* half the records continue where the previous one ended (sequential),
  half start at a uniformly random 4 KiB-aligned offset;
* exponential gaps between arrivals, rescaled so each block lasts
  exactly its share of ``duration_us`` -- a low rate, so the device
  idles most of the time.

MSR traces carry a measured response time per record.  A generated
trace has none, so the column holds a nominal service time (fixed part
plus a per-byte part); the implied queue depth that
``repro.host.traces.characterize`` derives from it is therefore nominal.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: (size in KiB, count) of the reads and of the writes in one block.
READ_SIZES = ((4, 6), (8, 3), (16, 2), (32, 2), (64, 1))
WRITE_SIZES = ((4, 2), (8, 1), (16, 1), (32, 1), (64, 1))
BLOCK_RECORDS = sum(count for __, count in READ_SIZES + WRITE_SIZES)

#: Offsets of random records fall in [0, SPAN_BYTES); the replay wraps
#: them onto the simulated device's capacity.
SPAN_BYTES = 1 << 30

#: Windows filetime of the first record (100 ns ticks), any fixed epoch.
_EPOCH_TICKS = 128166372000000000
_TICKS_PER_US = 10

#: Nominal service time written to the ResponseTime column.
_NOMINAL_SERVICE_US = 50
_NOMINAL_BYTES_PER_US = 200

HEADER = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"


def _block(rng: random.Random) -> List[Tuple[bool, int, bool]]:
    """One block's records as (is_read, size_bytes, is_sequential)."""
    kinds = [(True, kib * 1024) for kib, count in READ_SIZES
             for __ in range(count)]
    kinds += [(False, kib * 1024) for kib, count in WRITE_SIZES
              for __ in range(count)]
    rng.shuffle(kinds)
    half = BLOCK_RECORDS // 2
    sequential = [True] * half + [False] * (BLOCK_RECORDS - half)
    rng.shuffle(sequential)
    return [(is_read, size, seq)
            for (is_read, size), seq in zip(kinds, sequential)]


def generate_lines(seed: int, records: int, duration_us: int) -> List[str]:
    """The trace as MSR CSV lines (header first).

    ``records`` must be a whole number of blocks; the last record of
    block ``k`` issues at ``(k + 1) / blocks`` of ``duration_us``.
    """
    if records < BLOCK_RECORDS or records % BLOCK_RECORDS:
        raise ValueError(f"records must be a positive multiple of "
                         f"{BLOCK_RECORDS}, got {records}")
    if duration_us < 1:
        raise ValueError(f"duration_us must be >= 1, got {duration_us}")
    rng = random.Random(seed)
    blocks = records // BLOCK_RECORDS
    block_ticks = duration_us * _TICKS_PER_US / blocks
    lines = [HEADER]
    next_offset = 0
    for block in range(blocks):
        # The first record of the trace issues at t=0; every later one
        # after a gap, the gaps of a block summing to block_ticks.
        gaps = [rng.expovariate(1.0) for __ in range(BLOCK_RECORDS)]
        if block == 0:
            gaps[0] = 0.0
        scale = block_ticks / sum(gaps)
        elapsed = block * block_ticks
        for (is_read, size, sequential), gap in zip(_block(rng), gaps):
            elapsed += gap * scale
            offset = next_offset if sequential else \
                rng.randrange(SPAN_BYTES // 4096) * 4096
            if offset + size > SPAN_BYTES:
                offset = 0
            next_offset = offset + size
            kind = "Read" if is_read else "Write"
            service_ticks = (_NOMINAL_SERVICE_US
                             + size // _NOMINAL_BYTES_PER_US) * _TICKS_PER_US
            lines.append(f"{_EPOCH_TICKS + round(elapsed)},perfbench,0,"
                         f"{kind},{offset},{size},{service_ticks}")
    return lines


def write_trace(path: str, seed: int, records: int,
                duration_us: int) -> None:
    """Write the seeded trace to ``path`` as MSR-Cambridge CSV."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(generate_lines(seed, records, duration_us)))
        handle.write("\n")
