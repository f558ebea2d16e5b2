"""The package's one parallel idiom: independent blocks on a per-call thread pool.

numpy's ufuncs and FFTs release the GIL on large arrays, so blocks of array
work overlap on threads.  Each caller's blocks are independent: a block
either returns its own result or writes a disjoint slice of one
preallocated output, so a result never depends on the thread count.
stream_blocks is the one pool loop: it yields the results in order with a
bounded number in flight, for a consumer that keeps none (the temporal
transform's stage two).  map_blocks collects that stream into a list.

blocks is the one blocking rule, with one sample budget for every blocked
loop: a block of rows of row_len samples (the longest row it holds or
forms; 1 for a 1-D table) holds max(1, _BLOCK_SAMPLES // row_len) of them,
so no block holds more than the budget or one row, whatever the lattice,
its padding or the thread count.  Threads set only how many blocks
stream_blocks keeps in flight, so the blocks, and with them every row's
arithmetic, are the same at any thread count.

One budget makes every block's temporaries about one size, so glibc's
dynamic mmap and trim thresholds, which follow the largest freed block,
settle below one block's live temporaries, and each worker arena is
trimmed and faulted in again after every block.  pin_allocator fixes both
thresholds; cli.main calls it, and importing the package pins nothing.
"""

from __future__ import annotations

import functools
from collections import deque
from concurrent.futures import ThreadPoolExecutor

_BLOCK_SAMPLES = 1 << 15  # samples per block of every blocked loop

# glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, and twice it: the ceilings of its dynamic rule
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def pin_allocator():
    """Fix glibc's mmap and trim thresholds at 32 and 64 MiB, once per process.

    Freed block temporaries then stay in their arena for the next block,
    while an array above 32 MiB (a temporal lattice's buffer) is still
    mapped and unmapped on its own.  mallopt goes through ctypes, imported
    here so that importing the package does not pay for it.  Returns True
    when both thresholds are pinned; elsewhere than glibc it does nothing
    and returns False.
    """
    import platform

    if platform.libc_ver()[0] != "glibc":
        return False
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    return bool(mallopt(m_mmap_threshold, _MMAP_THRESHOLD)
                and mallopt(m_trim_threshold, _TRIM_THRESHOLD))


def blocks(n_rows, row_len):
    """Slices of range(n_rows), max(1, _BLOCK_SAMPLES // row_len) rows each."""
    step = max(1, _BLOCK_SAMPLES // row_len)
    return [slice(k, min(k + step, n_rows)) for k in range(0, n_rows, step)]


def map_blocks(threads, fn, items):
    """[fn(item) for item in items] for a list of items: stream_blocks, collected.

    Results keep the order of items; the error of the first failing block in
    that order re-raises here, and blocks not yet submitted never start.
    """
    return list(stream_blocks(threads, fn, items))


def stream_blocks(threads, fn, items):
    """fn(item) for each item of a list, yielded in order: a generator.

    One pool of min(threads, len(items)) threads lives as long as the
    generator, with at most that many items in flight: the next item is
    submitted as each result is yielded, so the results alive at once are
    the ones in flight plus the one the consumer holds.  The error of the
    first failing item in order re-raises when its turn comes; closing the
    generator early waits for the items in flight.
    """
    workers = min(threads, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(fn, item) for item in items[:workers])
        for item in items[workers:]:
            result = pending.popleft().result()
            pending.append(pool.submit(fn, item))
            yield result
            del result  # the consumer's block, not kept while the next one waits
        while pending:
            yield pending.popleft().result()
