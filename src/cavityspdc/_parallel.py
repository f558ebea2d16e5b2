"""The package's one parallel idiom: independent blocks on a per-call thread pool.

numpy's ufuncs and FFTs release the GIL on large arrays, so blocks of array
work overlap on threads.  Each caller's blocks are independent: a block
either returns its own result or writes a disjoint slice of one
preallocated output, so a result never depends on the thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def map_blocks(threads, fn, items):
    """[fn(item) for item in items] for a list of items, on min(threads, len(items)) threads.

    The pool lives for this call only.  Results keep the order of items; the
    error of the first failing block in that order re-raises here, and
    blocks not yet started are cancelled.
    """
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
