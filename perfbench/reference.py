"""A fixed reference workload that measures the host's current speed.

The benchmark's host is a few cores of a shared machine whose speed
drifts: a fixed pure-Python loop runs up to 1.8x slower for seconds to
minutes at a time, and process CPU time drifts with it, so this is not
scheduling. The benchmark runs this reference before the first step and
after each set-up and each pass, in the parent process, and rescales the
run's median times by ``NOMINAL_CHUNK_S`` over the median reference
time of the run.

A change to smerisk cannot move the reference: it imports nothing from
smerisk and its work is fixed. The work mimics what smerisk spends its
time on and what slows down with the host: dict lookups and sorts over a
working set of a few MB of Python objects (records, tree nodes), small
numpy arrays (argsort, cumsum and matrix-vector products, as in tree
growth and the logistic fit) and float formatting and JSON (CSV and model
files).
"""

from __future__ import annotations

import json
import random
import statistics
import time

import numpy as np

CHUNKS = 7
# A round chunk time, in seconds, within what the 2-vCPU x86_64 VM
# (Python 3.11.7, numpy 2.4.6) of the baseline in NOTES.md measured: run
# medians of 20 to 33 ms, 27 ms over 40 runs. A rescaled time reads as
# "seconds on that host while a chunk takes 25 ms".
NOMINAL_CHUNK_S = 0.025

_rng = random.Random(20241007)
_KEYS = [(_rng.random(), i) for i in range(60000)]
_INDEX = {key: i for i, key in enumerate(_KEYS)}
_ORDER = list(range(len(_KEYS)))
_rng.shuffle(_ORDER)
_np_rng = np.random.default_rng(20241007)
_BOOK = _np_rng.normal(size=(7000, 6))
_X = _BOOK[:700]
_y = (_np_rng.random(700) < 0.2).astype(float)


def _chunk() -> int:
    total = 0
    for j in _ORDER[:10000]:
        total += _INDEX[_KEYS[j]]
    nodes = [[key[0], key[1], None] for key in sorted(_KEYS[:6000])]
    for node in nodes:
        node[2] = node[0] * 2.0
    for f in range(_BOOK.shape[1]):
        order = np.argsort(_BOOK[:, f], kind="stable")
        total += int(np.cumsum(order)[-1])
    w = np.zeros(_X.shape[1])
    for _ in range(20):
        p = 1.0 / (1.0 + np.exp(-(_X @ w)))
        w -= 0.1 * (_X.T @ (p - _y)) / len(_y)
    rows = [f"{i},{node[0]:.6f},{node[2]:.6f}" for i, node in enumerate(nodes[:2000])]
    return total + len(json.loads(json.dumps({"rows": rows, "w": w.tolist()}))["rows"])


def measure() -> float:
    """Median time of one reference chunk, in seconds, now."""
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
