"""VL001 violation fixture: every banned nondeterminism pattern.

This file is linted by tests/test_vlint.py, never imported or executed.
Its path mirrors the real package layout so the engine assigns it the
module name ``repro.codec.bad_determinism`` -- inside VL001's scope.
"""

import random
import time

import numpy as np


def unseeded_stream() -> float:
    rng = np.random.default_rng()  # VL001: unseeded
    return float(rng.uniform())


def global_random_draw() -> int:
    return random.randint(0, 10)  # VL001: global random module


def wall_clock_read() -> float:
    return time.time()  # VL001: wall clock in deterministic code


def timing_without_wall_seconds() -> float:
    start = time.perf_counter()  # VL001: wall clock in deterministic code
    return start * 2.0


def cache_key(payload: bytes, stamp: float) -> str:
    return f"{payload!r}:{stamp}"


def timing_into_cache_key(payload: bytes) -> str:
    start = time.perf_counter()  # VL001, as is the read below
    elapsed = time.perf_counter() - start
    key = cache_key(payload, elapsed)
    return key


def sanctioned_measurement(result_factory):
    # VL001 twice: once sanctioned, a clock read feeding wall_seconds=.
    start = time.perf_counter()
    return result_factory(wall_seconds=time.perf_counter() - start)
