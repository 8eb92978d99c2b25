"""VL003 planted-defect fixture: a pool worker's write that only vlint sees.

The per-video worker records each reference in a module dict, and the
parent installs from that dict, falling back to the returned value.  In
a pool worker the write is lost, so a parallel run installs whatever an
earlier serial run in the same process left under that key.  Planted in
``core/benchmark.py``, this failed no tier-1 test, smoke, paper figure
or benchmark smoke.

Linted by tests/test_vlint.py, never imported or executed.
"""

from concurrent.futures import ProcessPoolExecutor

REFERENCES = {}


def run_video(store, video, scenario):
    reference = store.reference(video, scenario)
    REFERENCES[(video.name, scenario)] = reference  # VL003: lost in a worker
    return reference


def map_suite(suite, stores, videos, scenarios):
    with ProcessPoolExecutor() as executor:
        runs = list(executor.map(run_video, stores, videos, scenarios))
    for video, scenario, reference in zip(videos, scenarios, runs):
        key = (video.name, scenario)
        suite.install(video, scenario, REFERENCES.get(key, reference))
    return runs
