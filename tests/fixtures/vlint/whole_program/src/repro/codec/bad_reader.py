"""Fixture: a decode path leaking a foreign exception transitively.

Every ``raise`` *in this module* follows the taxonomy, so no direct
VL006 fires.  But ``decode_header`` calls ``check_depth`` (one module
over) without a handler, so malformed input can surface as a raw
``ValueError`` -- exactly what the whole-program closure must catch.
"""

from repro.codec.depth import check_depth


def decode_header(payload):
    depth = check_depth(payload[0])
    return depth
