"""VL004 planted-defect fixture: mirrored signatures that drifted apart.

The block writer grew a ``size`` check after ``chroma`` while its reader
takes ``size`` before ``chroma``.  Every caller passes ``chroma`` by
keyword, so nothing misbehaves yet; a positional call written from one
signature against the other would swap the two.  Planted in
``cabac.py``, this failed no tier-1 test, smoke, paper figure or
benchmark smoke.

Linted by tests/test_vlint.py, never imported or executed.
"""


class BlockEncoder:
    def encode_blocks(self, levels, chroma=False, size=0):
        return levels, chroma, size


class BlockDecoder:
    def decode_blocks(self, n_blocks, size, chroma=False):  # VL004: order
        return n_blocks, size, chroma
