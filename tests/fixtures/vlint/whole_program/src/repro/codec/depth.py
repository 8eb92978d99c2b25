"""Fixture: a validation helper that raises outside the taxonomy.

``check_depth`` is not a decode-path function, so VL006 never reports
its raise directly.  The leak only exists transitively: a decode path in
another module calls it without catching the ``ValueError``.
"""


def check_depth(value: int) -> int:
    if value > 8:
        raise ValueError("depth too large")
    return value
