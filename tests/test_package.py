"""Checks on the package's public surface."""

import momentcurve


def test_all_names_resolve():
    # A name left in __all__ after its definition is deleted breaks only
    # `from momentcurve import *`, which nothing else in the suite runs.
    missing = [name for name in momentcurve.__all__ if not hasattr(momentcurve, name)]
    assert missing == []
