"""The package's public names: every export resolves, none is listed twice."""

from collections import Counter

import dpinv


def test_all_names_resolve():
    missing = [name for name in dpinv.__all__ if not hasattr(dpinv, name)]
    assert missing == []


def test_all_names_unique():
    repeated = [name for name, k in Counter(dpinv.__all__).items() if k > 1]
    assert repeated == []
