"""The package's public surface: __all__ is sorted, has no duplicates, and
every name in it resolves."""

import promptor


def test_all_is_sorted_unique_and_resolvable():
    names = promptor.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(promptor, name), name
