"""The package's public surface."""

import ionlattice


def test_every_exported_name_resolves():
    missing = [name for name in ionlattice.__all__ if not hasattr(ionlattice, name)]
    assert missing == []
    assert len(set(ionlattice.__all__)) == len(ionlattice.__all__)
