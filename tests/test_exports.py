"""The package's export list names only what the package provides, once."""

import relpose


def test_every_export_resolves():
    missing = [name for name in relpose.__all__ if not hasattr(relpose, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(set(relpose.__all__)) == len(relpose.__all__)

