"""The package's public surface."""

import cpfde


def test_every_export_resolves():
    missing = [name for name in cpfde.__all__ if not hasattr(cpfde, name)]
    assert not missing, f"cpfde.__all__ names missing from the package: {missing}"
