"""Package surface: the names fdl exports."""

import fdl


def test_every_exported_name_resolves():
    missing = [name for name in fdl.__all__ if not hasattr(fdl, name)]
    assert not missing
