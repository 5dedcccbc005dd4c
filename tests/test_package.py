import dlam


def test_every_exported_name_resolves():
    assert len(set(dlam.__all__)) == len(dlam.__all__)
    missing = [name for name in dlam.__all__ if not hasattr(dlam, name)]
    assert missing == []
