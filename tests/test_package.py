import lumped_pid


def test_every_public_name_resolves():
    missing = [name for name in lumped_pid.__all__ if not hasattr(lumped_pid, name)]
    assert missing == []
    assert len(set(lumped_pid.__all__)) == len(lumped_pid.__all__)


def test_star_import():
    namespace = {}
    exec("from lumped_pid import *", namespace)
    assert set(lumped_pid.__all__) <= set(namespace)
