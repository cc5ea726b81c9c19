"""The package's re-exports of the front layer, resolved on first access."""

import pytest

import lagsurf
import lagsurf.fronts


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from lagsurf import *", namespace)
    for name in lagsurf.__all__:
        assert namespace[name] is getattr(lagsurf.fronts, name)


def test_dir_lists_every_name_in_all():
    assert set(lagsurf.__all__) <= set(dir(lagsurf))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lagsurf.no_such_name
    assert not hasattr(lagsurf, "reeb_pushoff")
