"""The package's re-exports of the front layer, resolved on first access,
and its one error base."""

import importlib
import inspect
import pkgutil

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


def test_every_lagsurf_error_is_a_value_error():
    # ``cli.main`` maps ValueError to one ``error:`` line, so an error class
    # on another base would end the CLI in a traceback
    errors = [
        cls
        for info in pkgutil.iter_modules(lagsurf.__path__, "lagsurf.")
        for _, cls in inspect.getmembers(importlib.import_module(info.name), inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == info.name
    ]
    roots = {"FrontError", "SurfaceError", "ClosureMismatch", "DegenerateProjection"}
    assert roots <= {cls.__name__ for cls in errors}
    assert [cls for cls in errors if not issubclass(cls, ValueError)] == []
