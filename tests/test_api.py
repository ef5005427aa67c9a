import importlib
import pkgutil

import geosketch


def test_star_import_and_every_all_name_resolve():
    """`from geosketch import *` binds every name of the package's
    `__all__`, and every name in `__all__` of the package and of each
    submodule (but `__main__`, which runs the CLI) resolves to an object."""
    star = {}
    exec("from geosketch import *", star)
    assert set(geosketch.__all__) <= set(star)
    mods = [geosketch] + [importlib.import_module(f"geosketch.{m.name}")
                          for m in pkgutil.iter_modules(geosketch.__path__) if m.name != "__main__"]
    assert len(mods) > 10
    for mod in mods:
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
