import importlib
import pkgutil

import ezcasp


def _modules():
    yield ezcasp
    for info in pkgutil.iter_modules(ezcasp.__path__):
        if info.name != "__main__":         # importing it runs the CLI
            yield importlib.import_module(f"ezcasp.{info.name}")


def test_every_exported_name_resolves():
    checked = set()
    for mod in _modules():
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        assert len(set(names)) == len(names), mod.__name__
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (mod.__name__, missing)
        checked.add(mod.__name__)
    assert {"ezcasp", "ezcasp.engine", "ezcasp.fd", "ezcasp.cli"} <= checked
