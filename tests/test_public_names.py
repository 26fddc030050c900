import importlib
import pkgutil

import disktransform


def test_public_names_resolve():
    """Every name in a module's __all__ exists, so removing a definition
    cannot leave a stale export behind, and the total is pinned, so a name
    added or removed shows in the diff of this test."""
    count = 0
    for info in pkgutil.iter_modules(disktransform.__path__):
        module = importlib.import_module(f"disktransform.{info.name}")
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), info.name
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (info.name, missing)
        count += len(names)
    assert count == 55
