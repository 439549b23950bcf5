import types

import psihilfer


def test_every_export_resolves():
    missing = [name for name in psihilfer.__all__ if not hasattr(psihilfer, name)]
    assert not missing


def test_exports_have_no_duplicates():
    assert len(psihilfer.__all__) == len(set(psihilfer.__all__))


def test_every_public_callable_is_exported():
    # with test_every_export_resolves: __all__ and the imports of the
    # package name the same public callables, so neither keeps a name
    # the other dropped
    public = {name for name, value in vars(psihilfer).items()
              if not name.startswith("_") and callable(value)
              and not isinstance(value, types.ModuleType)}
    assert public <= set(psihilfer.__all__), sorted(public - set(psihilfer.__all__))
