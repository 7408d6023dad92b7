"""The package's export list matches what the package exposes, so a name
removed from a module cannot linger in ``__all__`` and a name added to the
package namespace cannot go unlisted."""

import inspect

import qmeter


def test_every_exported_name_resolves_once():
    assert len(qmeter.__all__) == len(set(qmeter.__all__))
    missing = [name for name in qmeter.__all__ if not hasattr(qmeter, name)]
    assert missing == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(qmeter).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - {"__version__"} - set(qmeter.__all__) == set()
