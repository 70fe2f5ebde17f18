import importlib
import pkgutil

import pytest

import contrascale

# ``__main__`` runs the command line on import.
_MODULES = ["contrascale"] + [
    f"contrascale.{info.name}"
    for info in pkgutil.iter_modules(contrascale.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
