"""Public names that load their defining module on first access (PEP 562).

A package lists which of its submodules defines each public name; the
submodule is imported when one of its names is first looked up on the
package, and the name is then cached in the package namespace, so every
later lookup is a plain attribute hit. `from riskbench.sim import simulate`
works as with an eager import, while a command that never touches the
simulator never compiles or runs it.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, modules: dict):
    """`__getattr__`, `__dir__` and the list of exported names for the
    module whose globals are `namespace`; `modules` maps a module path,
    relative to that module's package, to the public names it defines."""
    where = {name: module for module, names in modules.items()
             for name in names}
    anchor = namespace["__package__"]

    def __getattr__(name):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(f"module {namespace['__name__']!r} has no "
                                 f"attribute {name!r}") from None
        value = getattr(importlib.import_module(module, anchor), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__, list(where)
