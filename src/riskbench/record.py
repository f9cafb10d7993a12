"""Immutable value types whose methods are written once, on one base.

Every value type in riskbench (a model element, a scenario group, a
search config, a verdict, a tree node, a rule) is a record: a class
that derives from `Record` and declares annotated fields, as a
dataclass does. It behaves as `@dataclass(frozen=True)` would make it:

- the constructor takes the fields positionally or by keyword, fills
  defaults, calls each `default_factory`, then `__post_init__` if the
  class has one, and raises TypeError on a missing, unknown or
  duplicate argument;
- `repr` reads ``Name(field=value, ...)`` over the `repr=True` fields;
- `==` and `hash` use the tuple of `compare=True` fields, and `==`
  holds only between instances of the same class;
- assigning or deleting an attribute raises FrozenInstanceError.

Why not `@dataclass(frozen=True)`: it writes those six methods as
source text for each class and compiles them, about a millisecond per
class, and a command loads 20 to 33 record classes before it does any
work. Here the methods are compiled once, with this module, and read
each class's field table, which `__init_subclass__` takes once.

A record class is still a dataclass. `__init_subclass__` runs
`dataclasses.dataclass` with no method generated, which builds the
field table, so `fields`, `replace`, `asdict` and `is_dataclass` work
as before, and `field(default=..., default_factory=..., compare=...,
repr=...)` keeps its meaning. Pickling and `copy` restore an instance's
attributes directly, as for a frozen dataclass. A record class without
a docstring gets dataclass's generated one, ``Name(*args, **kwargs)``,
since all records share one constructor signature.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError


class Record:
    """Base of riskbench's frozen value types; see the module docstring."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        table = dataclasses.fields(cls)
        cls._record_names = tuple(f.name for f in table)
        cls._record_name_set = frozenset(cls._record_names)
        cls._record_defaults = {f.name: f.default for f in table
                                if f.default is not MISSING}
        cls._record_factories = {f.name: f.default_factory for f in table
                                 if f.default_factory is not MISSING}
        cls._record_compared = tuple(f.name for f in table if f.compare)
        cls._record_shown = tuple(f.name for f in table if f.repr)
        cls._record_post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._record_names
        if not kwargs and len(args) == len(names):
            self.__dict__.update(zip(names, args))
        elif not args and kwargs.keys() == cls._record_name_set:
            # Every field by keyword, as `dataclasses.replace` passes them.
            self.__dict__.update([(name, kwargs[name]) for name in names])
        else:
            self.__dict__.update(cls._record_bind(args, kwargs))
        if cls._record_post_init:
            self.__post_init__()

    @classmethod
    def _record_bind(cls, args, kwargs) -> dict:
        """Each field's value, in field order, from constructor arguments."""
        names = cls._record_names
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in given:
                raise TypeError(f"{cls.__qualname__}() got multiple values "
                                f"for argument {name!r}")
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected "
                                f"keyword argument {name!r}")
            given[name] = value
        values = {}
        for name in names:
            if name in given:
                values[name] = given[name]
            elif name in cls._record_defaults:
                values[name] = cls._record_defaults[name]
            elif name in cls._record_factories:
                values[name] = cls._record_factories[name]()
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required "
                            f"arguments: {', '.join(map(repr, missing))}")
        return values

    def _record_key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._record_compared])

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}"
                           for name in self._record_shown])
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._record_key() == other._record_key()

    def __hash__(self):
        return hash(self._record_key())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
