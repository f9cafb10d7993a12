"""Reader/writer for the structured key-value text format, and field tables.

Scenario files and campaign config files share this syntax: one `key = value`
pair per line, `#` starts a comment, keys are dotted paths. `read_kv` keeps
values as strings; a field table (`field_table`) names each key's type and
domain, and so parses, coerces, checks and formats its values.
"""

from __future__ import annotations

import math
from dataclasses import field, fields, is_dataclass
from operator import attrgetter
from typing import Callable

from .errors import ConfigError, DomainError
from .record import Record


def read_kv(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse a key-value document into an ordered mapping.

    Raises ConfigError on malformed lines or duplicate keys.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: missing key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def write_kv(entries: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


# -- field tables -------------------------------------------------------------


class Field(Record):
    """A field's dotted path, the type of its default, its domain: numbers
    and point coordinates must be finite and in [lo, hi], less a bound that
    is open; a string must be one of `choices`, if it has any."""

    path: str
    type: type
    get: Callable = field(default=None, repr=False, compare=False)  # getter
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False
    choices: tuple[str, ...] = ()

    def check(self, value) -> None:
        """Raise DomainError unless `value` lies in this field's domain."""
        if self.type is str:
            if self.choices and value not in self.choices:
                raise DomainError(f"unknown {self.path} {value!r}")
            return
        for v in value if self.type is tuple else (value,):
            # An int is exact, and may be too large for math.isfinite.
            if not (isinstance(v, int) or math.isfinite(v)):
                raise DomainError(f"{self.path} must be finite, got {value!r}")
            if not ((self.lo < v if self.lo_open else self.lo <= v)
                    and (v < self.hi if self.hi_open else v <= self.hi)):
                left = "(" if self.lo_open else "["
                right = "]" if self.hi < math.inf and not self.hi_open else ")"
                raise DomainError(f"{self.path} outside {left}{self.lo:g}, "
                                  f"{self.hi:g}{right}: {value!r}")

    def parse(self, raw: str):
        """The typed value of file text `raw`; ConfigError if it has none."""
        kind = _TYPES[self.type]
        try:
            return kind.parse(raw)
        except (ValueError, KeyError):
            raise ConfigError(f"{self.path}: expected {kind.noun}, "
                              f"got {raw!r}") from None

    def coerce(self, value):
        """JSON `value` as this field's type; DomainError unless it fits."""
        kind = _TYPES[self.type]
        coerced = kind.coerce(value)
        if coerced is None:
            raise DomainError(f"{self.path}: expected {kind.noun}, "
                              f"got {value!r}")
        self.check(coerced)
        return coerced


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value):
    try:
        return float(value) if _number(value) else None
    except OverflowError:  # an int beyond the largest float
        return None


def _point(value):
    try:
        x, y = value
        return (float(x), float(y))
    except (TypeError, ValueError, OverflowError):
        return None


def _point_text(raw: str) -> tuple[float, float]:
    x, y = raw.replace(",", " ").split()
    return (float(x), float(y))


_BOOLS = {**dict.fromkeys(("true", "on", "yes", "1"), True),
          **dict.fromkeys(("false", "off", "no", "0"), False)}


class _Type(Record):
    noun: str
    text: Callable    # value -> file text
    parse: Callable   # file text -> value, or ValueError/KeyError
    coerce: Callable  # JSON or binding value -> value, or None


_TYPES = {
    float: _Type("a number", repr, float, _float),
    int: _Type("an integer", str, int,
               lambda v: int(v) if _number(v) and (
                   isinstance(v, int) or v.is_integer()) else None),
    bool: _Type("a boolean", lambda v: "true" if v else "false",
                lambda raw: _BOOLS[raw.lower()],
                lambda v: v if isinstance(v, bool) else None),
    str: _Type("a string", str, str,
               lambda v: v if isinstance(v, str) else None),
    tuple: _Type("a point", lambda p: f"{p[0]!r}, {p[1]!r}", _point_text,
                 _point),
}


def _leaves(obj, prefix=""):
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{f.name}.")
        else:
            yield prefix + f.name, value


def field_table(record, domains: dict) -> dict[str, Field]:
    """A Field per leaf of dataclass `record`, domains from `domains`."""
    return {path: Field(path, type(default), attrgetter(path),
                        **domains.get(path, {}))
            for path, default in _leaves(record)}
