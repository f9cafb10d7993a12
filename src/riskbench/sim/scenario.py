"""Scenario configuration: the concrete cell a simulation runs.

A scenario is a nested, immutable record mirrored one-to-one by the
key-value scenario file format (``belt.speed = 0.1`` and so on). Feature
bindings address fields through the same dotted paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from typing import Callable, NamedTuple

from ..errors import BindingError, ConfigError, DomainError
from ..kvdoc import parse_bool, parse_float, parse_int, parse_point, read_kv, write_kv

MODE_SSM = "ssm"
MODE_MONITORED_STOP = "monitored_stop"


@dataclass(frozen=True)
class BeltConfig:
    start: tuple[float, float] = (-0.45, 0.80)
    end: tuple[float, float] = (0.51, 0.80)
    speed: float = 0.1            # m/s along start->end
    spawn_interval: float = 3.0   # s between objects entering at start
    object_count: int = 3


@dataclass(frozen=True)
class ArmConfig:
    base: tuple[float, float] = (0.0, 0.0)
    link1: float = 0.55
    link2: float = 0.45
    max_speed: float = 1.2        # m/s cap on any arm point
    brake_decel: float = 2.0      # m/s^2, also the acceleration limit
    pick_radius: float = 0.07
    bin: tuple[float, float] = (-0.65, 0.35)


@dataclass(frozen=True)
class OperatorConfig:
    start: tuple[float, float] = (0.0, 1.62)  # torso position, fixed
    hand_intrusion: float = 0.40  # m the hand reaches toward the belt
    hand_speed: float = 0.9       # m/s of the hand along its path
    approach_time: float = 0.8    # s before the first reach begins


@dataclass(frozen=True)
class CameraConfig:
    # Offset from the cell midline so the arm base stays out of the
    # camera-to-operator sight line when the arm is parked.
    position: tuple[float, float] = (0.9, -1.4)
    yaw: float = 1.5708           # rad, view direction
    fov_half_angle: float = 1.05  # rad


@dataclass(frozen=True)
class EnvironmentConfig:
    illuminance: float = 5000.0   # lux
    contrast: float = 0.85        # 0..1 operator/background contrast


@dataclass(frozen=True)
class ControllerConfig:
    mode: str = MODE_SSM
    reaction_time: float = 0.1        # s, T_r
    assumed_human_speed: float = 1.6  # m/s, v_h in the separation formula
    min_clearance: float = 0.1        # m, C term


@dataclass(frozen=True)
class PerceptionConfig:
    p_base: float = 0.99
    e_min: float = 100.0          # lux floor: no detection at or below
    e_sat: float = 1000.0         # lux where the illuminance gate saturates
    contrast_exponent: float = 0.5
    miss_horizon: int = 5         # steps a stale hand fix is still trusted
    ignore_occlusion: bool = False


@dataclass(frozen=True)
class Scenario:
    duration: float = 8.0
    dt: float = 0.02
    belt: BeltConfig = field(default_factory=BeltConfig)
    arm: ArmConfig = field(default_factory=ArmConfig)
    operator: OperatorConfig = field(default_factory=OperatorConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    environment: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)


# -- the field table ---------------------------------------------------------

# Every number and point coordinate must be finite; these fields must be
# more. A non-braking arm (brake_decel 0) is not assurable.
_POSITIVE = ("belt.spawn_interval", "arm.max_speed", "arm.brake_decel",
             "arm.pick_radius", "operator.hand_speed", "perception.e_min",
             "perception.e_sat")
_NON_NEGATIVE = ("belt.speed", "operator.hand_intrusion",
                 "operator.approach_time", "environment.illuminance",
                 "controller.reaction_time", "controller.assumed_human_speed",
                 "controller.min_clearance", "perception.contrast_exponent",
                 "perception.miss_horizon")
_DOMAINS = {
    **dict.fromkeys(_POSITIVE, {"lo": 0.0, "lo_open": True}),
    **dict.fromkeys(_NON_NEGATIVE, {"lo": 0.0}),
    # One domain for both, so an episode has at most 10^5 steps.
    **dict.fromkeys(("duration", "dt"), {"lo": 1e-3, "hi": 100.0}),
    # Metres. A link of 1e308 m overflows the safety margin to inf, which
    # would read as a compliant cell.
    **dict.fromkeys(("arm.link1", "arm.link2"),
                    {"lo": 0.0, "hi": 10.0, "lo_open": True}),
    # An episode keeps five lists of this length; the shipped cells use 3.
    "belt.object_count": {"lo": 0.0, "hi": 100.0},
    "environment.contrast": {"lo": 0.0, "hi": 1.0},
    "perception.p_base": {"lo": 0.0, "hi": 1.0},
    "camera.fov_half_angle": {"lo": 0.0, "hi": math.pi, "lo_open": True},
    "controller.mode": {"choices": (MODE_SSM, MODE_MONITORED_STOP)},
}


@dataclass(frozen=True)
class ScenarioField:
    """A scenario field's dotted path, the type of its default, its domain.

    Numbers and point coordinates must be finite and in [lo, hi], or in
    (lo, hi] when `lo_open`; a string must be one of `choices`.
    """

    path: str
    type: type
    get: Callable = field(repr=False, compare=False)  # scenario -> value
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    choices: tuple[str, ...] = ()

    def check(self, value) -> None:
        """Raise DomainError unless `value` lies in this field's domain."""
        if self.choices:
            if value not in self.choices:
                raise DomainError(f"unknown {self.path} {value!r}")
            return
        for v in value if self.type is tuple else (value,):
            if not math.isfinite(v):
                raise DomainError(f"{self.path} must be finite, got {value!r}")
            if not ((self.lo < v if self.lo_open else self.lo <= v)
                    and v <= self.hi):
                left = "(" if self.lo_open else "["
                right = "]" if self.hi < math.inf else ")"
                raise DomainError(f"{self.path} outside {left}{self.lo:g}, "
                                  f"{self.hi:g}{right}: {value!r}")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _point(value):
    try:
        x, y = value
        return (float(x), float(y))
    except (TypeError, ValueError):
        return None


class _Type(NamedTuple):
    noun: str
    text: Callable    # value -> file text
    parse: Callable   # (key, file text) -> value, or ConfigError
    coerce: Callable  # binding value -> value, or None when it does not fit


_TYPES = {
    float: _Type("a number", repr, parse_float,
                 lambda v: float(v) if _number(v) else None),
    int: _Type("an integer", str, parse_int,
               lambda v: int(v) if _number(v) and (
                   isinstance(v, int) or v.is_integer()) else None),
    bool: _Type("a boolean", lambda v: "true" if v else "false", parse_bool,
                lambda v: v if isinstance(v, bool) else None),
    str: _Type("a string", str, lambda key, raw: raw,
               lambda v: v if isinstance(v, str) else None),
    tuple: _Type("a point", lambda p: f"{p[0]!r}, {p[1]!r}", parse_point,
                 _point),
}


def _leaves(obj, prefix=""):
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{f.name}.")
        else:
            yield prefix + f.name, value


SCENARIO_FIELDS = {
    path: ScenarioField(path, type(default), attrgetter(path),
                        **_DOMAINS.get(path, {}))
    for path, default in _leaves(Scenario())}


def validate_scenario(scenario: Scenario) -> None:
    """Raise DomainError on the first violated scenario invariant."""
    for f in SCENARIO_FIELDS.values():
        f.check(f.get(scenario))
    s = scenario
    if not (s.duration >= s.dt):
        raise DomainError(f"duration {s.duration} shorter than one step {s.dt}")
    if s.belt.start == s.belt.end:
        raise DomainError("belt start equals belt end")
    if not (s.perception.e_min < s.perception.e_sat):
        raise DomainError(
            f"need e_min < e_sat, got {s.perception.e_min}, {s.perception.e_sat}")


def _field(path: str) -> ScenarioField:
    try:
        return SCENARIO_FIELDS[path]
    except KeyError:
        raise BindingError(f"no scenario field at path {path!r}") from None


def _replaced(scenario: Scenario, path: str, value) -> Scenario:
    group, _, name = path.rpartition(".")
    if group:
        name, value = group, replace(getattr(scenario, group), **{name: value})
    return replace(scenario, **{name: value})


def scenario_with(scenario: Scenario, path: str, value) -> Scenario:
    """Return a scenario with the field at `path` replaced by `value`.

    The value is coerced to the field's type; incompatible values raise
    BindingError.
    """
    kind = _TYPES[_field(path).type]
    coerced = kind.coerce(value)
    if coerced is None:
        raise BindingError(f"{path}: expected {kind.noun}, got {value!r}")
    return _replaced(scenario, path, coerced)


def bind_assignment(scenario: Scenario, model, assignment: dict) -> Scenario:
    """Apply a feature assignment to a scenario through the model bindings.

    Every assigned feature must exist in the model and the value must lie
    in its declared domain; otherwise UnknownNameError/DomainError.
    """
    bound = scenario
    for name, value in assignment.items():
        feature = model.feature(name)  # raises UnknownNameError
        if not feature.contains(value):
            raise DomainError(
                f"value {value!r} outside domain of feature {name!r}")
        bound = scenario_with(bound, feature.binding, value)
    return bound


# -- file format --------------------------------------------------------------


def load_scenario(text: str, source: str = "<string>") -> Scenario:
    """Build a scenario from key-value text; unspecified keys keep defaults.

    Unknown keys raise ConfigError so typos cannot silently change nothing;
    values outside their field's domain raise DomainError.
    """
    scenario = Scenario()
    for key, raw in read_kv(text, source).items():
        f = SCENARIO_FIELDS.get(key)
        if f is None:
            raise ConfigError(f"{source}: no scenario field at path {key!r}")
        scenario = _replaced(scenario, key, _TYPES[f.type].parse(key, raw))
    validate_scenario(scenario)
    return scenario


def dump_scenario(scenario: Scenario) -> str:
    """Emit every field in the key-value format, defaults included."""
    return write_kv({path: _TYPES[f.type].text(f.get(scenario))
                     for path, f in SCENARIO_FIELDS.items()})
