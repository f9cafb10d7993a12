"""Scenario configuration: the concrete cell a simulation runs.

A scenario is a nested, immutable record mirrored one-to-one by the
key-value scenario file format (``belt.speed = 0.1`` and so on). Feature
bindings address fields through the same dotted paths.
"""

from __future__ import annotations

import math
from dataclasses import field, replace

from ..errors import BindingError, ConfigError, DomainError
from ..kvdoc import _TYPES, Field, field_table, read_kv, write_kv
from ..record import Record
from ..riskml.model import CATEGORICAL, CONTINUOUS, INTEGER

MODE_SSM = "ssm"
MODE_MONITORED_STOP = "monitored_stop"
# The simulator seed of `run`, `replay` and a campaign given none. No seed
# is negative: random.Random(-s) seeds exactly as random.Random(s) does.
DEFAULT_SIM_SEED = 11
SIM_SEED_FIELD = Field("sim_seed", int, lo=0)


class BeltConfig(Record):
    start: tuple[float, float] = (-0.45, 0.80)
    end: tuple[float, float] = (0.51, 0.80)
    speed: float = 0.1            # m/s along start->end
    spawn_interval: float = 3.0   # s between objects entering at start
    object_count: int = 3


class ArmConfig(Record):
    base: tuple[float, float] = (0.0, 0.0)
    link1: float = 0.55
    link2: float = 0.45
    max_speed: float = 1.2        # m/s cap on any arm point
    brake_decel: float = 2.0      # m/s^2, also the acceleration limit
    pick_radius: float = 0.07
    bin: tuple[float, float] = (-0.65, 0.35)


class OperatorConfig(Record):
    start: tuple[float, float] = (0.0, 1.62)  # torso position, fixed
    hand_intrusion: float = 0.40  # m the hand reaches toward the belt
    hand_speed: float = 0.9       # m/s of the hand along its path
    approach_time: float = 0.8    # s before the first reach begins


class CameraConfig(Record):
    # Offset from the cell midline so the arm base stays out of the
    # camera-to-operator sight line when the arm is parked.
    position: tuple[float, float] = (0.9, -1.4)
    yaw: float = 1.5708           # rad, view direction
    fov_half_angle: float = 1.05  # rad


class EnvironmentConfig(Record):
    illuminance: float = 5000.0   # lux
    contrast: float = 0.85        # 0..1 operator/background contrast


class ControllerConfig(Record):
    mode: str = MODE_SSM
    reaction_time: float = 0.1        # s, T_r
    assumed_human_speed: float = 1.6  # m/s, v_h in the separation formula
    min_clearance: float = 0.1        # m, C term


class PerceptionConfig(Record):
    p_base: float = 0.99
    e_min: float = 100.0          # lux floor: no detection at or below
    e_sat: float = 1000.0         # lux where the illuminance gate saturates
    contrast_exponent: float = 0.5
    miss_horizon: int = 5         # steps a stale hand fix is still trusted
    ignore_occlusion: bool = False


class Scenario(Record):
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
# more, and each has a physical ceiling (path -> hi). A non-braking arm
# (brake_decel 0) is not assurable.
_POSITIVE = {"belt.spawn_interval": 100.0, "arm.brake_decel": 100.0,
             "arm.pick_radius": 1.0, "perception.e_min": 1e5,
             "perception.e_sat": 1e5}
_NON_NEGATIVE = {"operator.hand_intrusion": 1.0,
                 "operator.approach_time": 100.0,
                 "environment.illuminance": 1e5,
                 "controller.min_clearance": 10.0,
                 "perception.contrast_exponent": 10.0}
_POINTS = ("belt.start", "belt.end", "arm.base", "arm.bin", "operator.start",
           "camera.position")
_DOMAINS = {
    # Ceilings far past any cell, so that an absurd finite value is
    # refused instead of judged: an arm that stops at once (brake_decel
    # 1e308) or an operator who never reaches in (approach_time 1e308)
    # makes any cell compliant. Times in seconds, up to the longest
    # episode; decelerations in m/s^2 (10 g); a pick radius and a hand's
    # reach in metres, under an arm's length; a clearance in metres, like
    # a link; light in lux (direct sunlight is about 1e5); a contrast
    # exponent 20 times the shipped 0.5.
    **{path: {"lo": 0.0, "lo_open": True, "hi": hi}
       for path, hi in _POSITIVE.items()},
    **{path: {"lo": 0.0, "hi": hi} for path, hi in _NON_NEGATIVE.items()},
    # Steps. No episode is longer than 10^5 steps (duration and dt below),
    # and a horizon that long already trusts a lost hand fix to the end.
    "perception.miss_horizon": {"lo": 0.0, "hi": 1e5},
    # Physical ceilings, far past any cell: metres from the cell origin,
    # metres per second (a person walks at about 1.6), and seconds to
    # react. An arm based 1e308 m away never nears the operator, and a
    # reaction time of 1e6 s is no controller; neither is a cell to judge.
    **dict.fromkeys(_POINTS, {"lo": -100.0, "hi": 100.0}),
    **dict.fromkeys(("belt.speed", "controller.assumed_human_speed",
                     "controller.reaction_time"), {"lo": 0.0, "hi": 10.0}),
    **dict.fromkeys(("arm.max_speed", "operator.hand_speed"),
                    {"lo": 0.0, "hi": 10.0, "lo_open": True}),
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


SCENARIO_FIELDS = field_table(Scenario(), _DOMAINS)


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


def _field(path: str) -> Field:
    try:
        return SCENARIO_FIELDS[path]
    except KeyError:
        raise BindingError(f"no scenario field at path {path!r}") from None


def _replaced(scenario: Scenario, values: dict) -> Scenario:
    """Copy the scenario with each path set, one `replace` per group."""
    top, groups = {}, {}
    for path, value in values.items():
        group, _, name = path.rpartition(".")
        (groups.setdefault(group, {}) if group else top)[name] = value
    for group, changes in groups.items():
        top[group] = replace(getattr(scenario, group), **changes)
    return replace(scenario, **top)


def _coerced(path: str, value):
    kind = _TYPES[_field(path).type]
    coerced = kind.coerce(value)
    if coerced is None:
        raise BindingError(f"{path}: expected {kind.noun}, got {value!r}")
    return coerced


def scenario_with(scenario: Scenario, path: str, value) -> Scenario:
    """Return a scenario with the field at `path` replaced by `value`,
    coerced to the field's type; incompatible values raise BindingError."""
    return _replaced(scenario, {path: _coerced(path, value)})


# The field types that can hold every value of a feature of each kind.
_FITS = {CONTINUOUS: (float,), INTEGER: (float, int), CATEGORICAL: (str,)}


def check_bindings(model) -> list[str]:
    """A line per feature that binds no field, a field its values do not
    fit, or a field whose domain leaves out an end or category."""
    problems = []
    for feature in model.features:
        try:
            f = _field(feature.binding)
            if f.type not in _FITS.get(feature.kind, ()):
                raise BindingError(f"{f.path} holds {_TYPES[f.type].noun}, "
                                   f"not {feature.kind} values")
            for value in (feature.values if feature.kind == CATEGORICAL
                          else (feature.lo, feature.hi)):
                f.check(value)
        except (BindingError, DomainError) as exc:
            problems.append(f"feature '{feature.name}': {exc}")
    return problems


def bind_assignment(scenario: Scenario, model, assignment: dict) -> Scenario:
    """Apply a feature assignment to a scenario through the model bindings.

    Every assigned feature must exist in the model and the value must lie
    in its declared domain; otherwise UnknownNameError/DomainError.
    """
    values = {}
    for name, value in assignment.items():
        feature = model.feature(name)  # raises UnknownNameError
        if not feature.contains(value):
            raise DomainError(
                f"value {value!r} outside domain of feature {name!r}")
        values[feature.binding] = _coerced(feature.binding, value)
    return _replaced(scenario, values)


# -- file format --------------------------------------------------------------


def load_scenario(text: str, source: str = "<string>") -> Scenario:
    """Build a scenario from key-value text; unspecified keys keep defaults.

    Unknown keys raise ConfigError so typos cannot silently change nothing;
    values outside their field's domain raise DomainError.
    """
    values = {}
    for key, raw in read_kv(text, source).items():
        f = SCENARIO_FIELDS.get(key)
        if f is None:
            raise ConfigError(f"{source}: no scenario field at path {key!r}")
        values[key] = f.parse(raw)
    scenario = _replaced(Scenario(), values)
    validate_scenario(scenario)
    return scenario


def dump_scenario(scenario: Scenario) -> str:
    """Emit every field in the key-value format, defaults included."""
    return write_kv({path: _TYPES[f.type].text(f.get(scenario))
                     for path, f in SCENARIO_FIELDS.items()})
