"""Simulator determinism, perception model, and event evaluation."""

import hashlib
import itertools
import math
import random
from dataclasses import fields

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from riskbench.datafiles import data_text
from riskbench.errors import ConfigError, DomainError, UnknownNameError
from riskbench.metrics import TRACE_METRIC_NAMES
from riskbench.riskml import load_model, parse_risk_model
from riskbench.search import campaign_evaluator
from riskbench.sim import (CONTACT_EPSILON, LABEL_COMPLIANCE,
                           LABEL_NON_COMPLIANCE, MODE_MONITORED_STOP,
                           TRACE_COLUMNS, Scenario, TraceMetrics,
                           bind_assignment, condition_robustness,
                           dump_scenario, evaluate_events, load_scenario,
                           protective_distance, scenario_with, simulate,
                           trace_to_csv, validate_scenario,
                           verdict_from_robustness)
from riskbench.sim.perception import (detection_probability, hand_detected,
                                      illuminance_gate, in_field_of_view,
                                      occlusion_fraction)
from riskbench.sim.scenario import _DOMAINS, _TYPES, SCENARIO_FIELDS

import reference_engine
from conftest import just_outside


def _cell(belt=0.1, lux=5000.0, intrusion=0.4, **extra):
    sc = Scenario()
    sc = scenario_with(sc, "belt.speed", belt)
    sc = scenario_with(sc, "environment.illuminance", lux)
    sc = scenario_with(sc, "operator.hand_intrusion", intrusion)
    for path, value in extra.items():
        sc = scenario_with(sc, path.replace("__", "."), value)
    return sc


# -- protective distance -------------------------------------------------


def test_protective_distance_at_standstill():
    assert protective_distance(0.0, 0.1, 1.6, 2.0, 0.1) == 1.6 * 0.1 + 0.1


def test_protective_distance_formula():
    v = 1.2
    expect = 1.6 * 0.1 + v * 0.1 + v * v / (2.0 * 2.0) + 0.1
    assert protective_distance(v, 0.1, 1.6, 2.0, 0.1) == pytest.approx(expect)


def test_protective_distance_rejects_bad_inputs():
    with pytest.raises(DomainError):
        protective_distance(-0.1, 0.1, 1.6, 2.0, 0.1)
    with pytest.raises(DomainError):
        protective_distance(1.0, 0.1, 1.6, 0.0, 0.1)


# -- perception ----------------------------------------------------------


def test_illuminance_gate_floor_and_saturation():
    assert illuminance_gate(100.0, 100.0, 1000.0) == 0.0
    assert illuminance_gate(5.0, 100.0, 1000.0) == 0.0
    assert illuminance_gate(1000.0, 100.0, 1000.0) == 1.0
    assert illuminance_gate(5000.0, 100.0, 1000.0) == 1.0
    # Geometric midpoint of the log ramp.
    mid = math.sqrt(100.0 * 1000.0)
    assert illuminance_gate(mid, 100.0, 1000.0) == pytest.approx(0.5)


def test_illuminance_gate_monotone():
    gates = [illuminance_gate(e, 100.0, 1000.0)
             for e in (120.0, 200.0, 400.0, 800.0, 999.0)]
    assert gates == sorted(gates)


def test_detection_probability_composition():
    p = detection_probability(0.8, 550.0, 0.64, 0.0)
    assert p == pytest.approx(0.8 * math.log10(5.5) * 0.8)
    # Occlusion scales the whole product.
    assert detection_probability(0.8, 550.0, 0.64, 0.5) == pytest.approx(p / 2)
    assert detection_probability(0.8, 550.0, 0.64, 1.0) == 0.0


def test_detection_probability_rejects_bad_inputs():
    with pytest.raises(DomainError):
        detection_probability(1.2, 500.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        detection_probability(0.9, 500.0, 0.5, -0.1)


def test_field_of_view():
    # Camera at origin looking along +x (yaw 0: cosine 1, sine 0) with a
    # 45 degree half angle.
    assert in_field_of_view(0.0, 0.0, 1.0, 0.0, math.pi / 4, 1.0, 0.5)
    assert not in_field_of_view(0.0, 0.0, 1.0, 0.0, math.pi / 4, -1.0, 0.0)
    assert not in_field_of_view(0.0, 0.0, 1.0, 0.0, math.pi / 4, 1.0, 1.5)


def test_occlusion_fraction_geometry():
    # Camera at origin staring along +x at a hand disc two meters out. A
    # fat capsule across the line blocks every ray, nothing blocks none,
    # and a thin capsule covering only half the disc blocks a strict part.
    view = (0.0, 0.0, 0.0, math.pi / 3, 2.0, 0.0)
    assert occlusion_fraction(*view,
                              segments=((1.0, -1.0, 1.0, 1.0, 0.2),)) == 1.0
    assert occlusion_fraction(*view) == 0.0
    partial = occlusion_fraction(*view,
                                 segments=((1.0, 0.0, 1.0, 1.0, 0.02),))
    assert 0.0 < partial < 1.0
    # Out of the cone the hand counts as fully occluded.
    assert occlusion_fraction(0.0, 0.0, 0.0, 0.2, -2.0, 0.0) == 1.0


# The hand and its blockers share a small box, so that about a quarter of
# the examples block some rays but not all.
_FAR = st.floats(-1.0, 1.0)
_NEAR = st.floats(-0.15, 0.15)
_RADIUS = st.floats(0.005, 0.1)


@settings(max_examples=300)
# One ray of the fan blocked, and a draw in the top sixteenth of p: that
# one ray rules detection out.
@example(0.97, 1.0, (0.0, 0.0), (2.0, 0.0), [], [(1.95, 0.05, 0.002)])
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0),
       st.tuples(_FAR, _FAR), st.tuples(_NEAR, _NEAR),
       st.lists(st.tuples(_NEAR, _NEAR, _NEAR, _NEAR, _RADIUS),
                max_size=3),
       st.lists(st.tuples(_NEAR, _NEAR, _RADIUS), max_size=3))
def test_the_early_exit_kernel_agrees_with_the_full_count(u, p, cam, hand,
                                                          segments, discs):
    # A half angle of pi keeps every hand in view.
    occ = occlusion_fraction(*cam, 0.0, math.pi, *hand, segments=segments,
                             discs=discs)
    assert hand_detected(u, p, cam, hand, segments, discs) == \
        (u < p * (1.0 - occ))


# -- scenario files and bindings ------------------------------------------


def test_scenario_round_trip():
    sc = _cell(belt=0.37, lux=421.0, camera__yaw=1.4)
    assert load_scenario(dump_scenario(sc)) == sc


def test_scenario_with_unknown_path():
    with pytest.raises(Exception):
        scenario_with(Scenario(), "belt.warp", 1.0)


def test_validate_scenario_rejects_nonsense():
    with pytest.raises(DomainError):
        validate_scenario(scenario_with(Scenario(), "belt.speed", -1.0))
    with pytest.raises(DomainError):
        validate_scenario(scenario_with(Scenario(), "controller.mode", "prayer"))


_NUMERIC_FIELDS = [f for f in SCENARIO_FIELDS.values()
                   if f.type in (float, int, tuple)]


def test_the_field_table_is_complete():
    # A misspelt domain path would leave its field merely finite, and a
    # field type without parser and formatter could not be loaded.
    assert set(_DOMAINS) <= set(SCENARIO_FIELDS)
    assert {f.type for f in SCENARIO_FIELDS.values()} <= set(_TYPES)


@pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", _NUMERIC_FIELDS, ids=lambda f: f.path)
def test_a_non_finite_scenario_value_is_rejected(field, word):
    texts = [f"{word}, 0.5", f"0.5, {word}"] if field.type is tuple \
        else [word]
    for text in texts:
        with pytest.raises((DomainError, ConfigError), match=field.path):
            load_scenario(f"{field.path} = {text}\n")


_OUTSIDE = [(f.path, value) for f in SCENARIO_FIELDS.values()
            for value in just_outside(f)]


@pytest.mark.parametrize("path,value", _OUTSIDE,
                         ids=[f"{p}={v!r}" for p, v in _OUTSIDE])
def test_a_value_just_outside_its_domain_is_rejected(path, value):
    text = value if isinstance(value, str) else repr(value)
    with pytest.raises(DomainError, match=path):
        load_scenario(f"{path} = {text}\n")


@pytest.mark.parametrize("path", [
    "arm.brake_decel", "arm.pick_radius", "belt.spawn_interval",
    "operator.approach_time", "operator.hand_intrusion",
    "controller.min_clearance", "environment.illuminance",
    "perception.e_min", "perception.e_sat", "perception.contrast_exponent"])
def test_an_absurd_finite_value_is_past_the_ceiling(path):
    # Each of these once let the cell be judged compliant on a value no
    # cell has, such as an arm that stops at once or an operator who
    # never reaches in.
    field = SCENARIO_FIELDS[path]
    assert field.hi < 1e308
    with pytest.raises(DomainError, match=path):
        load_scenario(f"{path} = 1e308\n")


def _in_domain(field):
    if field.choices:
        return st.sampled_from(field.choices)
    if field.type is bool:
        return st.booleans()
    if field.type is int:
        return st.integers(min_value=int(field.lo),
                           max_value=int(min(field.hi, 10**6)))
    number = st.floats(
        min_value=field.lo if field.lo > -math.inf else None,
        max_value=field.hi if field.hi < math.inf else None,
        exclude_min=field.lo_open, allow_nan=False, allow_infinity=False)
    return st.tuples(number, number) if field.type is tuple else number


@given(st.fixed_dictionaries({path: _in_domain(f)
                              for path, f in SCENARIO_FIELDS.items()}))
def test_dump_and_load_round_trip_any_valid_scenario(values):
    values["dt"], values["duration"] = sorted(
        (values["dt"], values["duration"]))
    values["perception.e_min"], values["perception.e_sat"] = sorted(
        (values["perception.e_min"], values["perception.e_sat"]))
    assume(values["perception.e_min"] < values["perception.e_sat"])
    assume(values["belt.start"] != values["belt.end"])
    sc = Scenario()
    for path, value in values.items():
        sc = scenario_with(sc, path, value)
    validate_scenario(sc)
    assert load_scenario(dump_scenario(sc)) == sc


def test_the_spanning_checks_still_hold():
    with pytest.raises(DomainError, match="shorter than one step"):
        load_scenario("duration = 0.01\ndt = 0.02\n")
    with pytest.raises(DomainError, match="belt start equals belt end"):
        load_scenario("belt.start = 0.5, 0.8\nbelt.end = 0.5, 0.8\n")
    with pytest.raises(DomainError, match="e_min < e_sat"):
        load_scenario("perception.e_min = 1000\nperception.e_sat = 1000\n")


def test_an_episode_has_at_most_a_hundred_thousand_steps():
    duration, dt = SCENARIO_FIELDS["duration"], SCENARIO_FIELDS["dt"]
    assert int(duration.hi / dt.lo) <= 10**5


def test_a_stale_hand_fix_is_trusted_no_longer_than_an_episode():
    horizon = SCENARIO_FIELDS["perception.miss_horizon"]
    duration, dt = SCENARIO_FIELDS["duration"], SCENARIO_FIELDS["dt"]
    assert horizon.hi == int(duration.hi / dt.lo) == 10**5
    assert load_scenario("perception.miss_horizon = 100000\n") \
        .perception.miss_horizon == 10**5
    with pytest.raises(DomainError, match="perception.miss_horizon"):
        load_scenario("perception.miss_horizon = 100001\n")


def test_bind_assignment_routes_values(default_model):
    sc = bind_assignment(Scenario(), default_model,
                         {"illuminance": 321.0, "belt_speed": 0.25})
    assert sc.environment.illuminance == 321.0
    assert sc.belt.speed == 0.25


def test_bind_assignment_enforces_domains(default_model):
    with pytest.raises(DomainError):
        bind_assignment(Scenario(), default_model, {"illuminance": 10.0})
    with pytest.raises(UnknownNameError):
        bind_assignment(Scenario(), default_model, {"warp": 1.0})
    # The first bad feature is reported.
    with pytest.raises(UnknownNameError):
        bind_assignment(Scenario(), default_model,
                        {"warp": 1.0, "illuminance": 10.0})
    with pytest.raises(DomainError):
        bind_assignment(Scenario(), default_model,
                        {"illuminance": 10.0, "warp": 1.0})


# The default model, and one more feature bound to the field that
# `illuminance` binds, so that two values can meet at one path.
_GLARE_MODEL = load_model(data_text("default.riskml").replace(
    "feature camera_yaw", "feature glare continuous [60, 900] lux "
    "binds environment.illuminance\nfeature camera_yaw"))


@given(data=st.data())
def test_bind_assignment_sets_one_feature_at_a_time(data):
    # One copy per touched group gives the scenario that binding each
    # feature in turn gives, the last value at a path winning.
    model, scenario = _GLARE_MODEL, _SHIPPED["default"][1]
    names = data.draw(st.permutations([f.name for f in model.features]))
    assignment = {}
    for name in names[:data.draw(st.integers(0, len(names)))]:
        feature = model.feature(name)
        assignment[name] = data.draw(st.floats(feature.lo, feature.hi))
    expected = scenario
    for name, value in assignment.items():
        expected = scenario_with(expected, model.feature(name).binding,
                                 value)
    assert bind_assignment(scenario, model, assignment) == expected


# -- engine ---------------------------------------------------------------


def test_simulation_is_deterministic():
    sc = _cell(belt=0.3, lux=300.0)
    a, b = simulate(sc, 5), simulate(sc, 5)
    assert a.steps == b.steps
    assert a.metrics == b.metrics


def test_simulator_seed_changes_detection_noise():
    sc = _cell(belt=0.3, lux=300.0)
    outcomes = {simulate(sc, seed).metrics.detection_miss_ratio
                for seed in range(4)}
    assert len(outcomes) > 1


def test_trace_shape():
    trace = simulate(Scenario(), 11)
    assert len(trace.steps) == int(8.0 / 0.02)
    assert all(len(step) == len(TRACE_COLUMNS) for step in trace.steps)
    csv = trace_to_csv(trace)
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == len(trace.steps) + 1


def test_nominal_cell_reference_run():
    # Frozen from a seeded run; guards engine behavior against drift.
    m = simulate(_cell(belt=0.1), 11).metrics
    assert m.min_margin == pytest.approx(0.2785079499906979, abs=1e-12)
    assert m.objects_fallen == 0
    assert not m.collision

    m = simulate(_cell(belt=0.5), 11).metrics
    assert m.min_margin == pytest.approx(-0.07140784065165007, abs=1e-12)
    assert m.objects_fallen == 2


def test_dark_cell_never_sees_anything():
    # Below the illuminance floor nothing is ever detected: every in-view
    # step is a miss, no object is acquired, and the arm lets them fall.
    m = simulate(_cell(belt=0.3, lux=80.0), 11).metrics
    assert m.detection_miss_ratio == 1.0
    assert m.objects_fallen == 2
    # The idle arm keeps a wide margin; the hazard here is pure loss.
    assert m.min_margin > 0.4


def test_dark_cell_slow_belt_drops_nothing():
    # At 0.1 m/s no object covers the belt within the episode.
    m = simulate(_cell(belt=0.1, lux=80.0), 11).metrics
    assert m.objects_fallen == 0
    m = simulate(_cell(belt=0.15, lux=80.0), 11).metrics
    assert m.objects_fallen == 1


def test_monitored_stop_reference_run():
    # Stop-and-go control saves the objects the speed governor loses, at
    # the price of margin excursions when a detection streak breaks.
    m = simulate(_cell(belt=0.5, controller__mode=MODE_MONITORED_STOP),
                 11).metrics
    assert m.objects_fallen == 0
    assert m.min_margin == pytest.approx(-0.1986488511812473, abs=1e-12)


def test_collision_flag_tracks_min_distance():
    m = simulate(_cell(belt=0.3), 11).metrics
    assert m.collision == (m.min_distance < CONTACT_EPSILON)


_SHIPPED = {
    "default": (load_model(data_text("default.riskml")),
                load_scenario(data_text("default_cell.scenario"))),
    "corner": (load_model(data_text("corner.riskml")),
               load_scenario(data_text("corner_cell.scenario"))),
}


def _binding(model):
    return st.fixed_dictionaries({f.name: st.floats(f.lo, f.hi)
                                  for f in model.features})


@pytest.mark.parametrize("cell", sorted(_SHIPPED))
@settings(max_examples=25)
@given(data=st.data())
def test_every_trace_row_holds_the_protective_distance(cell, data):
    model, scenario = _SHIPPED[cell]
    bound = bind_assignment(scenario, model, data.draw(_binding(model)))
    ctrl = bound.controller
    trace = simulate(bound, data.draw(st.integers(0, 2**31 - 1)))
    for step in trace.steps:
        s_p, v_r = step[2], step[3]
        assert s_p == protective_distance(
            v_r, ctrl.reaction_time, ctrl.assumed_human_speed,
            bound.arm.brake_decel, ctrl.min_clearance)


# Frozen from a seeded sweep. Unlike the reference runs above, the sweep
# reaches the per-ray occlusion tests: 26831 of them, 1009 against
# conveyor objects, so a change in which rays count as blocked shows here.
_SWEEP_SHA256 = \
    "08d4f3c4dfa28294bd1bd4684b2e142cda05e524f959e4362f687e1f9d162f94"


def test_a_random_binding_sweep_reproduces_its_digest():
    digest = hashlib.sha256()
    rng = random.Random(7)
    for model, scenario in _SHIPPED.values():
        for _ in range(40):
            bound = bind_assignment(scenario, model, {
                f.name: rng.uniform(f.lo, f.hi) for f in model.features})
            trace = simulate(bound, rng.randrange(2**31))
            digest.update(trace_to_csv(trace).encode())
            digest.update(repr(trace.metrics).encode())
    assert digest.hexdigest() == _SWEEP_SHA256


# What the shipped cells in SSM mode never reach: the stop-and-go
# controller, occlusion ignored, a camera that sees nothing (illuminance
# at the floor, p_clear 0) or everything it has in view (p_clear 1), and
# other geometries. In those, the effector starts inside the hole of the
# reach annulus; a narrow camera's cone edge cuts the hand's path; the
# operator stands at the belt, below an effector that starts past the
# annulus; or the arm hangs above the operator with its bin past the
# annulus beside the torso. In the last two the torso, not the hand, can
# be nearest the arm.
_MODES = ("ssm", MODE_MONITORED_STOP)
_LIGHTING = (
    (),
    (("environment.illuminance", 50.0),),
    (("perception.p_base", 1.0), ("environment.illuminance", 2000.0),
     ("environment.contrast", 1.0)),
)
_GEOMETRIES = (
    (),
    (("arm.bin", (0.05, 0.04)),),
    (("camera.position", (1.0, 1.4)), ("camera.yaw", 3.14159),
     ("camera.fov_half_angle", 0.15)),
    (("operator.start", (0.0, 0.9)), ("arm.bin", (0.2, 1.3))),
    (("arm.base", (0.0, 3.0)), ("arm.bin", (0.3, 1.7))),
)


def _variant(bound, mode, ignore_occlusion, lighting, geometry):
    scenario = scenario_with(bound, "controller.mode", mode)
    scenario = scenario_with(scenario, "perception.ignore_occlusion",
                             ignore_occlusion)
    for path, value in lighting + geometry:
        scenario = scenario_with(scenario, path, value)
    return scenario


@pytest.mark.parametrize("cell", sorted(_SHIPPED))
@settings(max_examples=60)
@given(data=st.data(), mode=st.sampled_from(_MODES), ignore=st.booleans(),
       lighting=st.sampled_from(_LIGHTING),
       geometry=st.sampled_from(_GEOMETRIES), seed=st.integers(0, 2**31 - 1))
def test_simulate_matches_the_reference_kernel(cell, data, mode, ignore,
                                               lighting, geometry, seed):
    model, scenario = _SHIPPED[cell]
    bound = _variant(bind_assignment(scenario, model,
                                     data.draw(_binding(model))),
                     mode, ignore, lighting, geometry)
    trace = simulate(bound, seed)
    expected = reference_engine.simulate(bound, seed)
    assert trace.steps == expected.steps
    assert trace.metrics == expected.metrics


# Frozen from a seeded sweep over every variant above, two random
# bindings each.
_VARIANT_SWEEP_SHA256 = \
    "884ae8034c42591f54b02e4fc7685ec1b1861dd902b21fb43db49958f4106673"


def test_a_variant_sweep_reproduces_its_digest():
    digest = hashlib.sha256()
    rng = random.Random(8)
    for model, scenario in _SHIPPED.values():
        for variant in itertools.product(_MODES, (False, True), _LIGHTING,
                                         _GEOMETRIES):
            for _ in range(2):
                bound = _variant(bind_assignment(scenario, model, {
                    f.name: rng.uniform(f.lo, f.hi)
                    for f in model.features}), *variant)
                trace = simulate(bound, rng.randrange(2**31))
                digest.update(trace_to_csv(trace).encode())
                digest.update(repr(trace.metrics).encode())
    assert digest.hexdigest() == _VARIANT_SWEEP_SHA256


# -- event evaluation ------------------------------------------------------


_EVENT_MODEL = parse_risk_model("""
actor a
goal g owner a "g"
feature f continuous [0, 1] ratio binds environment.contrast
event near negative when min_margin < 0.1 impacts -g
event stall positive when objects_fallen > 1 impacts +g
situation s "x" scenario "f.scenario" exposes near, stall features f
""")


def _metrics(margin, fallen=0):
    return TraceMetrics(min_margin=margin, min_distance=margin + 0.2,
                        objects_fallen=fallen, detection_miss_ratio=0.0,
                        collision=False)


def test_robustness_signs():
    near = _EVENT_MODEL.event("near").condition
    assert condition_robustness(near, _metrics(0.3).as_dict()) == \
        pytest.approx(0.2)
    assert condition_robustness(near, _metrics(-0.05).as_dict()) == \
        pytest.approx(-0.15)
    stall = _EVENT_MODEL.event("stall").condition
    assert condition_robustness(stall, _metrics(0.3, fallen=3).as_dict()) == \
        pytest.approx(-2.0)


def test_verdict_label_ignores_positive_events():
    sit = _EVENT_MODEL.situation("s")
    verdict = evaluate_events(_metrics(0.3, fallen=3), _EVENT_MODEL, sit)
    assert verdict.outcome("stall").triggered
    assert verdict.label == LABEL_COMPLIANCE

    verdict = evaluate_events(_metrics(0.05), _EVENT_MODEL, sit)
    assert verdict.outcome("near").triggered
    assert verdict.label == LABEL_NON_COMPLIANCE


def test_the_simulator_publishes_exactly_the_trace_metric_names():
    assert tuple(f.name for f in fields(TraceMetrics)) == TRACE_METRIC_NAMES
    assert tuple(_metrics(0.1).as_dict()) == TRACE_METRIC_NAMES


def test_verdict_unknown_event():
    sit = _EVENT_MODEL.situation("s")
    verdict = evaluate_events(_metrics(0.3), _EVENT_MODEL, sit)
    with pytest.raises(UnknownNameError):
        verdict.outcome("ghost")


def test_unknown_metric_rejected():
    model = parse_risk_model("""
    actor a
    goal g owner a "g"
    feature f continuous [0, 1] ratio binds environment.contrast
    event e negative when min_margin < 0 impacts -g
    situation s "x" scenario "f.scenario" exposes e features f
    """)
    with pytest.raises(UnknownNameError):
        condition_robustness(model.event("e").condition, {"other": 1.0})


def test_a_nan_robustness_judges_nothing():
    sit = _EVENT_MODEL.situation("s")
    with pytest.raises(DomainError, match="NaN"):
        evaluate_events(_metrics(math.nan), _EVENT_MODEL, sit)


# One simulator seed of this point violates insufficient_distance and the
# other does not; the mean robustness does not violate.
_SPLIT_POINT = {"illuminance": 164.8454618155161,
                "belt_speed": 0.23307807414405166,
                "hand_intrusion": 0.30251954265414394,
                "operator_speed": 1.1534301236343356,
                "contrast": 0.9555084107596217,
                "camera_yaw": 1.5154748999729906}


def test_multi_seed_label_follows_the_mean(default_model, default_scenario):
    sit = default_model.situation("close_collaboration")
    bound = bind_assignment(default_scenario, default_model, _SPLIT_POINT)
    singles = [evaluate_events(simulate(bound, seed), default_model, sit)
               for seed in (0, 1)]
    assert [v.label for v in singles] == [LABEL_NON_COMPLIANCE,
                                          LABEL_COMPLIANCE]
    mean = {name: (singles[0].outcome(name).robustness
                   + singles[1].outcome(name).robustness) / 2
            for name in sit.exposes}
    assert mean["insufficient_distance"] > 0.0

    evaluator = campaign_evaluator(default_model, default_scenario,
                                   "close_collaboration",
                                   "insufficient_distance", sim_seeds=(0, 1))
    robustness, label, triggered = evaluator(_SPLIT_POINT)
    verdict = verdict_from_robustness(default_model, sit, mean)
    assert label == verdict.label == LABEL_COMPLIANCE
    assert triggered == tuple(name for name in sit.exposes
                              if verdict.outcome(name).triggered)
    assert robustness == mean["insufficient_distance"]
