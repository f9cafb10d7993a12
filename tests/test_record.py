"""Every record class against a frozen dataclass twin of itself.

`riskbench.record.Record` gives each value type of the package the
methods that `@dataclass(frozen=True)` would generate for it. Here each
record class gets a twin made by `dataclasses.make_dataclass(frozen=True)`
from the same field table and `__post_init__`, and the two must agree on
instances built from the shipped models and scenarios, a small campaign
archive and an explanation: on repr, ==, hash, fields, replace, asdict,
pickle and deepcopy round trips, frozen attributes and bad arguments.

The checks need the package and its dependencies but not pytest:
`python tests/test_record.py` runs them all.
"""

import copy
import dataclasses
import functools
import importlib
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, MISSING, asdict, fields, replace

import riskbench
from riskbench.datafiles import data_text
from riskbench.explain import (LabeledDataset, extract_rules,
                               generate_counterexamples, induce_tree)
from riskbench.kvdoc import _TYPES
from riskbench.record import Record
from riskbench.riskml import (DomainFeature, annotate_likelihoods,
                              derive_assurance_cases, load_model,
                              parse_risk_model, validate)
from riskbench.riskml.parser import _tokenize
from riskbench.search import (SEARCH_FIELDS, FeatureSpace, SearchConfig,
                              make_feature_space, run_campaign)
from riskbench.sim import (LABEL_COMPLIANCE, LABEL_NON_COMPLIANCE,
                           evaluate_events, load_scenario, simulate)
from riskbench.sim.scenario import SCENARIO_FIELDS

# Instances of a class compared with one another, at most.
_PER_CLASS = 8


def _package_modules():
    return [importlib.import_module(info.name) for info in
            pkgutil.walk_packages(riskbench.__path__, "riskbench.")]


def _record_classes():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("riskbench.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


@functools.lru_cache(maxsize=None)
def _roots():
    """Objects of every record class, as the commands make them."""
    corner = load_model(data_text("corner.riskml"))
    default = load_model(data_text("default.riskml"))
    broken = parse_risk_model(data_text("corner.riskml").replace(
        "owner operator", "owner robot"))
    scenario = load_scenario(data_text("default_cell.scenario"))
    corner_scenario = load_scenario(data_text("corner_cell.scenario"))
    archive = run_campaign(default, scenario, "close_collaboration",
                           "insufficient_distance",
                           SearchConfig(budget=4, seed=3))
    traces = [simulate(scenario, 11), simulate(corner_scenario, 11)]
    # An explanation over a numeric, a categorical and an integer column.
    mode = DomainFeature("mode", "categorical", values=("ssm", "stop"),
                         binding="controller.mode")
    horizon = DomainFeature("horizon", "integer", lo=0, hi=9,
                            binding="perception.miss_horizon")
    space = FeatureSpace(dims=(corner.feature("illuminance"), mode, horizon))
    rows = tuple(((50.0 + 19.0 * i, ("ssm", "stop")[i % 3 == 0], i % 10),
                  LABEL_NON_COMPLIANCE if i < 24 and i % 3
                  else LABEL_COMPLIANCE) for i in range(50))
    dataset = LabeledDataset(columns=space.dims, rows=rows)
    tree = induce_tree(dataset)
    rules = extract_rules(tree, 0.5)
    return {
        "corner": corner, "default": default, "broken": broken,
        "annotated": annotate_likelihoods(default, {
            "insufficient_distance": (0.25, 8), "object_drop": (0.0, 8)}),
        "diagnostics": validate(broken),
        "cases": derive_assurance_cases(corner) + derive_assurance_cases(
            default),
        "tokens": _tokenize(data_text("corner.riskml"))[:30],
        "scenario": scenario,
        "corner_scenario": corner_scenario,
        "traces": traces,
        "verdict": evaluate_events(traces[0], default,
                                   default.situation("close_collaboration")),
        "fields": [*SCENARIO_FIELDS.values(), *SEARCH_FIELDS.values()],
        "types": list(_TYPES.values()),
        "configs": [SearchConfig(),
                    SearchConfig(algorithm="genetic", budget=9, seed=4)],
        "spaces": [make_feature_space(default, "close_collaboration"),
                   make_feature_space(corner, "low_light_rush")],
        "points": archive.points, "dataset": dataset, "tree": tree,
        "rules": rules,
        "counterexamples": generate_counterexamples(rules[0], space, 3,
                                                    seed=5)}


@functools.lru_cache(maxsize=None)
def _samples():
    """Up to _PER_CLASS record instances of each class, reached from
    `_roots` through fields, tuples, lists and dicts."""
    by_class, seen, todo = {}, set(), list(_roots().values())
    while todo:
        obj = todo.pop(0)
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Record):
            found = by_class.setdefault(type(obj), [])
            if len(found) < _PER_CLASS:
                found.append(obj)
            todo.extend(getattr(obj, f.name) for f in fields(obj))
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
    return by_class


@functools.lru_cache(maxsize=None)
def _twin(cls):
    """A frozen dataclass with `cls`'s fields and `__post_init__`; it is
    made a global of this module, so that it pickles."""
    spec = [(f.name, f.type, dataclasses.field(
        default=f.default, default_factory=f.default_factory, init=f.init,
        repr=f.repr, hash=f.hash, compare=f.compare, metadata=f.metadata))
        for f in fields(cls)]
    namespace = ({"__post_init__": cls.__post_init__}
                 if hasattr(cls, "__post_init__") else {})
    twin = dataclasses.make_dataclass(f"{cls.__name__}Twin", spec,
                                      frozen=True, namespace=namespace)
    twin.__module__ = __name__
    globals()[twin.__name__] = twin
    return twin


def _values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _twin_of(obj):
    return _twin(type(obj))(**_values(obj))


def _shown(obj) -> str:
    """The repr without the class name."""
    return repr(obj).partition("(")[2]


def _outcome(fn, *args, **kwargs):
    """("ok", result), or ("raised", the exception's type)."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:
        return "raised", type(exc)


def _cases():
    """(record class, its twin, its sample instances) per class."""
    return [(cls, _twin(cls), found) for cls, found in _samples().items()]


def test_no_dataclass_is_left_beside_record():
    for module in _package_modules():
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                assert issubclass(obj, Record), obj


def test_every_record_class_has_samples():
    _package_modules()
    assert set(_samples()) == _record_classes()


def test_repr_eq_and_hash_match_the_twin():
    for cls, twin, found in _cases():
        hidden = [f.name for f in fields(cls) if not f.compare]
        # Each instance, a copy, and one whose uncompared fields come
        # from another instance.
        group = [*found, *(cls(**_values(obj)) for obj in found),
                 *(replace(obj, **{name: getattr(other, name)
                                   for name in hidden})
                   for obj, other in zip(found, found[1:] + found[:1]))]
        twins = [_twin_of(obj) for obj in group]
        for obj, twin_obj in zip(group, twins):
            assert type(obj) is cls
            assert _shown(obj) == _shown(twin_obj)
            assert repr(obj).startswith(f"{cls.__qualname__}(")
            assert _outcome(hash, obj) == _outcome(hash, twin_obj), cls
            assert cls.__eq__(obj, twin_obj) is NotImplemented
            assert obj != twin_obj
        for a, ta in zip(group, twins):
            for b, tb in zip(group, twins):
                assert (a == b) == bool(ta == tb), cls
                assert (a != b) == bool(ta != tb), cls


def test_fields_replace_and_asdict_match_the_twin():
    table = ("name", "type", "default", "default_factory", "init", "repr",
             "hash", "compare", "metadata")
    for cls, twin, found in _cases():
        assert dataclasses.is_dataclass(cls)
        assert ([[getattr(f, key) for key in table] for f in fields(cls)]
                == [[getattr(f, key) for key in table]
                    for f in fields(twin)])
        for obj, other in zip(found, found[1:] + found[:1]):
            twin_obj = _twin_of(obj)
            assert repr(asdict(obj)) == repr(asdict(twin_obj))
            for name, value in _values(other).items():
                changed = replace(obj, **{name: value})
                assert type(changed) is cls
                assert _shown(changed) == _shown(
                    replace(twin_obj, **{name: value}))


def test_pickle_and_deepcopy_round_trips_match_the_twin():
    def pickled(obj):
        return pickle.loads(pickle.dumps(obj))

    for cls, twin, found in _cases():
        for obj in found:
            twin_obj = _twin_of(obj)
            for trip in (pickled, copy.deepcopy):
                done, copied = _outcome(trip, obj)
                twin_done, twin_copy = _outcome(trip, twin_obj)
                # A record holding a lambda pickles as its twin does: not.
                assert done == twin_done, (cls, copied)
                if done == "raised":
                    assert copied is twin_copy
                    continue
                assert type(copied) is cls and type(twin_copy) is twin
                assert _shown(copied) == _shown(twin_copy)
                assert list(vars(copied)) == list(vars(twin_copy))
                assert (copied == obj) == bool(twin_copy == twin_obj)


def test_a_pickled_model_scenario_and_tree_equal_their_originals():
    # A spawned pool worker receives the evaluator's model and scenario
    # as pickles; `explain` results may be pickled by a caller.
    for name in ("corner", "scenario", "tree"):
        obj = _roots()[name]
        copied = pickle.loads(pickle.dumps(obj))
        assert copied == obj and repr(copied) == repr(obj)
        assert vars(copied) == vars(obj)


def test_assignment_and_deletion_raise_frozen_instance_error():
    for cls, twin, found in _cases():
        obj = found[0]
        twin_obj, before = _twin_of(obj), _values(obj)
        for name in (fields(cls)[0].name, "not_a_field"):
            for target in (obj, twin_obj):
                assert _outcome(setattr, target, name, 0) == \
                    ("raised", FrozenInstanceError)
                assert _outcome(delattr, target, name) == \
                    ("raised", FrozenInstanceError)
        assert vars(obj) == before


def test_bad_arguments_raise_type_error_as_for_the_twin():
    for cls, twin, found in _cases():
        values = _values(found[0])
        names, given = list(values), list(values.values())
        required = [f.name for f in fields(cls) if f.default is MISSING
                    and f.default_factory is MISSING]
        calls = [((*given, None), {}),
                 (given, {"not_a_field": 0}),
                 (given, {names[0]: given[0]})]
        if required:
            calls.append(((), {name: value for name, value in values.items()
                               if name != required[-1]}))
            calls.append((given[:names.index(required[-1])], {}))
        for args, kwargs in calls:
            assert _outcome(cls, *args, **kwargs) == ("raised", TypeError)
            assert _outcome(twin, *args, **kwargs) == ("raised", TypeError)


def test_defaults_factories_and_post_init_match_the_twin():
    for cls, twin, found in _cases():
        required = {f.name: getattr(found[0], f.name) for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        first, second = cls(**required), cls(**required)
        twin_first, twin_second = twin(**required), twin(**required)
        assert _shown(first) == _shown(twin_first)
        for f in fields(cls):
            if f.default_factory is not MISSING:
                # A factory makes a new value for each instance.
                assert (getattr(first, f.name) is getattr(second, f.name)) \
                    == (getattr(twin_first, f.name)
                        is getattr(twin_second, f.name))
        for obj in found:
            # __post_init__ makes tuples of the fields it normalizes.
            listed = {name: list(value) if type(value) is tuple else value
                      for name, value in _values(obj).items()}
            assert _shown(cls(**listed)) == _shown(twin(**listed))
            assert _shown(cls(*listed.values())) == \
                _shown(twin(*listed.values()))


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
