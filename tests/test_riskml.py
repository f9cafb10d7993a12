"""Parser, validator, serializer, and assurance-case derivation."""

import hashlib
import pickle
import random
import re

import pytest

from riskbench.datafiles import data_text
from riskbench.errors import (ModelInvalidError, RiskmlSyntaxError,
                              UnknownNameError)
from riskbench.riskml import (CATEGORICAL, CONTINUOUS, INTEGER, NEGATIVE,
                              POSITIVE, DomainFeature, Likelihood,
                              annotate_likelihoods, cases_to_json,
                              derive_assurance_cases,
                              load_model, parse_risk_model, serialize_model,
                              validate)

WELL_FORMED = """
# A cell with two hazards and one productivity goal.
actor operator
actor integrator

goal no_harm owner operator "Nobody gets hurt"
goal throughput owner integrator "Objects reach the bin"

feature illuminance continuous [50, 1000] lux binds environment.illuminance
feature n_objects integer [1, 6] count binds belt.object_count
feature surface categorical {matte, gloss, mixed} binds environment.contrast

event too_close negative when min_margin < 0 impacts -no_harm
event drop negative when objects_fallen > 0 impacts -no_harm, -throughput
    likelihood 0.25 of 8
event smooth_run positive when min_margin > 0.2 impacts +throughput

situation dim_shift "Night shift, low light" scenario "cell.scenario"
    exposes too_close, drop
    features illuminance, n_objects, surface
    indicators worst:min_margin, lost:objects_fallen
"""


def test_parse_structure():
    model = parse_risk_model(WELL_FORMED)
    assert [a.name for a in model.actors] == ["operator", "integrator"]
    assert [g.name for g in model.goals] == ["no_harm", "throughput"]
    assert model.goal("throughput").owner == "integrator"
    assert model.goal("no_harm").description == "Nobody gets hurt"

    kinds = {f.name: f.kind for f in model.features}
    assert kinds == {"illuminance": CONTINUOUS, "n_objects": INTEGER,
                     "surface": CATEGORICAL}
    lux = model.feature("illuminance")
    assert (lux.lo, lux.hi, lux.units) == (50.0, 1000.0, "lux")
    assert lux.binding == "environment.illuminance"
    assert model.feature("surface").values == ("matte", "gloss", "mixed")

    too_close = model.event("too_close")
    assert too_close.polarity == NEGATIVE
    assert (too_close.condition.metric, too_close.condition.op,
            too_close.condition.threshold) == ("min_margin", "<", 0.0)
    drop = model.event("drop")
    assert drop.impacts == (("-", "no_harm"), ("-", "throughput"))
    assert drop.likelihood == Likelihood(fraction=0.25, samples=8)
    assert model.event("smooth_run").polarity == POSITIVE

    sit = model.situation("dim_shift")
    assert sit.scenario_ref == "cell.scenario"
    assert sit.exposes == ("too_close", "drop")
    assert sit.features == ("illuminance", "n_objects", "surface")
    assert sit.indicators == ("worst", "lost")
    assert [(i.name, i.metric) for i in model.indicators] == [
        ("worst", "min_margin"), ("lost", "objects_fallen")]


def test_declaration_order_is_free():
    # Every reference may point forward; only validation resolves names.
    text = """
    situation s "x" scenario "f.scenario" exposes e features f
    event e negative when min_margin < 0 impacts -g
    feature f continuous [0, 1] ratio binds environment.contrast
    goal g owner a "g"
    actor a
    """
    model = parse_risk_model(text)
    assert validate(model) == []


def test_validates_clean(default_model):
    assert validate(default_model) == []


def test_syntax_error_carries_position():
    with pytest.raises(RiskmlSyntaxError) as err:
        parse_risk_model("actor operator\ngoal g owner operator")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("actor operator\ngoal g owner operator", "got end of input"),
    ('actor ""', "got ''"),
], ids=["end-of-input", "empty-string"])
def test_only_the_end_of_input_reads_as_the_end_of_input(text, message):
    with pytest.raises(RiskmlSyntaxError) as err:
        parse_risk_model(text)
    assert err.value.reason == message


def test_keywords_are_reserved():
    with pytest.raises(RiskmlSyntaxError):
        parse_risk_model("actor goal")


def test_interval_needs_two_numbers():
    with pytest.raises(RiskmlSyntaxError):
        parse_risk_model(
            "feature x continuous [1] lux binds environment.illuminance")


def _diagnostics(text):
    return validate(parse_risk_model(text))


@pytest.mark.parametrize("value", ["x", None, [1], 10**400, float("nan")],
                         ids=["string", "null", "list", "huge-int", "nan"])
@pytest.mark.parametrize("kind", [CONTINUOUS, INTEGER])
def test_an_interval_feature_holds_no_non_number(kind, value):
    # None of these may raise: a replay point reaches this check as JSON.
    assert not DomainFeature("f", kind, lo=0, hi=5).contains(value)


def test_an_integer_feature_compares_an_int_exactly():
    feature = DomainFeature("n", INTEGER, lo=0, hi=2 ** 53)
    assert feature.contains(2 ** 53)
    assert not feature.contains(2 ** 53 + 1)


@pytest.mark.parametrize("domain, flagged", [
    ("[-9007199254740992, 9007199254740992]", False),
    ("[0, 9007199254740993]", True),
    ("[-9007199254740993, 0]", True),
    ("[0, 1e300]", True),
])
def test_integer_bounds_past_2_to_the_53_flagged(domain, flagged):
    out = _diagnostics(f"feature n integer {domain} count binds belt.count")
    assert any(d.element == "n" and "beyond 2^53" in d.message
               for d in out) == flagged


def test_duplicate_names_flagged():
    # The parser refuses duplicates outright; the validator catches the
    # same mistake in models assembled in code.
    with pytest.raises(RiskmlSyntaxError, match="duplicate actor"):
        parse_risk_model("actor a\nactor a")
    from riskbench.riskml import Actor, RiskModel
    out = validate(RiskModel(actors=(Actor("a"), Actor("a"))))
    assert any(d.kind == "actor" and "duplicate" in d.message for d in out)


def test_unresolved_references_flagged():
    out = _diagnostics("""
    actor a
    goal g owner ghost "g"
    event e negative when min_margin < 0 impacts -missing
    situation s "x" scenario "f.scenario" exposes nothing features absent
    """)
    messages = "\n".join(d.message for d in out)
    assert "unresolved owner 'ghost'" in messages
    assert "unresolved goal 'missing'" in messages
    assert "unresolved event 'nothing'" in messages
    assert "unresolved feature 'absent'" in messages


def test_empty_interval_flagged():
    out = _diagnostics(
        "feature x continuous [5, 5] lux binds environment.illuminance")
    assert any("empty domain" in d.message for d in out)


def test_negative_event_must_harm_its_goals():
    out = _diagnostics("""
    actor a
    goal g owner a "g"
    event e negative when min_margin < 0 impacts +g
    """)
    assert any("'+' impact" in d.message for d in out)


def test_unknown_metric_flagged():
    out = _diagnostics("""
    actor a
    goal g owner a "g"
    event e negative when warp_factor < 0 impacts -g
    """)
    assert any("unknown metric 'warp_factor'" in d.message for d in out)


def test_likelihood_fraction_range_flagged():
    out = _diagnostics("""
    actor a
    goal g owner a "g"
    event e negative when min_margin < 0 impacts -g likelihood 1.5 of 10
    """)
    assert any("outside [0, 1]" in d.message for d in out)


def test_load_model_raises_on_diagnostics():
    with pytest.raises(ModelInvalidError) as err:
        load_model("actor a\ngoal g owner ghost \"g\"")
    assert any("ghost" in d.message for d in err.value.diagnostics)


@pytest.mark.parametrize("error", [
    RiskmlSyntaxError("bad", 1, 2),
    RiskmlSyntaxError("bad", 3, 4, ("actor", "goal")),
    ModelInvalidError(["d1", "d2"]),
    ModelInvalidError(_diagnostics('actor a\ngoal g owner ghost "g"')),
], ids=["syntax", "syntax-expected", "invalid-strings", "invalid-diagnostics"])
def test_errors_survive_a_pickle_round_trip(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_lookup_unknown_name():
    model = parse_risk_model("actor a")
    with pytest.raises(UnknownNameError):
        model.goal("nope")


def test_round_trip_preserves_structure():
    model = parse_risk_model(WELL_FORMED)
    assert parse_risk_model(serialize_model(model)) == model


def test_annotation_survives_round_trip():
    model = parse_risk_model(WELL_FORMED)
    annotated = annotate_likelihoods(model, {"too_close": (0.125, 400)})
    assert annotated.event("too_close").likelihood == Likelihood(0.125, 400)
    # Untouched events keep their clauses.
    assert annotated.event("drop").likelihood == Likelihood(0.25, 8)
    text = serialize_model(annotated)
    assert "likelihood 0.125 of 400" in text
    assert parse_risk_model(text) == annotated


def test_assurance_cases_for_shipped_model(default_model):
    cases = derive_assurance_cases(default_model)
    assert len(cases) == 1
    case = cases[0]
    assert case.goal == "safe_collaboration"
    assert case.situation == "close_collaboration"
    assert len(case.sub_claims) == 2
    assert [slot.event for slot in case.evidence] == [
        "insufficient_distance", "object_drop"]
    assert all(slot.status == "pending" for slot in case.evidence)


def test_positive_only_situation_yields_no_case():
    model = parse_risk_model("""
    actor a
    goal g owner a "g"
    feature f continuous [0, 1] ratio binds environment.contrast
    event ok positive when min_margin > 0 impacts +g
    situation s "x" scenario "f.scenario" exposes ok features f
    """)
    assert derive_assurance_cases(model) == []


def test_cases_json_shape(default_model):
    doc = cases_to_json(derive_assurance_cases(default_model))
    case = doc["cases"][0]
    assert set(case) == {"goal", "situation", "claim", "evidence"}
    assert case["claim"]["sub_claims"][0]["evidence_slot"] == \
        case["evidence"][0]["event"]
    assert case["evidence"][0]["campaign"] is None


# -- mutation sweep ----------------------------------------------------------

# A token is a string, a signed number, a word or one other character.
_TOKEN = re.compile(r'"[^"\n]*"|[-+]?\d[\d.]*(?:[eE][-+]?\d+)?|\w+|\S')
_SWEEP_SOURCES = [data_text("default.riskml"), data_text("corner.riskml"),
                  WELL_FORMED]
_EXTRA_TOKENS = ["1.5", "-2", "3", "1e3", "1.5e", "+", "-", ".", "½", '"s"',
                 "x", "[", "]", "{", "}", ":", ",", "<", ">", "#"]


def _source_tokens(text):
    """(line index, token) for every token outside comments."""
    return [(i, tok) for i, line in enumerate(text.splitlines())
            for tok in _TOKEN.findall(line.split("#", 1)[0])]


def _mutate(rng, tokens, vocabulary):
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        if not tokens:
            break
        k = rng.randrange(len(tokens))
        op = rng.randrange(5)
        if op == 0 and len(tokens) > 1:
            del tokens[k]
        elif op == 1:
            tokens.insert(k, tokens[k])
        elif op == 2 and k + 1 < len(tokens):
            (i, a), (j, b) = tokens[k], tokens[k + 1]
            tokens[k], tokens[k + 1] = (i, b), (j, a)
        elif op == 3:
            tokens[k] = (tokens[k][0], rng.choice(vocabulary))
        else:
            del tokens[k:]
    lines: dict = {}
    for i, tok in tokens:
        lines.setdefault(i, []).append(tok)
    return "\n".join(" ".join(lines.get(i, ())) for i in range(max(lines, default=0) + 1))


# Frozen from the parser as it stood before its token plumbing was folded
# into one `expect`: every outcome of the sweep, a model with its spans or
# an error with its message, position and expected tokens, is unchanged.
_PARSE_SWEEP_SHA256 = \
    "4635900a03f6ecae70740083610a9d5ca1406e1e9af2ab5c5bb922e25b4a4c5b"


def test_a_mutation_sweep_of_the_shipped_models_reproduces_its_digest():
    sources = [_source_tokens(text) for text in _SWEEP_SOURCES]
    vocabulary = sorted({tok for toks in sources for _, tok in toks}) + _EXTRA_TOKENS
    rng = random.Random(7)
    digest = hashlib.sha256()
    for n in range(2000):
        text = _mutate(rng, sources[n % len(sources)], vocabulary)
        try:
            model = parse_risk_model(text)
        except RiskmlSyntaxError as err:
            outcome = (str(err), err.line, err.column, err.expected)
        else:
            outcome = (repr(model), sorted(model.spans.items()))
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == _PARSE_SWEEP_SHA256
