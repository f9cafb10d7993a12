"""Parser for the line-oriented .riskml modelling language.

The grammar has five declaration forms, all introduced by a keyword:

    actor <name>
    goal <name> owner <actor> "<text>"
    feature <name> continuous|integer [<lo>, <hi>] <units> binds <path>
    feature <name> categorical {v1, v2, ...} binds <path>
    event <name> positive|negative when <metric> <|> <number>
        impacts +|-<goal>[, ...] [likelihood <fraction> of <count>]
    situation <name> "<text>" scenario "<file>"
        exposes <event>[, ...] features <feature>[, ...]
        [indicators <name>:<metric>[, ...]]

`#` comments run to end of line, newlines are ordinary whitespace (long
declarations may wrap), references may point forward. Keywords are reserved
and cannot name elements. Cross-reference resolution is validate()'s job;
the parser rejects syntax errors and duplicate names only, so a file that
parses cleanly can still carry semantic diagnostics.
"""

from __future__ import annotations

from functools import partial

from ..errors import RiskmlSyntaxError
from ..record import Record
from .model import (CATEGORICAL, CONTINUOUS, INTEGER, NEGATIVE, POSITIVE,
                    Actor, Condition, DomainFeature, Event, Goal, Indicator,
                    Likelihood, RiskModel, Situation)

KEYWORDS = frozenset((
    "actor", "goal", "owner", "feature", "continuous", "integer",
    "categorical", "binds", "event", "positive", "negative", "when",
    "impacts", "likelihood", "of", "situation", "scenario", "exposes",
    "features", "indicators",
))

_PUNCT = "[]{},:<>+-"
_DECLARATIONS = ("actor", "goal", "feature", "event", "situation")


class _Token(Record):
    type: str  # NAME KEYWORD NUMBER STRING PUNCT EOF
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise RiskmlSyntaxError("unterminated string", start_line, start_col)
            tokens.append(_Token("STRING", text[i + 1:j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        # A sign glues to a following digit ("-0.35"); otherwise it is
        # punctuation ("impacts -safety").
        if ch.isdigit() or (ch in "+-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")):
            j = i + 1 if ch in "+-" else i
            k = j
            while k < n and (text[k].isdigit() or text[k] == "."):
                k += 1
            if k < n and text[k] in "eE":
                m = k + 1
                if m < n and text[m] in "+-":
                    m += 1
                if m < n and text[m].isdigit():
                    k = m
                    while k < n and text[k].isdigit():
                        k += 1
            word = text[i:k]
            try:
                float(word)
            except ValueError:
                raise RiskmlSyntaxError(f"bad number {word!r}", start_line, start_col) from None
            tokens.append(_Token("NUMBER", word, start_line, start_col))
            col += k - i
            i = k
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "NAME"
            tokens.append(_Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT or ch == ".":
            tokens.append(_Token("PUNCT", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise RiskmlSyntaxError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.actors: list[Actor] = []
        self.goals: list[Goal] = []
        self.features: list[DomainFeature] = []
        self.events: list[Event] = []
        self.situations: list[Situation] = []
        self.indicators: list[Indicator] = []
        self.spans: dict = {}

    # token plumbing ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str, tok: _Token | None = None, expected: tuple[str, ...] = ()):
        tok = tok or self.peek()
        raise RiskmlSyntaxError(message, tok.line, tok.column, expected)

    def expect(self, type: str, *values: str, expected: tuple[str, ...] = ()) -> _Token:
        """Consume a token of `type` (and one of `values`, if given)."""
        tok = self.peek()
        if tok.type == type and (not values or tok.value in values):
            self.pos += 1
            return tok
        self.error("got end of input" if tok.type == "EOF" else f"got {tok.value!r}",
                   tok, expected or values)

    def accept(self, type: str, value: str) -> bool:
        """Consume the next token if it is `value` of `type`."""
        tok = self.peek()
        if tok.type == type and tok.value == value:
            self.pos += 1
            return True
        return False

    def expect_name(self, what: str) -> str:
        tok = self.peek()
        if tok.type == "KEYWORD":
            self.error(f"reserved word {tok.value!r} cannot be used as {what}", tok)
        return self.expect("NAME", expected=(what,)).value

    def expect_number(self) -> float:
        return float(self.expect("NUMBER", expected=("a number",)).value)

    def expect_integer(self, what: str) -> int:
        tok = self.peek()
        value = self.expect_number()
        if not value.is_integer():
            self.error(f"{what} must be an integer, got {tok.value}", tok)
        try:
            # Exact, where float() would round an integer past 2^53.
            return int(tok.value)
        except ValueError:      # written with a point or an exponent
            return int(value)

    def expect_string(self) -> str:
        return self.expect("STRING", expected=("a quoted string",)).value

    def name_list(self, what: str) -> tuple[str, ...]:
        names = [self.expect_name(what)]
        while self.accept("PUNCT", ","):
            names.append(self.expect_name(what))
        return tuple(names)

    # declarations --------------------------------------------------------

    def declare(self, kind: str, what: str) -> str:
        """Read the name of a new `kind` element and record where it stands."""
        tok = self.peek()
        name = self.expect_name(what)
        if (kind, name) in self.spans:
            self.error(f"duplicate {kind} name {name!r}", tok)
        self.spans[(kind, name)] = (tok.line, tok.column)
        return name

    def parse(self) -> RiskModel:
        while self.peek().type != "EOF":
            kind = self.expect("KEYWORD", *_DECLARATIONS).value
            getattr(self, "parse_" + kind)()
        if not self.spans:
            self.error("empty model", expected=_DECLARATIONS)
        return RiskModel(
            actors=tuple(self.actors), goals=tuple(self.goals),
            features=tuple(self.features), events=tuple(self.events),
            situations=tuple(self.situations), indicators=tuple(self.indicators),
            spans=self.spans,
        )

    def parse_actor(self):
        self.actors.append(Actor(self.declare("actor", "an actor name")))

    def parse_goal(self):
        name = self.declare("goal", "a goal name")
        self.expect("KEYWORD", "owner")
        owner = self.expect_name("an actor name")
        self.goals.append(Goal(name, owner, self.expect_string()))

    def parse_feature(self):
        name = self.declare("feature", "a feature name")
        kind = self.expect("KEYWORD", CONTINUOUS, INTEGER, CATEGORICAL).value
        if kind == CATEGORICAL:
            self.expect("PUNCT", "{")
            values = self.name_list("a category")
            self.expect("PUNCT", "}")
            self.expect("KEYWORD", "binds")
            self.features.append(DomainFeature(
                name, CATEGORICAL, values=values, binding=self.parse_path()))
            return
        bound = (partial(self.expect_integer, "integer feature bound")
                 if kind == INTEGER else self.expect_number)
        self.expect("PUNCT", "[")
        lo = bound()
        self.expect("PUNCT", ",")
        hi = bound()
        self.expect("PUNCT", "]")
        units = self.expect_name("a units word")
        self.expect("KEYWORD", "binds")
        self.features.append(DomainFeature(
            name, kind, lo=lo, hi=hi, units=units, binding=self.parse_path()))

    def parse_path(self) -> str:
        parts = [self.expect_name("a scenario path")]
        while self.accept("PUNCT", "."):
            parts.append(self.expect_name("a scenario path"))
        return ".".join(parts)

    def parse_event(self):
        name = self.declare("event", "an event name")
        polarity = self.expect("KEYWORD", POSITIVE, NEGATIVE).value
        self.expect("KEYWORD", "when")
        metric = self.expect_name("a metric name")
        op = self.expect("PUNCT", "<", ">").value
        threshold = self.expect_number()
        self.expect("KEYWORD", "impacts")
        impacts = [self.parse_impact()]
        while self.accept("PUNCT", ","):
            impacts.append(self.parse_impact())
        likelihood = None
        if self.accept("KEYWORD", "likelihood"):
            fraction = self.expect_number()
            self.expect("KEYWORD", "of")
            likelihood = Likelihood(fraction, self.expect_integer("likelihood sample count"))
        self.events.append(Event(
            name, polarity, Condition(metric, op, threshold),
            impacts=tuple(impacts), likelihood=likelihood))

    def parse_impact(self) -> tuple[str, str]:
        sign = self.expect("PUNCT", "+", "-").value
        return (sign, self.expect_name("a goal name"))

    def parse_situation(self):
        name = self.declare("situation", "a situation name")
        description = self.expect_string()
        self.expect("KEYWORD", "scenario")
        scenario_ref = self.expect_string()
        self.expect("KEYWORD", "exposes")
        exposes = self.name_list("an event name")
        self.expect("KEYWORD", "features")
        features = self.name_list("a feature name")
        indicator_names: list[str] = []
        if self.accept("KEYWORD", "indicators"):
            while True:
                ind_name = self.declare("indicator", "an indicator name")
                self.expect("PUNCT", ":")
                metric = self.expect_name("a metric name")
                self.indicators.append(Indicator(ind_name, name, metric))
                indicator_names.append(ind_name)
                if not self.accept("PUNCT", ","):
                    break
        self.situations.append(Situation(
            name, description, scenario_ref,
            exposes=exposes, features=features, indicators=tuple(indicator_names)))


def parse_risk_model(text: str) -> RiskModel:
    """Parse .riskml source into a RiskModel.

    Raises RiskmlSyntaxError with line/column and expected-token info on
    malformed input or duplicate names. Run validate() afterwards for
    reference resolution and domain checks.
    """
    return _Parser(_tokenize(text)).parse()
