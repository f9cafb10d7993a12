"""Risk modelling language: types, parser, validator, serializer, cases.

Each public name loads its submodule on first use (see `riskbench.lazy`).
"""

from __future__ import annotations

from ..errors import ModelInvalidError
from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".assurance": ("AssuranceCase", "EvidenceSlot", "cases_to_json",
                   "derive_assurance_cases"),
    ".model": ("CATEGORICAL", "CONTINUOUS", "INTEGER", "NEGATIVE", "POSITIVE",
               "Actor", "Condition", "Diagnostic", "DomainFeature", "Event",
               "Goal", "Indicator", "Likelihood", "RiskModel", "Situation",
               "annotate_likelihoods", "validate"),
    ".parser": ("parse_risk_model",),
    ".writer": ("serialize_model",),
})


def load_model(text: str) -> RiskModel:
    """Parse and validate in one step; raises on any diagnostic."""
    from .model import validate
    from .parser import parse_risk_model
    model = parse_risk_model(text)
    diagnostics = validate(model)
    if diagnostics:
        raise ModelInvalidError(diagnostics)
    return model


__all__.append("load_model")
