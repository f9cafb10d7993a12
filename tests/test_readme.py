"""The README's library quickstart runs as written."""

import re
from pathlib import Path

from riskbench.explain import Rule

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block under the `## heading` section."""
    section = README.read_text(encoding="utf-8").split(
        f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_quickstart_runs():
    scope = {}
    exec(_python_block("Library quickstart"), scope)
    assert len(scope["archive"].points) == 300
    assert isinstance(scope["rules"], list)
    assert scope["rules"]
    assert all(isinstance(rule, Rule) for rule in scope["rules"])
