"""Package exports: each public name loads its submodule on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

from conftest import _PACKAGE_ROOT

PACKAGES = ("riskbench.riskml", "riskbench.sim", "riskbench.search",
            "riskbench.explain")

# Imports every name of `__all__`, one at a time, in a fresh interpreter,
# and prints a problem per name that does not resolve to the object a
# module of the package holds under that name, or that dir() leaves out.
_PROBE = """
import importlib, json, sys
package = sys.argv[1]
pkg = importlib.import_module(package)
problems = []
for name in pkg.__all__:
    scope = {}
    try:
        exec(f"from {package} import {name} as value", scope)
    except ImportError as exc:
        problems.append(f"{name}: {exc}")
        continue
    homes = [key for key, module in list(sys.modules.items())
             if key.startswith(package + ".")
             and vars(module).get(name) is scope["value"]]
    if not homes and getattr(scope["value"], "__module__", "") != package:
        problems.append(f"{name}: held by no module of the package")
    if name not in dir(pkg):
        problems.append(f"{name}: missing from dir()")
print(json.dumps(problems))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_imports_in_a_fresh_interpreter(package):
    env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT}
    result = subprocess.run([sys.executable, "-c", _PROBE, package], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_a_name_a_package_lacks_is_an_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="'nope'"):
        module.nope
    with pytest.raises(ImportError):
        exec(f"from {package} import nope")
    assert "nope" not in dir(module)


@pytest.mark.parametrize("package", PACKAGES)
def test_a_resolved_name_is_cached_in_the_package(package):
    module = importlib.import_module(package)
    name = module.__all__[0]
    value = getattr(module, name)
    assert vars(module)[name] is value


def test_the_explain_modules_import_nothing_from_search():
    # A feature space is a plain tuple of features, so explaining an
    # archive needs nothing of the search package.
    env = {**os.environ, "PYTHONPATH": _PACKAGE_ROOT}
    probe = ("import sys, riskbench.explain.dataset, riskbench.explain.rules,"
             " riskbench.explain.tree; print(sorted(name for name in "
             "sys.modules if (name + '.').startswith('riskbench.search.')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
