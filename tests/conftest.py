"""Shared fixtures: packaged inputs and a subprocess harness for the CLI."""

import math
import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings

import riskbench
from riskbench.datafiles import data_path, data_text
from riskbench.riskml import load_model
from riskbench.sim import load_scenario

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")

# Invoke the CLI through the same interpreter so the tests exercise the
# real argument parsing and exit codes without depending on PATH.
_CLI = [sys.executable, "-c", "from riskbench.cli import main; main()"]

# The child runs from a temporary directory, where an inherited relative
# PYTHONPATH (such as ``src``) resolves to nothing. Put the absolute
# directory of the package these tests imported first on its path.
_PACKAGE_ROOT = str(Path(riskbench.__file__).resolve().parents[1])
_IMPORT_FAILURE = re.compile(r"^(ModuleNotFoundError|ImportError): ",
                             re.MULTILINE)


def _at_most_two_cpus():
    # `run` evaluates on one process per CPU it may use, itself among
    # them; whatever the host, the tests use at most two.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])


def run_cli(*args, cwd=None, pythonpath=()):
    """Run the CLI in a child process; `pythonpath` entries go first on its
    path, ahead of the package and any inherited entries."""
    pythonpath = filter(None, [*map(str, pythonpath), _PACKAGE_ROOT,
                               os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    limit = _at_most_two_cpus if hasattr(os, "sched_setaffinity") else None
    result = subprocess.run([*_CLI, *map(str, args)], cwd=cwd, env=env,
                            preexec_fn=limit, capture_output=True, text=True,
                            timeout=300)
    # An import failure also exits 1; never let it stand in for a
    # documented exit code.
    if result.returncode != 0 and _IMPORT_FAILURE.search(result.stderr):
        pytest.fail("the CLI subprocess could not import riskbench:\n"
                    + result.stderr, pytrace=False)
    # The CLI reports each failure it knows of in a message and an exit
    # code; a traceback means an error escaped the exit-code rule.
    if "Traceback (most recent call last)" in result.stderr:
        pytest.fail("the CLI subprocess printed a traceback:\n"
                    + result.stderr, pytrace=False)
    return result


@contextmanager
def no_longer_than(seconds):
    """Fail the block with an AssertionError once it has run `seconds`."""
    def hung(signum, frame):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def just_outside(field):
    """Values just outside a field table entry's domain: past each finite
    bound, or on it where the bound is open. A point's are file text,
    with the outside value as each coordinate in turn."""
    if field.type is tuple:
        inside = min(max(0.0, field.lo), field.hi)
        return [text for value in just_outside(replace(field, type=float))
                for text in (f"{value!r}, {inside!r}",
                             f"{inside!r}, {value!r}")]
    if field.choices:
        return [field.choices[0].upper()]
    if field.type is int:
        def past(bound, step):
            return int(bound) + step
    else:
        def past(bound, step):
            return math.nextafter(bound, step * math.inf)
    values = []
    if field.lo > -math.inf:
        values.append(field.lo if field.lo_open else past(field.lo, -1))
    if field.hi < math.inf:
        values.append(field.hi if field.hi_open else past(field.hi, 1))
    return values


@pytest.fixture(scope="session")
def default_model():
    return load_model(data_text("default.riskml"))


@pytest.fixture(scope="session")
def default_scenario():
    return load_scenario(data_text("default_cell.scenario"))


@pytest.fixture(scope="session")
def corner_model():
    return load_model(data_text("corner.riskml"))


@pytest.fixture(scope="session")
def corner_scenario():
    return load_scenario(data_text("corner_cell.scenario"))


@pytest.fixture(scope="session")
def data_dir():
    return data_path("default.riskml").parent
