#!/usr/bin/env python3
"""riskbench benchmark: drives the real `riskbench` CLI as an engineer does.

    python3 perfbench/run.py --workload quickstart --seed 7 --seconds 30 --trace 0

Closed loop, one client: each CLI command starts only after the previous
one has exited, and each runs in a fresh work directory under
`.perfbench/` in the checkout. With `--trace 0` every command is a child
process and the end-to-end metrics are printed; with `--trace 1` the same
commands run in-process through `riskbench.cli.main`, alternate
repetitions with the layer wrappers of `tracing.py` installed, and the
per-layer metrics are printed. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 7
SIM_SEED = 11            # the CLI's default simulator seed, never varied
SETUP_REPS = 5           # fresh `validate` processes timed for setup_s
IMPORT_REPS = 5          # fresh interpreters timed for cli.import_s
MIN_REPS = 2             # so byte-identity across repetitions is checked
CHILD_TIMEOUT_S = 150

# The console script `riskbench` is exactly this.
_ENTRY = "import sys; from riskbench.cli import main; sys.exit(main())"
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import riskbench.cli; "
                 "print(repr(time.perf_counter() - t))")

DIGEST_FILES = ("archive.csv", "tree.json", "rules.json", "augmentation.json",
                "annotated.riskml", "verdict.json", "trace.csv")
_OUTPUTS = {
    "validate": (),
    "cases": ("cases.json",),
    "run": ("archive.csv", "campaign.json", "summary.txt"),
    "build": ("archive.csv", "campaign.json", "summary.txt"),
    "explain": ("tree.json", "rules.txt", "rules.json", "augmentation.json",
                "annotated.riskml", "report.json"),
    "replay": ("trace.csv", "verdict.json"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    model: str               # packaged data file names
    scenario: str
    situation: str
    event: str
    budget: int              # evaluations of each timed `run`
    steps: tuple             # commands of one timed repetition
    config: str | None = None  # packaged config; None: the benchmark writes one
    # Rows of one archive made before the timed repetitions and explained
    # in each of them; 0: `explain` reads the repetition's own archive.
    archive_budget: int = 0

    @property
    def out(self) -> str:
        return f"runs/{self.name}"


WORKLOADS = {w.name: w for w in (
    Workload("quickstart", "corner.riskml", "corner_cell.scenario",
             "low_light_rush", "insufficient_distance", 200,
             ("validate", "cases", "run", "explain", "replay"),
             config="quickstart.config"),
    Workload("campaign_default", "default.riskml", "default_cell.scenario",
             "close_collaboration", "insufficient_distance", 600,
             ("validate", "run", "explain", "replay")),
    # The short commands run three times per repetition: one explain takes
    # about 7 s, so once each would leave them a handful of samples a run.
    Workload("explain_archive", "default.riskml", "default_cell.scenario",
             "close_collaboration", "insufficient_distance", 100,
             ("validate", "run", "explain", "replay",
              "validate", "run", "replay", "validate", "run", "replay"),
             archive_budget=2000),
)}

_SAMPLE_OF = {"validate": "setup_s", "run": "run_s", "explain": "explain_s",
              "replay": "replay_s"}
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("evals_per_s", "1/s"),
              ("explain_s", "s"), ("replay_s", "s"), ("peak_rss_mb", "MB"))
_PER_LAYER_UNITS = {"_s": "s", "_frac": "ratio", "_ratio": "ratio",
                    "us_per_step": "us", "bytes_written": "bytes"}


def layer_unit(name: str) -> str:
    for suffix, unit in _PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def load_program():
    """Import riskbench from this checkout's src/, or exit 2 if absent."""
    if not (SRC / "riskbench" / "cli.py").is_file():
        sys.exit(f"error: no riskbench sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import riskbench
    if Path(riskbench.__file__).resolve().parents[1] != SRC:
        sys.exit(f"error: imported riskbench from {riskbench.__file__}, "
                 f"not from {SRC}")


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)     # end-to-end name -> values
    evals: int = 0                                  # rows of each timed run
    rss_kb: int = 0                                 # largest child max-RSS
    children: int = 0
    layer_reps: list = field(default_factory=list)  # per traced repetition
    import_s: list = field(default_factory=list)
    walls: dict = field(default_factory=dict)       # (kind, traced) -> seconds
    unaccounted: dict = field(default_factory=dict)  # kind -> fractions
    self_time: dict = field(default_factory=dict)   # span name -> seconds
    missing_patches: list = field(default_factory=list)
    spans: list = field(default_factory=list)       # per traced repetition
    digests: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)


class Runner:
    """Runs one workload's commands, checks each, and records its samples."""

    def __init__(self, wl: Workload, seed: int, budget: int | None,
                 trace: bool, root: Path, tamper=None):
        import riskbench.cli  # noqa: F401  (imported before any timing)
        from riskbench.datafiles import data_path, data_text
        from riskbench.riskml import load_model
        from riskbench.sim import load_scenario

        # A budget given here (a tiny one, in the smoke test) caps both
        # the timed runs and the archive made before them.
        self.wl, self.seed = wl, seed
        self.budget = min(wl.budget, budget) if budget else wl.budget
        self.archive_budget = (budget or wl.archive_budget) \
            if wl.archive_budget else 0
        self.workdir = root        # parent of each command's fresh directory
        self.tamper = tamper
        self.result = Result(wl.name, seed, trace)
        self.model_path = str(data_path(wl.model))
        self.scenario_path = str(data_path(wl.scenario))
        self.model = load_model(data_text(wl.model))
        self.scenario = load_scenario(data_text(wl.scenario))
        self.situation = self.model.situation(wl.situation)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(root))
        self.recorder = None       # set while a traced repetition runs
        self.first_outputs = {}
        expected = json.loads((BENCH_DIR / "digests.json").read_text())
        self.expected = expected[wl.name] \
            if seed == DEFAULT_SEED and budget is None else {}
        if wl.config:
            self.config_path = str(data_path(wl.config))
        else:
            self.config_path = str(root / f"{wl.name}.config")
            Path(self.config_path).write_text(
                f"model = {self.model_path}\nsituation = {wl.situation}\n"
                f"event = {wl.event}\nalgorithm = random\n"
                f"budget = {self.budget}\n"
                f"seed = {seed}\nsim_seed = {SIM_SEED}\nout = {wl.out}\n",
                encoding="utf-8")

    # -- executing one command ---------------------------------------------

    def _spawn(self, args, cwd: Path):
        """Child process; wall time from spawn to reaping, max RSS kept."""
        with open(cwd / ".stdout", "wb") as out, \
                open(cwd / ".stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", _ENTRY, *args],
                                    cwd=cwd, env=self.env, stdout=out,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.result.rss_kb = max(self.result.rss_kb, usage.ru_maxrss)
        self.result.children += 1
        return (proc.returncode, wall,
                (cwd / ".stdout").read_text(encoding="utf-8", errors="replace"),
                (cwd / ".stderr").read_text(encoding="utf-8", errors="replace"))

    def _in_process(self, args, cwd: Path):
        """Same command through riskbench.cli.main, under the root span of
        the current traced repetition, if any."""
        from riskbench.cli import main
        out, err = io.StringIO(), io.StringIO()
        previous = os.getcwd()
        os.chdir(cwd)
        code = 0
        span = self.recorder.operation(f"cli.{args[0]}") if self.recorder \
            else nullcontext()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), span:
                main(args, prog_name="riskbench", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else \
                (0 if exc.code is None else 1)
        except Exception:  # a crash in the program fails this operation
            code = 1
            err.write(traceback.format_exc())
        finally:
            wall = time.perf_counter() - start
            os.chdir(previous)
        return code, wall, out.getvalue(), err.getvalue()

    def command(self, kind: str, args, inputs=None, in_process=False):
        """Run one CLI command in a fresh directory; check its outputs.

        Returns (work dir, wall seconds) or None when the command failed.
        """
        cwd = Path(tempfile.mkdtemp(prefix=f"{kind}-", dir=self.workdir))
        for name, text in (inputs or {}).items():
            (cwd / name).write_text(text, encoding="utf-8")
        run = self._in_process if in_process else self._spawn
        code, wall, stdout, stderr = run(args, cwd)
        out_dir = self._out_dir(kind, cwd)
        if kind in ("run", "build") and self.tamper and code == 0:
            self.tamper(out_dir / "archive.csv")
        problems = [f"exit code {code}: {stderr.strip()[-300:]}"] if code \
            else self._check(kind, out_dir, stdout, inputs)
        self.result.attempted += 1
        if problems:
            self.result.failed += 1
            self.result.problems.extend(f"{kind}: {p}" for p in problems)
            return None
        return out_dir, wall

    def _out_dir(self, kind, cwd: Path) -> Path:
        if kind in ("run", "build"):
            return cwd / self.wl.out
        if kind == "explain":
            return cwd / "out"
        return cwd

    def _check(self, kind, out_dir: Path, stdout: str, inputs) -> list:
        from checks import (check_archive, check_augmentation, check_replay,
                            sha256_file)
        problems = []
        try:
            digests = {name: sha256_file(out_dir / name)
                       for name in _OUTPUTS[kind]}
        except OSError as exc:
            return [f"missing output: {exc}"]
        seen = self.first_outputs.setdefault(kind, (digests, stdout))
        if seen != (digests, stdout):
            problems.append("outputs differ from the first repetition's")
        for name, digest in digests.items():
            if name in DIGEST_FILES:
                # The explained archive is `archive.csv`; the timed runs
                # beside a prebuilt one write `run/archive.csv`.
                key = f"run/{name}" if kind == "run" and self.archive_budget \
                    else name
                self.result.digests[key] = digest
                if key in self.expected and self.expected[key] != digest:
                    problems.append(f"{key} sha256 {digest[:12]}... differs "
                                    "from the recorded seed-commit digest")
        if kind == "validate" and stdout != f"{self.model_path}: ok\n":
            problems.append(f"unexpected output {stdout!r}")
        elif kind in ("run", "build"):
            rows = self.budget if kind == "run" else self.archive_budget
            problems += check_archive(out_dir / "archive.csv", rows,
                                      self.model, self.scenario,
                                      self.situation, self.wl.event, SIM_SEED)
        elif kind == "explain":
            problems += check_augmentation(out_dir, self.model,
                                           self.situation)
        elif kind == "replay":
            problems += check_replay(out_dir, json.loads(inputs["probe.json"]),
                                     self.model, self.scenario, SIM_SEED)
        return problems

    # -- the workload ------------------------------------------------------

    def validate(self, in_process=False):
        return self.command("validate", ["validate", "--model",
                                         self.model_path],
                            in_process=in_process)

    def run(self, in_process=False, kind="run"):
        budget = self.budget if kind == "run" else self.archive_budget
        return self.command(kind, ["run", "--config", self.config_path,
                                   "--seed", str(self.seed),
                                   "--budget", str(budget)],
                            in_process=in_process)

    def repetition(self, archive_dir: Path | None, in_process: bool) -> list:
        """One pass over the workload's steps; (command, wall seconds) of
        each."""
        walls = []
        explained = None
        for kind in self.wl.steps:
            if kind == "validate":
                done = self.validate(in_process)
            elif kind == "cases":
                done = self.command("cases", ["cases", "--model",
                                              self.model_path, "--out",
                                              "cases.json"],
                                    in_process=in_process)
            elif kind == "run":
                done = self.run(in_process)
                if not self.archive_budget:
                    archive_dir = done and done[0]
            elif kind == "explain":
                done = self.command("explain", [
                    "explain", str(archive_dir / "archive.csv"), "--model",
                    self.model_path, "--out", "out"], in_process=in_process)
                explained = done and done[0]
            else:
                probe = self._probe(archive_dir, explained)
                done = self.command("replay", [
                    "replay", "probe.json", "--model", self.model_path,
                    "--scenario", self.scenario_path],
                    inputs={"probe.json": json.dumps(probe)},
                    in_process=in_process)
            if done is None:
                break
            walls.append((kind, done[1]))
        return walls

    def _probe(self, archive_dir: Path, explained: Path) -> dict:
        """The first counterexample, as in the README; if no rule cleared
        the threshold, the archive's lowest-robustness assignment."""
        per_rule = json.loads((explained / "augmentation.json").read_text(
            encoding="utf-8"))["per_rule"]
        if per_rule and per_rule[0]["assignments"]:
            return per_rule[0]["assignments"][0]
        from checks import read_archive
        rows = read_archive(archive_dir / "archive.csv", self.model,
                            self.situation)
        return min(rows, key=lambda row: row[2])[1]


def _import_times(env) -> list:
    times = []
    for _ in range(IMPORT_REPS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                               env=env, cwd=WORK, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(probe.stdout))
    return times


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  budget: int | None = None, tamper=None) -> Result:
    """Set up, then repeat the workload for `seconds`; return the samples."""
    import riskbench
    import numpy
    from importlib.metadata import version
    from tracing import Recorder, patched

    wl = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = Runner(wl, seed, budget, trace, root, tamper)
        result = runner.result
        result.evals = runner.budget
        result.env = {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "click": version("click"), "riskbench": riskbench.__file__,
            "nproc": os.cpu_count(), "load1_start": os.getloadavg()[0]}

        archive_dir = None
        if runner.archive_budget:
            # Input for the timed explains, built and checked in a child in
            # both modes; its time counts toward no metric.
            done = runner.run(kind="build")
            if done is None:
                return result
            archive_dir = done[0]
        if trace:
            result.import_s = _import_times(runner.env)
            # One untimed in-process pass, so that lazy imports and first
            # allocations land in neither the traced nor the plain samples.
            runner.workdir = Path(tempfile.mkdtemp(prefix="warm-", dir=root))
            runner.repetition(archive_dir, in_process=True)
        else:
            for _ in range(SETUP_REPS):
                done = runner.validate()
                if done:
                    result.add("setup_s", done[1])

        start = time.perf_counter()
        reps = 0
        while reps < MIN_REPS or time.perf_counter() - start < seconds:
            traced = trace and reps % 2 == 0
            runner.recorder = Recorder() if traced else None
            runner.workdir = Path(tempfile.mkdtemp(prefix="rep-", dir=root))
            with patched(runner.recorder) if traced else nullcontext([]) \
                    as missing:
                walls = runner.repetition(archive_dir, in_process=trace)
            shutil.rmtree(runner.workdir)
            result.missing_patches = sorted(set(result.missing_patches)
                                            | set(missing))
            for kind, wall in walls:
                if trace:
                    result.walls.setdefault((kind, traced), []).append(wall)
                elif kind in _SAMPLE_OF:
                    result.add(_SAMPLE_OF[kind], wall)
            if traced:
                _record_spans(result, runner.recorder.spans)
            reps += 1
        result.env["load1_end"] = os.getloadavg()[0]
        result.env["repetitions"] = reps
        if trace:
            (WORK / f"spans-{name}.json").write_text(json.dumps(
                {"workload": name, "seed": seed, "columns": [
                    "name", "start", "end", "parent", "op", "counts"],
                 "repetitions": result.spans}), encoding="utf-8")
        return result
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _record_spans(result: Result, spans) -> None:
    """Fold one traced repetition's spans into the result."""
    from tracing import layer_metrics, self_times, span_self_times
    result.layer_reps.append(layer_metrics(spans))
    for name, own in self_times(spans).items():
        result.self_time[name] = result.self_time.get(name, 0.0) + own
    for span, own in zip(spans, span_self_times(spans)):
        if span.parent is None:
            result.unaccounted.setdefault(span.name, []).append(
                own / span.duration)
    result.spans.append([[s.name, s.start, s.end, s.parent, s.op, s.counts]
                         for s in spans])


def metrics(result: Result) -> dict:
    """name -> (value, unit, sample count) for the run's mode.

    An end-to-end time is the mean of its samples: the host's speed flips
    between a fast and a slow state every few seconds, which moves the
    median of a run by the whole gap whenever the share of slow samples
    crosses one half, but the mean only in proportion to that share (see
    README.md, Noise and bounds). Layer times are medians.
    """
    if not result.trace:
        out = {}
        for name, unit in END_TO_END:
            values = result.samples.get(name, [])
            if name == "peak_rss_mb":
                out[name] = (result.rss_kb / 1024.0, unit, result.children)
            elif name == "evals_per_s":
                run_s = out["run_s"][0]
                out[name] = (result.evals / run_s if run_s else 0.0, unit,
                             out["run_s"][2])
            else:
                out[name] = (statistics.fmean(values) if values else 0.0,
                             unit, len(values))
        return out
    reps = result.layer_reps
    out = {"cli.import_s": (statistics.median(result.import_s)
                            if result.import_s else 0.0, "s",
                            len(result.import_s))}
    for name in (reps[0] if reps else {}):
        unit = layer_unit(name)
        # Counts repeat exactly; median_low keeps them whole numbers.
        middle = statistics.median_low if unit in ("count", "bytes") \
            else statistics.median
        out[name] = (middle(r[name] for r in reps), unit, len(reps))
    traced = plain = 0.0
    for kind in ("run", "explain"):
        on = result.walls.get((kind, True))
        off = result.walls.get((kind, False))
        if on and off:
            traced += statistics.median(on)
            plain += statistics.median(off)
    out["trace.overhead_frac"] = (traced / plain - 1.0 if plain else 0.0,
                                  "ratio", len(reps))
    return out


def report(result: Result) -> list:
    """Human-readable lines printed above the JSON result."""
    env = result.env
    lines = [
        f"riskbench benchmark: workload {result.workload}, seed "
        f"{result.seed}, trace {int(result.trace)}, "
        f"{env.get('repetitions', 0)} repetitions",
        f"env: python {env.get('python')}, numpy {env.get('numpy')}, click "
        f"{env.get('click')}, nproc {env.get('nproc')}, load1 "
        f"{env.get('load1_start', 0):.2f} -> {env.get('load1_end', 0):.2f}",
        f"program: {env.get('riskbench')}",
        f"{'metric':<28} {'value':>14}  {'unit':<6} n",
    ]
    rows = dict(metrics(result))
    frac = result.failed / result.attempted if result.attempted else 1.0
    rows["failed_frac"] = (frac, "ratio", result.attempted)
    for name, (value, unit, n) in rows.items():
        lines.append(f"{name:<28} {value:>14.6g}  {unit:<6} {n}")
    if result.trace:
        ranked = sorted(result.self_time.items(), key=lambda kv: -kv[1])
        lines.append("largest self times (s, all traced repetitions): "
                     + ", ".join(f"{k} {v:.4f}" for k, v in ranked[:6]))
        lines.append("unaccounted share of each command's wall time: "
                     + ", ".join(f"{k} {statistics.median(v):.3f}"
                                 for k, v in sorted(result.unaccounted.items())))
        if result.missing_patches:
            lines.append("not traced (attribute gone): "
                         + ", ".join(result.missing_patches))
    for name, digest in sorted(result.digests.items()):
        lines.append(f"sha256 {name} {digest}")
    lines.extend(f"FAILED {p}" for p in result.problems[:10])
    return lines


def result_json(result: Result) -> str:
    return json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics(result).items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    load_program()
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    for line in report(result):
        print(line)
    print(result_json(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
