#!/usr/bin/env python3
"""grafcet-lint benchmark: one closed-loop caller driving the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

The workload's specs are generated from the seed and written under
``.perfbench-work/``; the analyzer only ever reads those files. Each spec
is taken through ``cli.main(["analyze", path, "--format", fmt,
"--no-timings"])`` (plus ``--queries`` where a sidecar exists) and, on
``oracle-explore``, through ``oracle.explore`` in structural mode. The next
spec starts only after the previous report has been written to an
in-memory sink. ``--jobs`` is never passed, so the CLI's default applies.
The process pins itself to one CPU (see ``pin_to_one_cpu``).

After one unreported warm-up pass, whole passes over the workload's specs
repeat until ``--seconds`` have passed and at least 100 specs ran. Every
report is checked: the first pass against the expected facts (and the
oracle), later passes for byte-identical output. With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` traced and untraced passes alternate, and the per-layer
metrics plus the tracing overhead are printed. The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import specs  # noqa: E402
from corpus import corpus_cases  # noqa: E402
from tracing import (  # noqa: E402
    ANALYSIS_TARGETS, ORACLE_TARGETS, QUERY_TARGETS, Tracer, layer_metrics,
)
from verify import check_oracle, check_output  # noqa: E402

MIN_SAMPLES = 100
COLD_RUNS = 15
COLD_SPEC = "fig2_g1.grafcet.json"

# Why each workload exists is recorded in BENCHMARK.json and README.md. The
# second entry lists the traced targets the workload must exercise.
WORKLOADS = {
    "corpus": (lambda seed: corpus_cases(SRC, seed), ANALYSIS_TARGETS + QUERY_TARGETS),
    "invariants-heavy": (specs.invariants_heavy, ANALYSIS_TARGETS),
    "hierarchy-wide": (specs.hierarchy_wide, ANALYSIS_TARGETS + QUERY_TARGETS),
    "oracle-explore": (specs.oracle_explore, ANALYSIS_TARGETS + ORACLE_TARGETS),
}

COLD_PROBE = """
import contextlib, io, sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import grafcet_lint.cli as cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["analyze", {spec!r}, "--no-timings"])
t2 = time.perf_counter()
print(t1 - t0, t2 - t0, code)
"""


@dataclass
class Job:
    case: specs.Case
    path: str
    argv: list[str]
    spec: object = None  # parsed model, for the oracle
    digest: str | None = None
    code: object = None
    states: int | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Stats:
    latencies: list[float] = field(default_factory=list)
    oracle_s: float = 0.0
    states: int = 0
    report_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def specs_per_s(self) -> float:
        """Specs taken through per second of time spent in the timed passes."""
        return len(self.latencies) / sum(self.latencies)


class ColdStart:
    """Fresh interpreters timed from before ``import grafcet_lint.cli`` through
    the first ``analyze``. Probes run one at a time while the workload process
    waits, spread over the run so they see the same machine as the passes."""

    def __init__(self, spec_path: Path):
        self.script = COLD_PROBE.format(src=str(SRC), spec=str(spec_path))
        self.imports: list[float] = []
        self.setups: list[float] = []
        self.problems: list[str] = []

    @property
    def runs(self) -> int:
        return len(self.setups) + len(self.problems)

    def probe(self, record: bool = True) -> None:
        proc = subprocess.run([sys.executable, "-I", "-c", self.script], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[2] != "1":
            self.problems.append(f"cold start: exit {proc.returncode}, output "
                                 f"{proc.stdout!r}, stderr {proc.stderr[-500:]!r}")
        elif record:
            self.imports.append(float(fields[0]))
            self.setups.append(float(fields[1]))


def prepare(cases: list[specs.Case], workdir: Path, ingest) -> list[Job]:
    """Write every spec (and sidecar) to disk; parse the oracle's models."""
    workdir.mkdir(parents=True)
    jobs = []
    for case in cases:
        path = workdir / f"{case.name}.grafcet.json"
        if not path.exists():
            text = case.doc if isinstance(case.doc, str) else json.dumps(case.doc, indent=1)
            path.write_text(text, encoding="utf-8")
        argv = ["analyze", str(path), "--format", case.fmt, "--no-timings"]
        if case.sidecar is not None:
            qpath = workdir / f"{case.name}.queries.json"
            qpath.write_text(case.sidecar, encoding="utf-8")
            argv += ["--queries", str(qpath)]
        spec = ingest.load_spec(path) if case.oracle else None
        jobs.append(Job(case, str(path), argv, spec))
    return jobs


def run_pass(jobs: list[Job], stats: Stats, cli, oracle) -> None:
    for job in jobs:
        sink, err = io.StringIO(), io.StringIO()
        facts, crash = None, None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                code = cli.main(job.argv)
            t1 = perf_counter()
            if job.case.oracle:
                facts = oracle.explore(job.spec, mode="structural")
        except Exception:  # a crash is a failed spec, not a stopped benchmark
            t1 = perf_counter()
            code, crash = None, traceback.format_exc(limit=3)
        t2 = perf_counter()
        out = sink.getvalue()
        stats.latencies.append(t2 - t0)
        stats.report_bytes += len(out.encode())
        if facts is not None:
            stats.oracle_s += t2 - t1
            stats.states += facts.states_seen
        stats.attempted += 1
        if crash:
            problems = [f"crashed: {crash}"]
        else:
            try:
                problems = check_job(job, code, out, facts)
            except Exception:  # e.g. a report whose schema changed
                problems = [f"check raised: {traceback.format_exc(limit=3)}"]
        if problems:
            stats.failed += 1
            if len(stats.problems) < 20:
                stats.problems.append(f"{job.case.name} ({job.case.fmt}): "
                                      + "; ".join(problems))


def check_job(job: Job, code, out: str, facts) -> list[str]:
    digest = hashlib.sha256(out.encode()).hexdigest()
    if job.digest is None:
        problems, report = check_output(job.case, code, out)
        if job.case.oracle:
            problems += check_oracle(job.case, report, facts)
        job.digest, job.code, job.problems = digest, code, problems
        job.states = facts.states_seen if facts is not None else None
        return problems
    problems = list(job.problems)
    if digest != job.digest or code != job.code:
        problems.append("report or exit code differs from the first pass")
    if facts is not None and (facts.inconclusive or facts.states_seen != job.states):
        problems.append("oracle result differs from the first pass")
    return problems


def measure(jobs, seconds, cli, oracle, cold: ColdStart, tracer=None) -> list[Stats]:
    """A warm-up pass, then whole passes until time and sample count suffice.

    Returns (warm-up, untraced, traced) statistics; the warm-up pass is
    checked like any other, but its times are not reported. With a tracer,
    traced and untraced passes alternate. Cold-start probes run between
    passes, about evenly over the run.
    """
    warmup, plain, traced = Stats(), Stats(), Stats()
    cold.probe(record=False)  # warms the bytecode cache
    run_pass(jobs, warmup, cli, oracle)
    start = perf_counter()
    n = 0
    while True:
        if tracer is not None and n % 2:
            tracer.install()
            try:
                run_pass(jobs, traced, cli, oracle)
            finally:
                tracer.uninstall()
            tracer.flush()
        else:
            run_pass(jobs, plain, cli, oracle)
        n += 1
        elapsed = perf_counter() - start
        while cold.runs < min(COLD_RUNS, elapsed / seconds * COLD_RUNS):
            cold.probe()
        enough = min(len(plain.latencies),
                     len(traced.latencies) if tracer else MIN_SAMPLES) >= MIN_SAMPLES
        if elapsed >= seconds and enough and (tracer is None or n % 2 == 0):
            break
    while cold.runs < COLD_RUNS:
        cold.probe()
    return [warmup, plain, traced]


def end_to_end(stats: Stats, setups: list[float]) -> dict[str, float]:
    lat_ms = [t * 1000 for t in stats.latencies]
    return {
        "specs_per_s": stats.specs_per_s,
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def pin_to_one_cpu() -> None:
    """Keep this process and its cold-start probes on one CPU.

    The CLI's default ``--jobs`` still starts one worker thread per CPU, but
    those threads then hand the GIL over on one CPU instead of across two,
    so the hand-over does not depend on what runs on the other CPU. In three
    back-to-back pairs on a 2-vCPU host, hierarchy-wide took 60-65 ms per
    spec unpinned and 41-59 ms pinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"

    if not (SRC / "grafcet_lint" / "cli.py").is_file() or not bench_file.is_file():
        print(f"perfbench: no grafcet_lint sources under {SRC} or no {bench_file}",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from grafcet_lint import cli, ingest, oracle

    make_cases, required = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = prepare(make_cases(args.seed), workdir, ingest)
        cold_spec = workdir / COLD_SPEC
        shutil.copyfile(SRC / "grafcet_lint" / "corpus" / COLD_SPEC, cold_spec)
        cold = ColdStart(cold_spec)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.spec_paths = {job.path for job in jobs}
        passes = measure(jobs, args.seconds, cli, oracle, cold, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    _, plain, traced = passes
    imports, setups = cold.imports, cold.setups
    problems = cold.problems + [p for stats in passes for p in stats.problems]
    attempted = cold.runs + sum(stats.attempted for stats in passes)
    failed = len(cold.problems) + sum(stats.failed for stats in passes)
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} specs per pass, "
          f"closed loop with 1 caller")
    print(f"samples: {len(plain.latencies)} untraced, {len(traced.latencies)} traced; "
          f"cold starts: {len(setups)}")
    print(f"error_rate: {failed / attempted} ({failed} of {attempted})")

    if args.trace:
        values = layer_metrics(tracer, len(traced.latencies))
        values["cli.report_bytes"] = traced.report_bytes / len(traced.latencies)
        values["oracle.states_per_s"] = plain.states / plain.oracle_s if plain.oracle_s else 0.0
        values["import.cli_ms"] = statistics.median(imports) * 1000 if imports else 0.0
        values["trace.overhead_pct"] = (plain.specs_per_s / traced.specs_per_s - 1) * 100
        print(f"untraced specs_per_s {plain.specs_per_s:.3f}, "
              f"traced {traced.specs_per_s:.3f}")
        absent = tracer.absent()
        if absent:
            print("absent targets (reported as 0): " + ", ".join(absent))
        calls = tracer.calls
        silent = [name for name in required if name in tracer.targets and not calls[name]]
        if silent:
            problems.append("traced targets never called: " + ", ".join(silent))
    else:
        values = end_to_end(plain, setups) if setups else {}
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for problem in problems:
        print(f"FAILED {problem}")

    correct = not problems and bool(setups)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
