"""End-to-end and per-layer benchmark of the projcalc command line.

    python3 bench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository.  The program under test is
``src/projcalc``, driven in-process through ``projcalc.cli.main(argv)`` with
stdout and stderr captured: one client issues the ops one after another
(a closed loop, no threads).  Inputs are generated from ``--seed`` into
``.bench_work/`` and removed afterwards.  See ``bench/README.md`` for the
workloads and the metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run alternates untraced and
traced passes and reports the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads
from workloads import Op, Workload, expect_check

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 9
MIN_PASSES = 3  # untraced; a traced run alternates and makes one more
CHILD_TIMEOUT = 120  # seconds for a setup or verify child
PROBE_TIMEOUT = 60  # seconds for one past-the-stack probe


@dataclass
class PassRecord:
    index: int
    traced: bool
    units: int = 0
    output_bytes: int = 0  # stdout plus .pjd files
    pjd_bytes: int = 0
    latency: dict = field(default_factory=dict)  # op key -> seconds inside cli.main


class Runner:
    """Runs the ops of a workload, checks each answer, and keeps the figures."""

    def __init__(self, cli, work: Path, root: Path, workload: Workload):
        self.cli, self.work, self.root, self.workload = cli, work, root, workload
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.commands: dict[str, str] = {}  # op key -> command
        self.digests: dict[str, str] = {}
        self.verified: set[str] = set()

    def run_pass(self, index: int, tracer: tracing.Tracer | None, between=lambda: None) -> PassRecord:
        gc.collect()
        rec = PassRecord(index, tracer is not None)
        for job in self.workload.jobs:
            for op in job.ops:
                self.run_op(op, rec, tracer, job.row)
            rec.units += job.units
            between()
        return rec

    def run_op(self, op: Op, rec: PassRecord, tracer, row) -> None:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        span = tracer.op_span({"pass": rec.index, "command": op.command, "row": row}) if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # any escape from cli.main is a failed op
            error = f"{type(exc).__name__} escaped cli.main"
        rec.latency[op.key] = time.perf_counter() - started
        self.commands[op.key] = op.command
        self.attempted += 1

        stdout = out.getvalue()
        data = stdout.encode("utf-8")
        rec.output_bytes += len(data)
        digest = hashlib.sha256(data)
        emitted = []
        try:
            error = error or op.expect(rc, stdout)
            if error is None and op.emits:
                emitted = json.loads(stdout)["derivations"]
            for path in emitted:
                blob = Path(path).read_bytes()
                digest.update(blob)
                rec.output_bytes += len(blob)
                rec.pjd_bytes += len(blob)
        except (ValueError, KeyError, TypeError, OSError) as exc:  # output the check cannot read
            error, emitted = f"unreadable output: {exc!r}", []
        if error is None and op.game and op.key not in self.verified:
            self.verified.add(op.key)
            error = self.verify_game(op, data)
        error = error or self.same_output(op.key, digest.hexdigest())
        if error:
            self.failures.append((op.key, error))
        for path in emitted:
            check = Op(f"{op.key}>{path}", "check", ["check", path, op.program], expect_check)
            self.run_op(check, rec, tracer, row)

    def same_output(self, key: str, digest: str) -> str | None:
        """Every op must print the same bytes and write the same files on every pass."""
        first = self.digests.setdefault(key, digest)
        return None if first == digest else "output differs from an earlier pass of the same op"

    def verify_game(self, op: Op, stdout: bytes) -> str | None:
        """The printed strategy must win for the printed winner (outside the timed call)."""
        saved = self.work / "out" / (Path(op.game).name + ".out")
        saved.parent.mkdir(parents=True, exist_ok=True)
        saved.write_bytes(stdout)
        doc = self.child("verify-game", op.game, str(saved))
        saved.unlink()
        return doc["error"]

    def child(self, role: str, *args: str, timeout: float = CHILD_TIMEOUT) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), role, str(self.root), *args]
        try:
            done = subprocess.run(cmd, cwd=self.work, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"{role} child timed out after {timeout} s"}
        if done.returncode != 0:
            return {"error": f"{role} child exited {done.returncode}: {done.stderr.strip()[-200:]}"}
        return json.loads(done.stdout)

    def run_probe(self, op: Op) -> str | None:
        """A past-the-stack op in its own interpreter, under a memory cap and a timeout."""
        doc = self.child("probe", "--", *op.argv, timeout=PROBE_TIMEOUT)
        return doc["error"] or op.expect(doc["rc"], doc["stdout"])


class SetupClock:
    """Fresh interpreters that import projcalc.cli and read the inputs, timed.

    The set-ups are spread over the run, between jobs, so that one slow
    spell of a shared machine cannot set their median.
    """

    def __init__(self, root: Path, work: Path, seconds: float):
        self.cmd = [sys.executable, str(HERE / "child.py"), "setup", str(root), str(work / "in")]
        self.step = seconds / SETUP_SPAWNS
        self.due = time.perf_counter()
        self.times: list[float] = []

    def spawn(self) -> None:
        started = time.perf_counter()
        subprocess.run(self.cmd, check=True, timeout=CHILD_TIMEOUT, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - started)

    def maybe(self) -> None:
        if len(self.times) < SETUP_SPAWNS and time.perf_counter() >= self.due:
            self.spawn()
            self.due += self.step

    def median(self) -> float:
        while len(self.times) < SETUP_SPAWNS:
            self.spawn()
        return statistics.median(self.times)


def percentile(xs: list[float], q: int) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def op_latencies(records: list[PassRecord]) -> dict[str, float]:
    """Each op's best latency over the passes.

    On a shared machine, contention only ever adds time, and it comes in
    spells that can last a whole pass; the fastest pass of each op is the
    figure that such a spell moves least.
    """
    keys = set(records[0].latency).intersection(*(r.latency for r in records))
    return {key: min(r.latency[key] for r in records) for key in keys}


def src_lines(root: Path) -> int:
    return sum(
        1
        for path in (root / "src" / "projcalc").glob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def end_to_end(records: list[PassRecord], runner: Runner, setup_s: float) -> dict:
    latencies = list(op_latencies(records).values())
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (records[0].units / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "output_kib": (records[0].output_bytes / 1024, "KiB"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_share": (1 - len(runner.failures) / runner.attempted, "ratio"),
    }


def command_figures(name: str, records: list[PassRecord], runner: Runner) -> list[str]:
    """The per-command figures behind the end-to-end metrics, by their own names."""
    best = op_latencies(records)
    rate = records[0].units / sum(best.values())
    lines = [f"ops: {len(best)} per pass, {len(records)} passes; each op's latency is its best over the passes"]
    if name in ("corpus", "chains"):
        lines.append(f"programs_per_s = {rate:.6g} 1/s")
        for cmd in ("infer", "check"):
            xs = [t for key, t in best.items() if runner.commands[key] == cmd]
            lines.append(f"{cmd}_p50_ms = {statistics.median(xs) * 1e3:.6g} ms  (n = {len(xs)})")
            lines.append(f"{cmd}_p99_ms = {percentile(xs, 99) * 1e3:.6g} ms  (n = {len(xs)})")
        lines.append(f"derivation_kib = {records[0].pjd_bytes / 1024:.6g} KiB")
    elif name == "oracle":
        lines.append(f"oracle_cases_per_s = {rate:.6g} 1/s")
    else:
        lines.append(f"game_plays_per_s = {rate:.6g} 1/s")
    lines.append(f"failed_share = {len(runner.failures) / runner.attempted:.6g} ratio")
    return lines


def run(args, root: Path, work: Path, cli) -> int:
    w = workloads.build(args.workload, args.seed)
    workloads.write_inputs(w, work)
    runner = Runner(cli, work, root, w)
    tracer = tracing.Tracer()
    setup = None if args.trace else SetupClock(root, work, args.seconds)
    between = setup.maybe if setup else (lambda: None)

    os.chdir(work)  # ops name their files relative to the work directory
    records: list[PassRecord] = []
    min_passes = MIN_PASSES + args.trace
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        if args.trace and len(records) % 2 == 1:
            with tracing.installed(tracer):
                records.append(runner.run_pass(len(records), tracer, between))
        else:
            records.append(runner.run_pass(len(records), None, between))
        now = time.perf_counter()
        # stop before a pass that would end past --seconds
        if len(records) >= min_passes and now - started + (now - began) > args.seconds:
            break
    untraced = [r for r in records if not r.traced]
    metrics = {} if args.trace else end_to_end(untraced, runner, setup.median())

    probe_failures = []
    for op in w.probes:
        error = runner.run_probe(op)
        print(f"known-defect probe {op.key}: {'FAILED: ' + error if error else 'passed'}")
        if error:
            probe_failures.append(op.key)

    if args.trace:
        traced_recs = [r for r in records if r.traced]
        base = sum(op_latencies(untraced).values())
        overhead = (sum(op_latencies(traced_recs).values()) - base) / base
        summaries = [tracing.summarize_pass(tracer, r.index) for r in traced_recs]
        extra = {
            "src_lines": (src_lines(root), "lines"),
            "probes.past_stack_failed": (len(probe_failures), "count"),
        }
        metrics, rows = tracing.per_layer([s[0] for s in summaries], [s[1] for s in summaries], overhead, extra)
        for row in rows:
            print("row " + json.dumps(row, sort_keys=True))
        out = root / ".bench_work" / "traces" / f"{args.workload}.jsonl"
        tracing.write_spans(tracer, out)
        print(f"spans written to {out.relative_to(root)}")
    else:
        for line in command_figures(args.workload, untraced, runner):
            print(line)
        print(f"src_lines = {src_lines(root)} lines")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for key, error in runner.failures[:10]:
        print(f"failed op {key}: {error}", file=sys.stderr)
    print(f"{len(records)} passes, {runner.attempted} ops, {len(runner.failures)} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "projcalc" / "cli.py").is_file():
        print(f"error: {root} holds no src/projcalc; run the benchmark from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from projcalc import cli

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, root, work, cli)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
