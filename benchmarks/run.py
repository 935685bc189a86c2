"""gateforge benchmark: four seeded workloads driven from outside the package.

    python3 benchmarks/run.py --workload synth --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root.  ``analyze``, ``synth`` and ``verify`` feed a
generated JSON-lines file to ``python -m gateforge.cli batch --input FILE``
(with ``PYTHONPATH=src``); ``trajectory`` feeds one to
``benchmarks/trajectory_runner.py``, which calls ``gateforge.trajectory_check``.
One child runs at a time, since gateforge is single-threaded.

Untraced (``--trace 0``): children given only the warm-up op measure
``setup_s``; then one child works through the generated ops for ``--seconds``
(a further child on fresh ops follows if it runs out).  The harness stamps
each result line as it arrives; times are reported at reference core speed
(see ``children.py``).  After the children end, every answer is checked
against the oracle in ``oracle.py``.

Traced (``--trace 1``): one untraced child runs a third of ``--seconds``,
then the ops it finished run again in this process, through
``gateforge.cli.main`` or the runner, with the wrappers of ``tracing.py``
installed; between ops the harness times the reference kernel, and each
op's spans are scaled to reference speed.  It prints the per-layer metrics
and ``trace.overhead_ratio``, the untraced rate over the traced rate on
identical ops.  End-to-end metrics only come from untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every answer gateforge reported as a success is right and no child
crashed, 1 otherwise, and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import tracing
import workloads
from children import LINE_TIMEOUT_S, SRC, CannotRun, ChildRun, Core, Spawner, at_reference_speed, gap_slowness, run_child

WORK = SRC.parent / ".benchrun"

#: Children started with only the warm-up op; ``setup_s`` is their median.
SETUP_CHILDREN = 9
#: Wall-clock ops per second seen when the benchmark was written (slowness
#: about 1.6); it only sizes the generated input.
EXPECTED_OPS_PER_S = {"analyze": 560, "synth": 77, "verify": 270, "trajectory": 14}
#: Input generated per child, as a multiple of what the expected rate needs.
CHUNK_MARGIN = 1.15
#: Tail percentile of op time, on every workload.  p99 leaves ten or more
#: ops beyond it on all but ``trajectory``, but over ten seeds its spread
#: reached 0.14 (0.32 over five), against at most 0.10 for p90.
TAIL_PERCENTILE = 90
#: Workloads whose tail is the median, over consecutive windows of this many
#: ops within one child, of each window's tail percentile; the others take it
#: over all ops.  Most ``synth`` ops are chamber targets of three segments
#: and take nearly the same time, so its p90 lies beyond that bulk, where the
#: host's jitter in each run sets it: over twelve runs its spread was 0.12
#: over all ops and 0.064 as the median over 60-op windows (three rounds of
#: its decks).  On the other workloads windows gave no gain over four runs
#: each; ``trajectory`` has too few ops a run for them.
TAIL_WINDOW_OPS = {"synth": 60}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Answers checked by the oracle."""

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)  # answers reported as success but wrong
    errors: Counter = field(default_factory=Counter)  # error lines by message
    crashes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.crashes

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.errors.update(other.errors)
        self.crashes += other.crashes


def check_lines(ops: list, lines: list, ran_out: bool) -> Tally:
    """Oracle verdicts on every result line; missing lines fail when the child
    ended on its own (a child stopped at its deadline owes no more lines)."""
    tally = Tally()
    for (_, expect), raw in zip(ops, lines):
        tally.attempted += 1
        try:
            reply = json.loads(raw)
        except ValueError:
            tally.failed += 1
            tally.wrong.append(f"{expect['cmd']}: unparseable line {raw[:80]!r}")
            continue
        if not reply.get("ok"):
            tally.failed += 1
            tally.errors[str(reply.get("error"))[:70]] += 1
            continue
        why = oracle.check(reply.get("result"), expect)
        if why:
            tally.failed += 1
            tally.wrong.append(f"{expect['cmd']}: {why}")
    if ran_out and len(lines) < len(ops):
        missing = len(ops) - len(lines)
        tally.attempted += missing
        tally.failed += missing
    return tally


def check_run(run: ChildRun) -> Tally:
    tally = check_lines(run.ops, run.lines, run.ran_out)
    if run.problem:
        tally.crashes.append(run.problem)
    return tally


def chunk_ops(workload: str, seed: int, chunk: int, seconds: float) -> list:
    n = math.ceil(EXPECTED_OPS_PER_S[workload] * seconds * CHUNK_MARGIN)
    return workloads.Generator(workload, seed, chunk).ops(n)


class Bench:
    """One benchmark session: the measured core, the spawner and a work directory."""

    def __init__(self, workdir: Path) -> None:
        self.core = Core()
        self.spawner = Spawner(self.core)
        self.workdir = workdir

    def close(self) -> None:
        self.spawner.close()

    def child(self, workload: str, ops: list, slice_s: float) -> ChildRun:
        return run_child(self.spawner, self.core, workload, ops, self.workdir / "ops.jsonl", slice_s)

    def setup_times(self, workload: str, count: int) -> list[float]:
        """``setup_s`` of ``count`` children given only the warm-up op.  One
        more child runs first, uncounted: it fails the benchmark if the
        warm-up op fails, and leaves compiled bytecode and a warm file cache."""
        if not (SRC / "gateforge" / "cli.py").is_file():
            raise CannotRun(f"no gateforge sources under {SRC}")
        times = []
        for _ in range(count + 1):
            run = self.child(workload, [(workloads.WARMUP, workloads.WARMUP_EXPECT)], LINE_TIMEOUT_S)
            tally = check_run(run)
            if tally.crashes or tally.failed or not run.times:
                raise CannotRun(run.problem or f"warm-up op failed: {run.lines[:1]}")
            times.append(run.setup_s)
        return times[1:]

    def measure(self, workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
        """Untraced run: end-to-end metrics, oracle tally and sample counts."""
        setups = self.setup_times(workload, SETUP_CHILDREN)
        runs: list[ChildRun] = []
        measured = 0.0
        # A child that runs out of input early is followed by one on a fresh chunk.
        while seconds - measured > 0.05 * seconds:
            run = self.child(workload, chunk_ops(workload, seed, len(runs), seconds), seconds - measured)
            runs.append(run)
            if len(run.times) > 1:
                measured += run.times[-1] - run.times[0]
            if run.problem or not run.ran_out:
                break
        tally = Tally()
        per_child = [run.gaps() for run in runs]
        gaps = [g for child in per_child for g in child]
        wall = [g for run in runs for g in run.wall_gaps()]
        for run in runs:
            tally.add(check_run(run))
        if not gaps:
            raise CannotRun("no op completed after the warm-up")
        tail, windows = tail_of(per_child, TAIL_WINDOW_OPS.get(workload))
        gaps.sort()
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(gaps) / sum(gaps),
            "op_p50_ms": 1e3 * statistics.median(gaps),
            "op_tail_ms": 1e3 * tail,
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "peak_rss_mb": max(run.rss_mb for run in runs),
        }
        slowness = [s for run in runs for _, s in run.speed]
        samples = {
            "ops": len(gaps), "tail": f"p{TAIL_PERCENTILE}", "tail_windows": windows,
            "ops_beyond_tail": sum(g > tail for g in gaps),
            "op_p99_ms": round(1e3 * percentile(gaps, 99), 4),
            "children": len(runs), "calibrations": len(slowness),
            "median_slowness": round(statistics.median(slowness), 4),
            "wall_ops_per_s": round(len(wall) / sum(wall), 3),
            "wall_op_p50_ms": round(1e3 * statistics.median(wall), 4),
        }
        if workload == "synth":
            samples["defect_probe"] = self.defect_probe(seed, tally)
        return metrics, tally, samples

    def defect_probe(self, seed: int, tally: Tally) -> dict:
        """Runs the synth targets of the band where synthesis is known to
        fail (ROADMAP defect 1) in a child of their own, after the
        measurement.  A measured workload must not fail, so these ops are
        not in ``attempted`` or ``failed``; their error count is reported
        instead, and a wrong answer or a crash still marks ``tally`` wrong."""
        probe = check_run(self.child("synth", workloads.defect_probe_ops(seed), LINE_TIMEOUT_S))
        tally.wrong += probe.wrong
        tally.crashes += probe.crashes
        return {"ops": probe.attempted - 1, "errors": sum(probe.errors.values()),
                "error_messages": sorted(probe.errors)}

    def measure_traced(self, workload: str, seed: int, seconds: float) -> tuple[dict, Tally, tracing.Tracer, dict]:
        """Per-layer metrics: an untraced child for a third of ``seconds``,
        then the ops it finished, again, in this process under the tracer."""
        self.setup_times(workload, 0)
        ops = chunk_ops(workload, seed, 0, seconds / 3)
        base = self.child(workload, ops, seconds / 3)
        tally = check_run(base)
        if len(base.times) < 2:
            raise CannotRun("no op completed after the warm-up")
        ops = ops[: len(base.lines)]
        path = self.workdir / "traced.jsonl"
        workloads.write_ops(path, ops)

        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        os.environ.pop("GATEFORGE_TOL", None)
        import gateforge.cli
        import trajectory_runner

        with self.core.pinned(), tracing.Tracer() as tracer:
            clock = tracing.LineClock(tracer, self.core.slowness)
            if workload == "trajectory":
                trajectory_runner.run(path.read_text(encoding="utf-8").splitlines(), clock)
            else:
                stdout, sys.stdout = sys.stdout, clock
                try:
                    gateforge.cli.main(["batch", "--input", str(path)])
                finally:
                    sys.stdout = stdout
        tally.add(check_lines(ops, clock.lines, True))
        ok = [json.loads(line).get("ok", False) for line in clock.lines]
        gaps = at_reference_speed(clock.times, clock.speed)
        slowness = gap_slowness(clock.times, clock.speed)
        metrics = tracer.metrics(ok, workloads.segments_of(ops), gaps, slowness)
        base_gaps = base.gaps()
        metrics["trace.overhead_ratio"] = (len(base_gaps) / sum(base_gaps)) / (len(gaps) / sum(gaps))
        per_call = {name: round(ms, 4) for name, ms in tracer.ms_per_call(slowness).items()}
        samples = {"ops": len(gaps), "slowness": round(statistics.median(slowness), 4),
                   "inclusive_ms_per_call": per_call}
        return metrics, tally, tracer, samples


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, math.ceil(pct / 100 * len(sorted_values)) - 1))
    return sorted_values[k]


def tail_of(per_child: list[list[float]], window: int | None) -> tuple[float, int]:
    """Tail percentile of the gaps of every child together or, given a
    ``window``, its median over the whole windows of that many consecutive
    gaps of one child; returns it with the number of windows (0 for none)."""
    windows = [sorted(gaps[i:i + window]) for gaps in per_child
               for i in range(0, len(gaps) - window + 1, window)] if window else []
    if not windows:
        return percentile(sorted(g for gaps in per_child for g in gaps), TAIL_PERCENTILE), 0
    return statistics.median(percentile(w, TAIL_PERCENTILE) for w in windows), len(windows)


def report(workload: str, metrics: dict, units: dict, tally: Tally, samples: dict) -> None:
    """Human-readable lines for one workload."""
    for name, value in metrics.items():
        print(f"{workload:<10} {name:<58} {value:>14.6g} {units[name]}")
    print(f"{workload:<10} samples: {json.dumps(samples)}")
    print(f"{workload:<10} attempted {tally.attempted}, failed {tally.failed}"
          f" ({len(tally.wrong)} wrong answers, {sum(tally.errors.values())} error lines)")
    for message, count in tally.errors.most_common(5):
        print(f"{workload:<10}   error x{count}: {message}")
    for problem in (tally.wrong + tally.crashes)[:10]:
        print(f"{workload:<10}   WRONG: {problem}", file=sys.stderr)


def layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.metric_names():
        stat = name.rsplit(".", 1)[1]
        units[name] = "ms" if stat.endswith("ms_per_op") else "count" if "per_op" in stat else "ratio"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gateforge end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    total = Tally()
    combined: dict[str, dict] = {}
    bench = None
    try:
        bench = Bench(workdir)
        for workload in names:
            if args.trace:
                metrics, tally, tracer, samples = bench.measure_traced(workload, args.seed, args.seconds)
                (WORK / "spans").mkdir(exist_ok=True)
                tracer.write_spans(WORK / "spans" / f"{workload}-seed{args.seed}.jsonl")
                units = layer_units()
            else:
                metrics, tally, samples = bench.measure(workload, args.seed, args.seconds)
                units = END_TO_END_UNITS
            report(workload, metrics, units, tally, samples)
            total.add(tally)
            prefix = f"{workload}." if len(names) > 1 else ""
            for name, value in metrics.items():
                combined[prefix + name] = {"value": value, "unit": units[name]}
    except CannotRun as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": total.correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": combined}))
    return 0 if total.correct else 1


if __name__ == "__main__":
    sys.exit(main())
