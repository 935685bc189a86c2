"""Tests of the benchmark itself: seeded inputs, the oracle and the tracer.

    python3 benchmarks/selftest.py          # or: python3 -m pytest benchmarks/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _serialized(workload: str, seed: int, chunk: int = 0, n: int = 40) -> list[str]:
    return [json.dumps(line) for line, _ in workloads.Generator(workload, seed, chunk).ops(n)]


def _answers(workload: str, n: int, tmp: Path) -> tuple[list, list[dict]]:
    """Generated ops and gateforge's replies to them, run in this process."""
    import gateforge.cli
    import trajectory_runner

    ops = workloads.Generator(workload, 3, 0).ops(n)
    path = tmp / f"{workload}.jsonl"
    workloads.write_ops(path, ops)
    out = io.StringIO()
    if workload == "trajectory":
        trajectory_runner.run(path.read_text().splitlines(), out)
    else:
        with contextlib.redirect_stdout(out):
            gateforge.cli.main(["batch", "--input", str(path)])
    return ops, [json.loads(line) for line in out.getvalue().splitlines()]


def _first_ok(ops, replies, cmd: str, **match) -> tuple[dict, dict]:
    for (_, expect), reply in zip(ops, replies):
        if reply["ok"] and expect["cmd"] == cmd and all(expect.get(k) == v for k, v in match.items()):
            return copy.deepcopy(reply["result"]), expect
    raise AssertionError(f"no successful {cmd} op")


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert _serialized(workload, 5) == _serialized(workload, 5)
        assert _serialized(workload, 5) != _serialized(workload, 6)
        assert _serialized(workload, 5, chunk=0) != _serialized(workload, 5, chunk=1)


def test_decks_keep_the_stated_shares():
    rounds = 4 * len(workloads.SEGMENT_COUNTS)
    ops = workloads.Generator("verify", 1, 0).ops(rounds)[1:]
    assert sorted(workloads.segments_of(ops)) == sorted(workloads.SEGMENT_COUNTS * 4)
    assert sum(expect["passed"] for _, expect in ops) == rounds // 2


def test_weak_targets_skip_the_defect_band_and_the_probe_stays_in_it():
    gen = workloads.Generator("synth", 1, 0)
    weak = [np.log10(np.max(np.abs(gen._synth("weak")[1]["beta"]))) for _ in range(240)]
    (lo1, hi1), (lo2, hi2) = workloads.WEAK_LOG_RANGES
    assert all(lo1 <= x <= hi1 or lo2 - 1e-12 <= x <= hi2 for x in weak)
    assert min(weak) < lo1 + 0.5 and max(weak) > hi2 - 0.5
    probe = workloads.defect_probe_ops(1)
    assert probe[0][0] == workloads.WARMUP and len(probe) == workloads.DEFECT_PROBE_OPS + 1
    (lo, hi), = workloads.DEFECT_LOG_RANGES
    assert all(lo <= np.log10(np.max(np.abs(e["beta"]))) <= hi for _, e in probe[1:])
    assert hi1 < lo and hi < lo2


def test_oracle_accepts_gateforge_and_flags_tampering(tmp_path: Path):
    ops, replies = _answers("analyze", 60, tmp_path)
    assert all(oracle.check(r["result"], e) is None for (_, e), r in zip(ops, replies) if r["ok"])
    result, expect = _first_ok(ops, replies, "canon")
    result["alpha"][1] += 1e-6
    assert oracle.check(result, expect) is not None, "wrong content passed"
    result, expect = _first_ok(ops, replies, "cost")
    result["cost"] *= 1 + 1e-6
    assert oracle.check(result, expect) is not None, "wrong cost passed"

    ops, replies = _answers("verify", 12, tmp_path)
    assert all(oracle.check(r["result"], e) is None for (_, e), r in zip(ops, replies))
    for passed in (True, False):
        result, expect = _first_ok(ops, replies, "verify", passed=passed)
        result["passed"] = not result["passed"]
        assert oracle.check(result, expect) is not None, "flipped verdict passed"

    ops, replies = _answers("synth", 12, tmp_path)
    assert all(oracle.check(r["result"], e) is None for (_, e), r in zip(ops, replies) if r["ok"])
    result, expect = _first_ok(ops, replies, "synth")
    closing = result["protocol"]["closing"]
    u_a = oracle.matrix2_of(closing["u_a"]) @ np.diag(np.exp([1e-6j, -1e-6j]))
    closing["u_a"] = [[[z.real, z.imag] for z in row] for row in u_a.tolist()]
    assert oracle.check(result, expect) is not None, "protocol off by 1e-6 passed"


def test_tracer_counts_and_restores_originals(tmp_path: Path):
    import gateforge

    def bindings():
        mods = [m for n, m in sys.modules.items() if n == "gateforge" or n.startswith("gateforge.")]
        pairs = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        pairs[("LocalUnitaryPair", "matrix")] = gateforge.LocalUnitaryPair.__dict__["matrix"]
        return pairs

    before = bindings()
    original_verify = gateforge.protocol.verify
    ops = workloads.Generator("synth", 4, 0).ops(6)
    path = tmp_path / "synth.jsonl"
    workloads.write_ops(path, ops)
    with tracing.Tracer() as tracer:
        assert gateforge.protocol.verify is not original_verify
        assert gateforge.protocol.verify.__wrapped__ is original_verify
        clock = tracing.LineClock(tracer)
        with contextlib.redirect_stdout(clock):
            gateforge.cli.main(["batch", "--input", str(path)])
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a wrapper was left behind"

    ok = [json.loads(line)["ok"] for line in clock.lines]
    assert any(ok[1:])
    gaps = [b - a for a, b in zip(clock.times, clock.times[1:])]
    metrics = tracer.metrics(ok, workloads.segments_of(ops), gaps, [1.0] * len(gaps))
    assert set(metrics) == set(tracing.metric_names()) - {"trace.overhead_ratio"}
    assert metrics["protocol.synthesize.calls_per_op"] == 1
    assert metrics["protocol.verify.calls_per_op"] == 2
    assert metrics["linalg.joint_diagonalize_symmetric_unitary.calls_per_op"] == 5


def test_percentile_is_nearest_rank():
    import run

    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 99) == 99.0
    assert run.percentile(values, 90) == 90.0
    assert run.percentile([1.0, 2.0], 50) == 1.0


def test_windowed_tail_is_the_median_of_whole_windows():
    import run

    child = [float(v) for v in range(1, 11)] * 2 + [100.0] * 5  # the partial window is left out
    assert run.tail_of([child], 10) == (9.0, 2)
    assert run.tail_of([child, [1.0] * 10], 10) == (9.0, 3)
    assert run.tail_of([child], None) == (100.0, 0)
    assert run.tail_of([[1.0, 2.0]], 10) == (2.0, 0)


if __name__ == "__main__":
    import tempfile

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                if "tmp_path" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
                    scratch = BENCH.parent / ".benchrun"
                    scratch.mkdir(exist_ok=True)
                    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                        fn(Path(tmp))
                else:
                    fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
