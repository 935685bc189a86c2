"""Per-layer tracing of gateforge from outside the package.

:class:`Tracer` wraps the public function of each layer in a timing span and
the hot tiny helpers in a bare counter.  Because gateforge modules import
each other's functions by name (``from .linalg import kron_factor``), a
wrapper is bound under every name, in every loaded gateforge module, that
refers to the original object; leaving the ``with`` block restores each of
those bindings to the original object.

Spans stay in memory as ``[name, op, parent, start, end, raised]`` and are
reduced to per-op metrics at the end.  The op id is advanced by
:class:`LineClock`, the stdout stand-in that sees each result line.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

from children import CALIBRATE_EVERY_S

#: ``(module, attribute)`` of every layer function timed with a span.
SPANNED = (
    ("linalg", "joint_diagonalize_symmetric_unitary"),
    ("linalg", "kron_factor"),
    ("linalg", "drift_exponential"),
    ("linalg", "LocalUnitaryPair.matrix"),
    ("canonical", "interaction_content"),
    ("canonical", "kak_decompose"),
    ("majorization", "birkhoff_express"),
    ("cost", "interaction_cost"),
    ("cost", "feasible"),
    ("protocol", "synthesize"),
    ("protocol", "verify"),
    ("protocol", "simulate"),
    ("protocol", "trajectory_check"),
    ("comm", "classify"),
    ("comm", "task_cost"),
    ("cli", "protocol_from_json"),
    ("cli", "protocol_to_json"),
)
#: Hot tiny helpers: counted only, since a span would cost more than they do.
COUNTED = (("canonical", "s_order"), ("majorization", "s_majorizes"))
STATS = ("calls_per_op", "self_ms_per_op", "errors_per_op")
BIRKHOFF = "majorization.birkhoff_express"


def metric_names() -> list[str]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    names = [f"{m}.{f}.{s}" for m, f in SPANNED for s in STATS]
    names += [f"{m}.{f}.calls_per_op" for m, f in COUNTED]
    names += [f"{BIRKHOFF}.terms_{k}_share" for k in (1, 2, 3)]
    names += ["cli.self_ms_per_op", "trace.segments_per_op", "trace.overhead_ratio"]
    return names


class Tracer:
    """Installs the wrappers on entry and removes them on exit."""

    def __init__(self) -> None:
        self.op = 0
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (name, op) -> calls
        self.terms: Counter = Counter()  # (op, certificate length) -> calls
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "gateforge" or n.startswith("gateforge.")]
        for mod_name, attr in SPANNED + COUNTED:
            name = f"{mod_name}.{attr}"
            owner = importlib.import_module("gateforge." + mod_name)
            if "." in attr:  # a method: patch it once, on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._spanned(name, original))
                continue
            original = getattr(owner, attr)
            make = self._spanned if (mod_name, attr) in SPANNED else self._counted
            wrapper = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if name == BIRKHOFF:
                self.terms[(self.op, len(result.terms))] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(name, self.op)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end, raised in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent,
                                     "start": start, "end": end, "raised": raised}) + "\n")

    def ms_per_call(self, slowness: list[float]) -> dict[str, float]:
        """Inclusive span time per call, at reference speed, by function;
        ``slowness[k - 1]`` is the core's slowness during op ``k``."""
        total, calls = Counter(), Counter()
        for name, op, _, start, end, _ in self.spans:
            if 1 <= op <= len(slowness):
                total[name] += (end - start) / slowness[op - 1]
                calls[name] += 1
        return {name: 1e3 * total[name] / calls[name] for name in calls}

    def metrics(self, ok: list[bool], segments: list[int], op_s: list[float], slowness: list[float]) -> dict[str, float]:
        """Per-op layer metrics for ops ``1..len(ok)-1`` (op 0 is the warm-up).

        ``calls_per_op`` counts calls made in ops that succeeded, so it
        repeats exactly while the code path is unchanged; ``self_ms_per_op``
        and ``errors_per_op`` are over every op.  Op ``k`` took ``op_s[k - 1]``
        seconds at reference speed, on a core of slowness ``slowness[k - 1]``,
        which scales its spans; what library spans do not cover of the ops is
        the front end's own time, ``cli.self_ms_per_op``.
        """
        n = len(ok) - 1
        good = {i for i in range(1, n + 1) if ok[i]}
        n_good = max(len(good), 1)
        calls, self_s, errors = Counter(), Counter(), Counter()
        children = Counter()
        for _, op, parent, start, end, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        top_level_s = 0.0
        for i, (name, op, parent, start, end, raised) in enumerate(self.spans):
            if not 1 <= op <= n:
                continue
            calls[name] += op in good
            self_s[name] += (end - start - children[i]) / slowness[op - 1]
            errors[name] += raised
            if parent < 0:
                top_level_s += (end - start) / slowness[op - 1]
        for (name, op), count in self.counts.items():
            if op in good:
                calls[name] += count
        out: dict[str, float] = {}
        for mod, fn in SPANNED:
            name = f"{mod}.{fn}"
            out[f"{name}.calls_per_op"] = calls[name] / n_good
            out[f"{name}.self_ms_per_op"] = 1e3 * self_s[name] / n
            out[f"{name}.errors_per_op"] = errors[name] / n
        for mod, fn in COUNTED:
            out[f"{mod}.{fn}.calls_per_op"] = calls[f"{mod}.{fn}"] / n_good
        by_length = Counter()
        for (op, length), count in self.terms.items():
            if 1 <= op <= n:
                by_length[length] += count
        total = sum(by_length.values())
        for k in (1, 2, 3):
            out[f"{BIRKHOFF}.terms_{k}_share"] = by_length[k] / total if total else 0.0
        out["cli.self_ms_per_op"] = 1e3 * (sum(op_s[:n]) - top_level_s) / n
        out["trace.segments_per_op"] = sum(segments[i] for i in good) / n_good
        return out


class LineClock:
    """Text stream that stamps each completed line and advances the op id.

    Given ``calibrate``, a function returning the core's slowness, it calls
    it at a line boundary every ``CALIBRATE_EVERY_S`` and cuts the time that
    takes out of its clock, as the harness does for a child process.
    """

    def __init__(self, tracer: Tracer | None = None, calibrate=None) -> None:
        self.tracer = tracer
        self.calibrate = calibrate
        self.lines: list[str] = []
        self.times: list[float] = []
        self.speed: list[tuple[float, float]] = []  # (time, slowness)
        self._paused = 0.0
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            now = time.perf_counter() - self._paused
            self.times.append(now)
            self.lines.append(line)
            if self.tracer is not None:
                self.tracer.op += 1
            if self.calibrate is not None and (not self.speed or now >= self.speed[-1][0] + CALIBRATE_EVERY_S):
                start = time.perf_counter()
                self.speed.append((now, self.calibrate()))
                self._paused += time.perf_counter() - start
        return len(text)

    def flush(self) -> None:
        pass
