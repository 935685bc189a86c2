"""Seeded generators for the four benchmark workloads.

Each workload is a stream of JSON-lines ops plus, for every op, what the
oracle needs to check the answer.  Categorical shares (op kinds, wall and
landmark gates, the weak slice, drift kinds, segment counts) are dealt from
shuffled decks rather than drawn independently, so every stretch of a run
has the stated mix and seeds differ only in the values inside each
category.  The same ``(seed, chunk)`` always gives the same ops.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle
from oracle import QUARTER_PI

#: First line of every child's input: a fixed op whose result marks the end
#: of interpreter start, imports and lazy set-up.
WARMUP = {"cmd": "canon", "gate": "CNOT"}
WARMUP_EXPECT = {"cmd": "canon", "beta": np.array([QUARTER_PI, 0.0, 0.0])}

# Shares, as deck contents.  They are the record of each workload's mix.
ANALYZE_CMDS = ["canon"] * 5 + ["canon_full"] * 3 + ["cost"] * 5 + ["classify"] * 3 + ["order"] * 2 + ["commcost"] * 2
#: About 3/4 of gates uniform in the chamber, 1/4 on a wall or a landmark.
GATE_KINDS = ["chamber"] * 3 + ["special"]
SPECIAL_KINDS = [
    "named_cnot", "named_dcnot", "named_swap", "named_controlled_u", "family",
    "wall_a1_eq_a2", "wall_a2_eq_abs_a3", "wall_a3_zero", "wall_a1_pi4", "dressed_landmark",
]
#: synth targets: 13 chamber, 5 wall/landmark and 2 weak in every 20.
SYNTH_TARGETS = ["chamber"] * 13 + ["special"] * 5 + ["weak"] * 2
#: Weak contents: the largest component is log-uniform over these ranges of
#: log10, taken together, one stratum per deal.  The decades between them
#: hold the band where synthesis raises ``NoTripleFoundError`` (ROADMAP
#: defect 1); a measured workload must not fail, so that band is run apart,
#: as the defect probe below.
WEAK_STRATA = 12
WEAK_LOG_RANGES = ((-12.0, -10.0), (-3.0, math.log10(QUARTER_PI)))
#: Defect probe: synth targets whose content is log-uniform over the band,
#: about 3e-9 to 2e-5, where synthesis is known to fail at present, one per
#: stratum.  ``run.py`` reports how many fail, apart from the measured ops.
DEFECT_LOG_RANGES = ((math.log10(3e-9), math.log10(2e-5)),)
DEFECT_PROBE_OPS = 12
#: Chunk number of the probe's generator, far beyond any measured chunk.
DEFECT_PROBE_CHUNK = 1_000_000
#: synth drifts: 4 random s-ordered alpha, 3 coupling matrices, 1 each of
#: scaled Ising (1,0,0), XY (1,1,0) and Heisenberg (1,1,1) in every 10.
SYNTH_DRIFTS = ["alpha"] * 4 + ["coupling"] * 3 + ["ising", "xy", "heisenberg"]
ANALYZE_HAMS = ["alpha", "coupling"]
COMM_TASKS = [
    "cbit-a-to-b", "cbit-both-ways", "qubit-a-to-b",
    "qubit-a-to-b-plus-cbit-b-to-a", "qubit-both-ways",
]
#: verify and trajectory protocols: 1 to 10 segments, each once per deal,
#: and 6 and 10 twice.  Op time grows with segments in steps; with an even
#: deck the median and p90 ops fall on the edges between steps, where they
#: jump from run to run.  Here they fall inside the 6- and 10-segment steps.
SEGMENT_COUNTS = list(range(1, 11)) + [6, 10]
#: verify targets: half exact, half perturbed by about 1e-3.
VERDICTS = [True, False]
PERTURBATION = 1e-3

WORKLOADS = ("analyze", "synth", "verify", "trajectory")


class Deck:
    """Endless stream dealing each item of ``items`` once per shuffled round."""

    def __init__(self, items, rng: np.random.Generator) -> None:
        self.items = list(items)
        self.rng = rng
        self.queue: list = []

    def deal(self):
        if not self.queue:
            self.queue = [self.items[i] for i in self.rng.permutation(len(self.items))]
        return self.queue.pop()


def _matrix_json(m: np.ndarray) -> dict:
    return {"matrix": [[z.real, z.imag] for z in m.ravel().tolist()]}


def _cx(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def _m2(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def chamber_content(rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of the chamber ``pi/4 >= a1 >= a2 >= |a3|``.

    The chamber's volume density of ``a1`` is proportional to ``a1**2`` and,
    given ``a1``, that of ``a2`` to ``a2``; ``a3`` is then uniform.
    """
    u1, u2, u3 = rng.random(3)
    a1 = QUARTER_PI * u1 ** (1 / 3)
    a2 = a1 * math.sqrt(u2)
    return np.array([a1, a2, a2 * (2 * u3 - 1)])


def random_alpha(rng: np.random.Generator) -> np.ndarray:
    """s-ordered drift with moduli in [0.1, 1.5] and a random product sign."""
    return oracle.s_order(rng.uniform(0.1, 1.5, size=3) * rng.choice([-1.0, 1.0], size=3))


class Generator:
    """Deterministic op source for one ``(workload, seed, chunk)``."""

    def __init__(self, workload: str, seed: int, chunk: int) -> None:
        self.workload = workload
        rng = self.rng = np.random.default_rng([seed, chunk, WORKLOADS.index(workload)])
        self.cmds = Deck(ANALYZE_CMDS, rng)
        self.gate_kinds = Deck(GATE_KINDS, rng)
        self.special = Deck(SPECIAL_KINDS, rng)
        self.targets = Deck(SYNTH_TARGETS, rng)
        self.weak = Deck(range(WEAK_STRATA), rng)
        self.drifts = Deck(SYNTH_DRIFTS, rng)
        self.hams = Deck(ANALYZE_HAMS, rng)
        self.tasks = Deck(COMM_TASKS, rng)
        self.segments = Deck(SEGMENT_COUNTS, rng)
        self.verdicts = Deck(VERDICTS, rng)

    def ops(self, n: int) -> list[tuple[dict, dict]]:
        """``n`` ops after the warm-up, as ``(line, expect)`` pairs."""
        make = getattr(self, "_" + self.workload)
        return [(WARMUP, WARMUP_EXPECT)] + [make() for _ in range(n)]

    # -- gates ------------------------------------------------------------

    def special_gate(self) -> tuple[object, np.ndarray]:
        """A gate on a chamber wall or a landmark: ``(batch gate spec, content)``."""
        rng = self.rng
        kind = self.special.deal()
        if kind == "named_cnot":
            return "CNOT", np.array([QUARTER_PI, 0.0, 0.0])
        if kind == "named_dcnot":
            return "DCNOT", np.array([QUARTER_PI, QUARTER_PI, 0.0])
        if kind == "named_swap":
            return "SWAP", np.array([QUARTER_PI] * 3)
        if kind == "named_controlled_u":
            b = float(rng.uniform(0.0, QUARTER_PI))
            return {"controlled_u": b}, np.array([b, 0.0, 0.0])
        a1, a2 = np.sort(rng.uniform(0.0, QUARTER_PI, size=2))[::-1]
        if kind == "family":
            beta = np.array([QUARTER_PI, QUARTER_PI, rng.uniform(0.0, QUARTER_PI)])
        elif kind == "wall_a1_eq_a2":
            beta = np.array([a1, a1, rng.uniform(-a1, a1)])
        elif kind == "wall_a2_eq_abs_a3":
            beta = np.array([a1, a2, rng.choice([-1.0, 1.0]) * a2])
        elif kind == "wall_a3_zero":
            beta = np.array([a1, a2, 0.0])
        elif kind == "wall_a1_pi4":
            beta = np.array([QUARTER_PI, a1, rng.uniform(0.0, a1)])
        else:
            beta = QUARTER_PI * np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]][rng.integers(3)], dtype=float)
        return _matrix_json(oracle.dressed_gate(beta, rng)), beta

    def weak_gate(self, ranges=WEAK_LOG_RANGES) -> tuple[dict, np.ndarray]:
        """Dressed gate whose largest content component is log-uniform over
        ``ranges`` of log10, taken together."""
        stratum = self.weak.deal()
        x = (stratum + self.rng.random()) / WEAK_STRATA * sum(hi - lo for lo, hi in ranges)
        for lo, hi in ranges:
            if x <= hi - lo:
                break
            x -= hi - lo
        r = 10.0 ** (lo + x)
        u2 = self.rng.random()
        beta = r * np.array([1.0, u2, self.rng.uniform(-u2, u2)])
        return _matrix_json(oracle.dressed_gate(beta, self.rng)), beta

    def gate(self) -> tuple[object, np.ndarray]:
        if self.gate_kinds.deal() == "special":
            return self.special_gate()
        beta = chamber_content(self.rng)
        return _matrix_json(oracle.dressed_gate(beta, self.rng)), beta

    # -- drifts -----------------------------------------------------------

    def drift_fields(self, kind: str) -> tuple[dict, np.ndarray]:
        """Batch fields naming a drift, and its canonical coefficient vector."""
        rng = self.rng
        if kind in ("ising", "xy", "heisenberg"):
            unit = {"ising": [1.0, 0.0, 0.0], "xy": [1.0, 1.0, 0.0], "heisenberg": [1.0, 1.0, 1.0]}[kind]
            alpha = float(rng.uniform(0.2, 2.0)) * np.array(unit)
            return {"alpha": alpha.tolist()}, alpha
        alpha = random_alpha(rng)
        if kind == "coupling":
            c = oracle.random_rotation(rng) @ np.diag(alpha) @ oracle.random_rotation(rng).T
            return {"coupling": c.tolist()}, alpha
        # Present an equivalent permuted vector with an even number of sign flips.
        flips = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)][rng.integers(4)]
        shown = (alpha * flips)[rng.permutation(3)]
        return {"alpha": shown.tolist()}, alpha

    # -- workloads --------------------------------------------------------

    def _analyze(self) -> tuple[dict, dict]:
        cmd = self.cmds.deal()
        if cmd == "order":
            (gu, bu), (gv, bv) = self.gate(), self.gate()
            return {"cmd": "order", "gate_u": gu, "gate_v": gv}, {"cmd": "order", "beta_u": bu, "beta_v": bv}
        if cmd == "commcost":
            fields, alpha = self.drift_fields(self.hams.deal())
            task = self.tasks.deal()
            return {"cmd": "commcost", "task": task, **fields}, {"cmd": "commcost", "task": task, "alpha": alpha}
        spec, beta = self.gate()
        if cmd == "cost":
            fields, alpha = self.drift_fields(self.hams.deal())
            return {"cmd": "cost", "gate": spec, **fields}, {"cmd": "cost", "beta": beta, "alpha": alpha}
        if cmd == "classify":
            return {"cmd": "classify", "gate": spec}, {"cmd": "classify", "beta": beta}
        full = cmd == "canon_full"
        line = {"cmd": "canon", "gate": spec, **({"full": True} if full else {})}
        expect = {"cmd": "canon", "beta": beta, "full": full}
        if full:
            expect["gate"] = gate_matrix(spec, beta)
        return line, expect

    def _synth(self, kind: str | None = None) -> tuple[dict, dict]:
        kind = kind or self.targets.deal()
        if kind == "weak":
            spec, beta = self.weak_gate()
        elif kind == "defect":
            spec, beta = self.weak_gate(DEFECT_LOG_RANGES)
        elif kind == "special":
            spec, beta = self.special_gate()
        else:
            beta = chamber_content(self.rng)
            spec = _matrix_json(oracle.dressed_gate(beta, self.rng))
        fields, alpha = self.drift_fields(self.drifts.deal())
        line = {"cmd": "synth", "gate": spec, **fields}
        return line, {"cmd": "synth", "beta": beta, "alpha": alpha, "gate": gate_matrix(spec, beta)}

    def protocol(self) -> dict:
        """Random protocol in gateforge's JSON format."""
        rng = self.rng

        def pair() -> dict:
            return {"u_a": _m2(oracle.random_su2(rng)), "u_b": _m2(oracle.random_su2(rng)), "phase": [1.0, 0.0]}

        segments = [{**pair(), "duration": float(rng.uniform(0.0, 1.0))} for _ in range(self.segments.deal())]
        proto = {
            "hamiltonian_alpha": random_alpha(rng).tolist(),
            "opening": pair(),
            "segments": segments,
            "closing": pair(),
            "global_phase": _cx(np.exp(2j * math.pi * rng.random())),
            "total_time": sum(s["duration"] for s in segments),
        }
        return proto

    def _verify(self) -> tuple[dict, dict]:
        proto = self.protocol()
        target = oracle.protocol_matrix(proto)
        passed = self.verdicts.deal()
        if not passed:
            g = self.rng.normal(size=(4, 4)) + 1j * self.rng.normal(size=(4, 4))
            w, v = np.linalg.eigh((g + g.conj().T) / 2)
            kick = (v * np.exp(-1j * PERTURBATION * w / np.max(np.abs(w)))) @ v.conj().T
            target = target @ kick
        line = {"cmd": "verify", "protocol": proto, "gate": _matrix_json(target)}
        return line, {"cmd": "verify", "passed": passed, "segments": len(proto["segments"])}

    def _trajectory(self) -> tuple[dict, dict]:
        proto = self.protocol()
        return {"cmd": "trajectory", "protocol": proto}, {"cmd": "trajectory", "segments": len(proto["segments"])}


def defect_probe_ops(seed: int) -> list[tuple[dict, dict]]:
    """The warm-up and ``DEFECT_PROBE_OPS`` synth ops in the defect band."""
    gen = Generator("synth", seed, DEFECT_PROBE_CHUNK)
    return [(WARMUP, WARMUP_EXPECT)] + [gen._synth("defect") for _ in range(DEFECT_PROBE_OPS)]


_NAMED = {
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "DCNOT": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]], dtype=complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def gate_matrix(spec, beta) -> np.ndarray:
    """Matrix of a batch gate spec made by :class:`Generator`."""
    if isinstance(spec, str):
        return _NAMED[spec]
    if "controlled_u" in spec:
        b = spec["controlled_u"]
        return np.diag([1, 1, np.exp(2j * b), np.exp(-2j * b)])
    return oracle.matrix4_of(spec["matrix"])


def write_ops(path, ops) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line, _ in ops:
            fh.write(json.dumps(line))
            fh.write("\n")


def segments_of(ops) -> list[int]:
    """Segment count of each protocol op (0 for ops without one)."""
    return [expect.get("segments", 0) for _, expect in ops]

