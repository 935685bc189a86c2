"""Library runner for the ``trajectory`` workload.

Reads JSON lines like ``gateforge batch`` does and prints one result line per
op.  ``{"cmd": "trajectory", "protocol": {...}}`` runs
``gateforge.trajectory_check`` on the protocol; the warm-up line
``{"cmd": "canon", "gate": "CNOT"}`` computes the CNOT content.  Protocol
numbers are read at full precision and used as given, so the op measures
``trajectory_check`` and not a deserializer.

Usage: ``PYTHONPATH=src python3 benchmarks/trajectory_runner.py --input ops.jsonl``
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

import gateforge


def _complex(z) -> complex:
    return complex(float(z[0]), float(z[1]))


def _pair(obj: dict) -> gateforge.LocalUnitaryPair:
    def m2(rows):
        return np.array([[_complex(rows[i][j]) for j in range(2)] for i in range(2)])

    return gateforge.LocalUnitaryPair(m2(obj["u_a"]), m2(obj["u_b"]), _complex(obj["phase"]))


def _protocol(obj: dict) -> gateforge.Protocol:
    return gateforge.Protocol(
        opening=_pair(obj["opening"]),
        segments=tuple(gateforge.Segment(_pair(s), float(s["duration"])) for s in obj["segments"]),
        closing=_pair(obj["closing"]),
        hamiltonian_alpha=np.asarray(obj["hamiltonian_alpha"], dtype=float),
        global_phase=_complex(obj["global_phase"]),
    )


def _op(obj: dict) -> dict:
    if obj.get("cmd") == "trajectory":
        return {"passed": bool(gateforge.trajectory_check(_protocol(obj["protocol"])))}
    if obj.get("cmd") == "canon" and obj.get("gate") == "CNOT":
        alpha = gateforge.interaction_content(gateforge.CNOT)
        return {"alpha": alpha.tolist(), "lambda": gateforge.alpha_to_lambda(alpha).tolist()}
    raise ValueError(f"unsupported line {obj.get('cmd')!r}")


def run(lines, out) -> None:
    """Processes every line, writing one JSON result line per op to ``out``."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            result = {"ok": True, "result": _op(json.loads(line))}
        except (gateforge.GateforgeError, ValueError, KeyError, TypeError) as exc:
            result = {"ok": False, "error": str(exc)}
        out.write(json.dumps(result) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    args = parser.parse_args()
    with open(args.input, encoding="utf-8") as fh:
        lines = fh.readlines()
    run(lines, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
