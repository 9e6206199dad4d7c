"""Command-line interface.

Subcommands::

    shallowcheck describe  CIRCUIT [--out PATH] [--cap N]
    shallowcheck equiv     A B [--mode weak|strong] [--threshold X] [--report PATH]
    shallowcheck assert    CIRCUIT ASSERTIONS [--threshold X]
    shallowcheck random    --n N --depth D [--seed S] [--out PATH]
    shallowcheck simulate  CIRCUIT [--out PATH]
    shallowcheck bench     --mode M --n-range A:B:STEP --depth D --csv PATH
                           [--trials T] [--seed S]

Exit codes: 0 on success (for ``equiv`` and ``assert``, a passing
verdict), 1 for a failing verdict, 2 for malformed input or an invalid
circuit, 3 when a computation would exceed a capacity cap or runs out
of memory.  All file writes go through a temporary file in the
destination directory followed by an atomic replace, so an interrupted
run never leaves a truncated output behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import partial
from time import perf_counter

import numpy as np

from .assertion import verify_static
from .circuit import circuit_from_json, circuit_to_json, random_circuit
from .config import DEFAULT_ORACLE_CAP, EQUIV_THRESHOLD
from .description import (
    compute_description,
    description_to_json,
    projection_entries_from_json,
)
from .equivalence import check_strong, check_weak
from .errors import (
    CapacityError,
    DomainError,
    SchemaError,
    ValidationError,
)
from .oracle import simulate

__all__ = ["main"]

CSV_HEADER = "mode,n,depth,trial,seed,seconds,max_support,max_linf"


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None


def _write_text(path: str, text: str) -> None:
    """Write atomically: temp file in the target directory, then replace."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out is None:
        print(text)
    else:
        _write_text(out, text + "\n")


def _load_circuit(path: str):
    return circuit_from_json(_load_json(path))


def cmd_describe(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    description = compute_description(circuit, cap=args.cap)
    _emit(description_to_json(description), args.out)
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    c0 = _load_circuit(args.a)
    c1 = _load_circuit(args.b)
    check = check_strong if args.mode == "strong" else check_weak
    report = check(c0, c1, threshold=args.threshold)
    payload = report.to_json()
    print(json.dumps(payload, indent=2))
    if args.report is not None:
        _write_text(args.report, json.dumps(payload, indent=2) + "\n")
    return 0 if report.equivalent else 1


def cmd_assert(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    n_qubits, entries = projection_entries_from_json(_load_json(args.assertions))
    if n_qubits != circuit.n_qubits:
        raise DomainError(
            f"assertion file declares {n_qubits} qubit(s) but the circuit "
            f"has {circuit.n_qubits}"
        )
    checks = verify_static(circuit, entries, threshold=args.threshold)
    payload = {
        "entries": [
            {
                "index": ch.index,
                "support": list(ch.support),
                "l1": ch.residual.l1,
                "l2": ch.residual.l2,
                "linf": ch.residual.linf,
                "holds": ch.holds,
            }
            for ch in checks
        ],
        "all_hold": all(ch.holds for ch in checks),
    }
    print(json.dumps(payload, indent=2))
    return 0 if payload["all_hold"] else 1


def cmd_random(args: argparse.Namespace) -> int:
    circuit = random_circuit(args.n, args.depth, seed=args.seed)
    _emit(circuit_to_json(circuit), args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    state = simulate(circuit, cap=DEFAULT_ORACLE_CAP)
    payload = {
        "n_qubits": circuit.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state],
    }
    _emit(payload, args.out)
    return 0


def _parse_n_range(text: str) -> list[int]:
    """Parse ``A:B:STEP`` (inclusive of B when on the grid) or a bare int."""
    parts = text.split(":")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise DomainError(f"bad --n-range {text!r}: expected A:B:STEP or N") from None
    if len(numbers) == 1:
        return numbers
    if len(numbers) != 3:
        raise DomainError(f"bad --n-range {text!r}: expected A:B:STEP or N")
    start, stop, step = numbers
    if step < 1:
        raise DomainError(f"bad --n-range {text!r}: step must be positive")
    if stop < start:
        raise DomainError(f"bad --n-range {text!r}: stop is below start")
    return list(range(start, stop + 1, step))


def _derived_seed(master: int, n: int, depth: int, trial: int, salt: int) -> int:
    """Deterministic per-row seed, decorrelated across all parameters."""
    seq = np.random.SeedSequence([master, n, depth, trial, salt])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _bench_row(mode: str, n: int, depth: int, trial: int, seed: int) -> str:
    circuit = random_circuit(n, depth, seed=seed)
    if mode == "describe":
        run = partial(compute_description, circuit)
    else:
        other_seed = _derived_seed(seed, n, depth, trial, 1) if mode == "inequiv" else seed
        other = random_circuit(n, depth, seed=other_seed)
        run = partial(check_strong if mode == "strong" else check_weak, circuit, other)
    prefix = f"{mode},{n},{depth},{trial},{seed}"
    start = perf_counter()
    try:
        result = run()
    except CapacityError as e:
        elapsed = perf_counter() - start
        print(f"note: n={n} depth={depth} trial={trial}: {e}", file=sys.stderr)
        support = "" if e.size is None else e.size
        return f"{prefix},{elapsed:.6f},{support},"
    elapsed = perf_counter() - start
    if mode == "describe":
        max_support = max(len(p.support) for p in result.projections)
        return f"{prefix},{elapsed:.6f},{max_support},"
    return f"{prefix},{elapsed:.6f},{result.max_support},{result.max_linf:.17g}"


def cmd_bench(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise DomainError(f"--seed must be non-negative, got {args.seed}")
    if args.trials < 1:
        raise DomainError(f"--trials must be positive, got {args.trials}")
    if args.depth < 0:
        raise DomainError(f"--depth must be non-negative, got {args.depth}")
    sizes = _parse_n_range(args.n_range)
    if sizes[0] < 2:
        raise DomainError(f"bad --n-range {args.n_range!r}: sizes must be at least 2")
    rows = []
    for n in sizes:
        for trial in range(args.trials):
            seed = _derived_seed(args.seed, n, args.depth, trial, 0)
            rows.append(_bench_row(args.mode, n, args.depth, trial, seed))
    existing = ""
    if os.path.exists(args.csv):
        with open(args.csv, "r", encoding="utf-8") as fh:
            existing = fh.read()
    if existing.strip():
        if not existing.endswith("\n"):
            existing += "\n"
        text = existing + "\n".join(rows) + "\n"
    else:
        text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    _write_text(args.csv, text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowcheck",
        description="Local-projection descriptions of shallow quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="compute a circuit's output description")
    p.add_argument("circuit", help="path to a circuit JSON file")
    p.add_argument("--out", help="write the description here instead of stdout")
    p.add_argument("--cap", type=int, default=None, help="support cap override")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("equiv", help="check two circuits for equivalence")
    p.add_argument("a", help="path to the first circuit JSON file")
    p.add_argument("b", help="path to the second circuit JSON file")
    p.add_argument("--mode", choices=("weak", "strong"), default="weak")
    p.add_argument("--threshold", type=float, default=EQUIV_THRESHOLD)
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("assert", help="verify output assertions statically")
    p.add_argument("circuit", help="path to a circuit JSON file")
    p.add_argument("assertions", help="path to an assertion-tuple JSON file")
    p.add_argument("--threshold", type=float, default=EQUIV_THRESHOLD)
    p.set_defaults(func=cmd_assert)

    p = sub.add_parser("random", help="generate a random brickwork circuit")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--depth", type=int, required=True, help="layer count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the circuit here instead of stdout")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("simulate", help="brute-force the output state vector")
    p.add_argument("circuit", help="path to a circuit JSON file")
    p.add_argument("--out", help="write the amplitudes here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="time the checkers over a size sweep")
    p.add_argument(
        "--mode",
        choices=("describe", "weak", "strong", "inequiv"),
        required=True,
    )
    p.add_argument(
        "--n-range",
        required=True,
        help="qubit counts as A:B:STEP (inclusive) or a single N",
    )
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", required=True, help="append rows to this CSV file")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        # A crash is never reported as a failing verdict (exit 1).
        print(f"error: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
        return 3
    except (SchemaError, ValidationError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
