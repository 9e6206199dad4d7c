"""Layered quantum-circuit IR with validation, composition, and JSON.

A circuit is a qubit count plus an ordered list of layers, each layer a
set of gates with pairwise-disjoint supports.  Layers apply in list
order: ``circuit.layers[0]`` acts first.  Within a gate, the first
listed qubit is the most significant bit of the gate-matrix index, so a
controlled gate written on ``(control, target)`` has its control block
in the upper-left quadrant.

Circuits, layers, and gates are immutable after construction and safe
to share.  Gate matrices are stored read-only: a complex matrix that no
writable array shares memory with is kept as given, any other is copied.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_K_MAX, STRUCTURAL_TOL, support_cap
from .errors import CapacityError, DomainError, SchemaError
from .linalg import _as_frozen, _integral, _seed

__all__ = [
    "Circuit",
    "Gate",
    "Layer",
    "NAMED_GATES",
    "adjoint",
    "choi_extend",
    "circuit_from_json",
    "circuit_to_json",
    "concat",
    "haar_unitary",
    "matrix_from_json",
    "matrix_to_json",
    "named_gate",
    "random_circuit",
    "validate",
]


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Built-in gate matrices, keyed by the names accepted in circuit JSON.
NAMED_GATES: dict[str, np.ndarray] = {
    "I": _as_frozen([[1, 0], [0, 1]]),
    "X": _as_frozen([[0, 1], [1, 0]]),
    "Y": _as_frozen([[0, -1j], [1j, 0]]),
    "Z": _as_frozen([[1, 0], [0, -1]]),
    "H": _as_frozen([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]]),
    "S": _as_frozen([[1, 0], [0, 1j]]),
    "T": _as_frozen([[1, 0], [0, cmath.exp(1j * math.pi / 4)]]),
    "CNOT": _as_frozen([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "CZ": _as_frozen([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
    "SWAP": _as_frozen([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    "CS": _as_frozen([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1j]]),
}

#: Entangling two-qubit gate used by :func:`choi_extend`.  Applied to
#: ``|00>`` it prepares the Bell state ``(|00> + |11>)/sqrt(2)``.
_PAIR_GATE = _as_frozen(NAMED_GATES["CNOT"] @ np.kron(NAMED_GATES["H"], np.eye(2)))
#: The pair gate as a matrix stack of one, for :func:`_pair_layer`.
_PAIR_STACKS = {4: _PAIR_GATE[None]}


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary bound to an ordered list of qubit indices.

    Parameters
    ----------
    qubits
        Ordered qubit indices, each an ``int`` or a numpy integer; the
        first is the most significant bit of the matrix index.
    matrix
        Square matrix of dimension ``2**len(qubits)``, stored read-only
        and copied unless it is a complex array that no writable array
        shares memory with, as for
        :class:`~shallowcheck.description.LocalProjection`.
    name
        Optional tag.  Purely cosmetic except in JSON serialization,
        where a gate whose matrix matches the named built-in is written
        by name.
    """

    qubits: tuple[int, ...]
    matrix: np.ndarray
    name: str | None = None

    def __post_init__(self):
        qubits = tuple(_integral(q, "a qubit index") for q in self.qubits)
        if not qubits:
            raise DomainError("a gate must act on at least one qubit")
        matrix = _as_frozen(self.matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DomainError(f"gate matrix must be square, got shape {matrix.shape}")
        dim = 1 << len(qubits)
        if matrix.shape[0] != dim:
            raise DomainError(
                f"gate on {len(qubits)} qubit(s) needs a {dim}x{dim} matrix, "
                f"got {matrix.shape[0]}x{matrix.shape[1]}"
            )
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "matrix", matrix)

    @property
    def arity(self) -> int:
        return len(self.qubits)

    def __repr__(self) -> str:
        tag = self.name or f"U{self.arity}"
        return f"Gate({tag} on {self.qubits})"


@dataclass(frozen=True, eq=False)
class Layer:
    """Gates applied simultaneously; supports must be pairwise disjoint."""

    gates: tuple[Gate, ...]

    def __post_init__(self):
        gates = tuple(self.gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise DomainError(f"a layer holds gates only, got {g!r}")
        object.__setattr__(self, "gates", gates)

    def __repr__(self) -> str:
        return f"Layer({list(self.gates)!r})"


@dataclass(frozen=True, eq=False)
class Circuit:
    """A qubit count plus an ordered tuple of layers."""

    n_qubits: int
    layers: tuple[Layer, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integral(self.n_qubits, "n_qubits"))
        layers = tuple(self.layers)
        for layer in layers:
            if not isinstance(layer, Layer):
                raise DomainError(f"a circuit holds layers only, got {layer!r}")
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        """Number of layers."""
        return len(self.layers)

    def __repr__(self) -> str:
        return f"Circuit(n_qubits={self.n_qubits}, depth={self.depth})"


def named_gate(name: str, qubits: Sequence[int]) -> Gate:
    """Construct a built-in gate by name on the given qubits."""
    try:
        matrix = NAMED_GATES[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_GATES))
        raise DomainError(f"unknown gate name {name!r}; known names: {known}") from None
    arity = matrix.shape[0].bit_length() - 1
    if len(qubits) != arity:
        raise DomainError(
            f"gate {name!r} acts on {arity} qubit(s), got {len(qubits)} indices"
        )
    return Gate(tuple(qubits), matrix, name)


class _LayerView(NamedTuple):
    """One layer as a check walks it: gate qubits, owners and matrix rows.

    ``qubits[j]`` are gate ``j``'s qubits in the check's numbering,
    ``owner`` maps each qubit the layer acts on to its gate, and gate
    ``j``'s matrix is ``stacks[2**len(qubits[j])][rows[j]]``; ``rows``
    is an integer array, so the rows of many gates are gathered at once.
    The stacks hold the gates as a walk applies them: an inverse view
    (:func:`_inverse`) holds their daggers.  ``layer`` is the layer a
    capacity error names.  Views are read, never modified.
    """

    qubits: list[tuple[int, ...]]
    owner: dict[int, int]
    rows: np.ndarray
    stacks: dict[int, np.ndarray]
    layer: int


def _tabled(c: Circuit, offset: int = 0) -> tuple[list[_LayerView], list[str]]:
    """``c``'s layers as views with every qubit shifted up by ``offset``,
    and the violations :func:`validate` reports for ``c``.

    The views share one table: each layer's qubit tuples and owner map,
    and one stack of the matrices of each gate dimension, built once per
    call and read by the unitarity check, the light-cone walker and the
    cone kernel alike.
    """
    by_dim: dict[int, list[np.ndarray]] = {}
    stacks: dict[int, np.ndarray] = {}
    views = []
    for number, layer in enumerate(c.layers):
        qubits: list[tuple[int, ...]] = []
        owner: dict[int, int] = {}
        rows = []
        for j, g in enumerate(layer.gates):
            gate_qubits = tuple([q + offset for q in g.qubits]) if offset else g.qubits
            same = by_dim.setdefault(1 << len(gate_qubits), [])
            rows.append(len(same))
            same.append(g.matrix)
            qubits.append(gate_qubits)
            for q in gate_qubits:
                owner[q] = j
        rows = np.array(rows, dtype=np.intp)
        views.append(_LayerView(qubits, owner, rows, stacks, number))
    stacks.update((dim, np.array(matrices)) for dim, matrices in by_dim.items())
    return views, _violations(c, views, offset)


def validate(c: Circuit) -> list[str]:
    """Check every structural invariant; return violations as strings.

    An empty list means the circuit is valid.  Each violation names the
    layer, the gate within it, and the rule broken, so callers can
    report all problems in one pass.  Gate matrices must be unitary
    within ``STRUCTURAL_TOL`` and act on at most ``DEFAULT_K_MAX``
    qubits.  Violations are data, not errors: this function never
    raises on a bad circuit.
    """
    return _tabled(c)[1]


def _violations(c: Circuit, views: list[_LayerView], offset: int) -> list[str]:
    """:func:`validate`'s violations of ``c``, read from its views at ``offset``."""
    violations: list[str] = []
    if c.n_qubits < 1:
        violations.append(f"circuit: n_qubits must be at least 1, got {c.n_qubits}")
    faulty = _faulty_matrices(views[0].stacks) if views else {}
    for i, (layer, view) in enumerate(zip(c.layers, views)):
        owner = view.owner
        if (
            not faulty
            and len(owner) == sum(map(len, view.qubits))
            and (not owner or (min(owner) >= offset and max(owner) < offset + c.n_qubits))
            and all(len(qubits) <= DEFAULT_K_MAX for qubits in view.qubits)
        ):
            # Sound matrices, and distinct, in-range qubits and small
            # gates: the loop below would find nothing.
            continue
        claimed: dict[int, int] = {}
        for j, g in enumerate(layer.gates):
            if len(set(g.qubits)) != len(g.qubits):
                violations.append(
                    f"layer {i}, gate {j}: duplicate qubit indices {g.qubits}"
                )
            for q in g.qubits:
                if not 0 <= q < c.n_qubits:
                    violations.append(
                        f"layer {i}, gate {j}: qubit {q} out of range for "
                        f"{c.n_qubits} qubit(s)"
                    )
            if g.arity > DEFAULT_K_MAX:
                violations.append(
                    f"layer {i}, gate {j}: arity {g.arity} exceeds the "
                    f"gate-arity limit {DEFAULT_K_MAX}"
                )
            if (g.arity, view.rows[j]) in faulty:
                violations.append(_matrix_violation(i, j, faulty[g.arity, view.rows[j]]))
            overlap = sorted(q for q in g.qubits if q in claimed)
            if overlap:
                other = claimed[overlap[0]]
                violations.append(
                    f"layer {i}: gates {other} and {j} overlap on qubit(s) {overlap}"
                )
            for q in g.qubits:
                claimed.setdefault(q, j)
    return violations


def _matrix_violation(i: int, j: int, dev: float | None) -> str:
    """The violation of gate ``j`` of layer ``i`` with deviation ``dev``."""
    if dev is None:
        return f"layer {i}, gate {j}: matrix contains non-finite entries"
    return f"layer {i}, gate {j}: matrix is not unitary (max deviation {dev:.3e})"


def _faulty_matrices(stacks: dict[int, np.ndarray]) -> dict[tuple[int, int], float | None]:
    """``max|U U† - I|`` beyond ``STRUCTURAL_TOL`` of each matrix of ``stacks``,
    keyed by its gate's arity and its row in the stack of its dimension.

    ``None`` marks a matrix with non-finite entries.  Each stack is
    checked with one product.
    """
    out: dict[tuple[int, int], float | None] = {}
    for dim, u in stacks.items():
        finite = np.isfinite(u).all(axis=(1, 2))
        with np.errstate(all="ignore"):  # NaN members are reported, not checked
            devs = np.abs(u @ np.conj(u).mT - np.eye(dim)).max(axis=(1, 2))
        arity = dim.bit_length() - 1
        for b in np.flatnonzero(~finite | (devs > STRUCTURAL_TOL)).tolist():
            out[arity, b] = float(devs[b]) if finite[b] else None
    return out


def adjoint(c: Circuit) -> Circuit:
    """Inverse circuit: layers reversed, every gate conjugate-transposed.

    A gate keeps its name tag only when the dagger leaves its matrix
    unchanged, so names never misdescribe a matrix.
    """
    new_layers = []
    for layer in reversed(c.layers):
        gates = []
        for g in layer.gates:
            m = np.conj(g.matrix).T
            name = g.name if g.name is not None and np.array_equal(m, g.matrix) else None
            gates.append(Gate(g.qubits, m, name))
        new_layers.append(Layer(tuple(gates)))
    return Circuit(c.n_qubits, tuple(new_layers))


def _inverse(layers: list[_LayerView]) -> list[_LayerView]:
    """The views of :func:`adjoint`'s layers: reversed, each gate daggered.

    Each distinct table is daggered once, ``conj(u).mT`` copied
    contiguous, and shared by its views; each view keeps its ``layer``.
    """
    daggered: dict[int, dict[int, np.ndarray]] = {}
    for view in layers:
        if id(view.stacks) not in daggered:
            daggered[id(view.stacks)] = {d: np.conj(u).mT.copy() for d, u in view.stacks.items()}
    return [view._replace(stacks=daggered[id(view.stacks)]) for view in reversed(layers)]


def concat(first: Circuit, second: Circuit) -> Circuit:
    """Circuit applying ``first``'s layers, then ``second``'s."""
    if first.n_qubits != second.n_qubits:
        raise DomainError(
            f"cannot concatenate circuits on {first.n_qubits} and "
            f"{second.n_qubits} qubits"
        )
    return Circuit(first.n_qubits, first.layers + second.layers)


def choi_extend(c: Circuit) -> Circuit:
    """Double the circuit so its full unitary action shows up on one state.

    The result acts on ``2n`` qubits.  Layer 0 prepares a Bell pair on
    every pair ``(p, n + p)``; the remaining layers are ``c``'s layers
    with every qubit index shifted up by ``n``.  Running the extension
    on the all-zeros input yields the maximally entangled state that
    encodes ``c``'s unitary, so two circuits are equivalent on every
    input exactly when their extensions agree on the all-zeros input.
    Depth grows by one.
    """
    n = c.n_qubits
    pair_layer = Layer(tuple([Gate((p, n + p), _PAIR_GATE) for p in range(n)]))
    shifted = tuple(
        Layer(tuple([Gate([q + n for q in g.qubits], g.matrix, g.name) for g in layer.gates]))
        for layer in c.layers
    )
    return Circuit(2 * n, (pair_layer,) + shifted)


def _pair_layer(n: int) -> _LayerView:
    """The view of :func:`choi_extend`'s layer 0 on ``2n`` qubits, which
    puts the pair gate on every ``(p, n + p)``; the views of ``c``'s
    layers at offset ``n`` (:func:`_tabled`) are the rest of the
    extension."""
    owner = {p: p for p in range(n)}
    owner.update({n + p: p for p in range(n)})
    rows = np.zeros(n, dtype=np.intp)
    return _LayerView([(p, n + p) for p in range(n)], owner, rows, _PAIR_STACKS, 0)


def haar_unitary(
    k_qubits: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw a Haar-distributed unitary on ``k_qubits`` qubits.

    Uses the standard construction: QR-decompose a complex Ginibre
    matrix and normalize the phases of R's diagonal.  A fixed
    non-negative integer seed yields a bit-identical matrix on repeat
    calls; passing a generator draws from (and advances) its stream.
    """
    if _integral(k_qubits, "k_qubits") < 1:
        raise DomainError(f"k_qubits must be at least 1, got {k_qubits}")
    cap = support_cap()
    if k_qubits > cap:
        raise CapacityError(
            f"a {k_qubits}-qubit unitary exceeds the support cap of {cap}",
            size=k_qubits,
            cap=cap,
        )
    rng = np.random.default_rng(_seed(seed))
    dim = 1 << k_qubits
    ginibre = (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / math.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r)
    q = q * (phases / np.abs(phases))
    return q


def random_circuit(
    n: int,
    depth: int,
    *,
    seed: int | np.random.Generator | None = None,
) -> Circuit:
    """Random circuit of Haar two-qubit gates in brickwork layout.

    Layer 0 pairs ``(0, 1), (2, 3), ...``; layer 1 pairs
    ``(1, 2), (3, 4), ...``; the two pairings alternate.  Gates are
    drawn left to right, layer by layer, from a single seeded stream,
    so a fixed seed reproduces the circuit exactly.

    Parameters
    ----------
    n
        Qubit count, at least 2.
    depth
        Layer count; 0 yields a circuit with no layers.
    seed
        Non-negative integer seed or generator for the gate stream.
    """
    if _integral(n, "the qubit count") < 2:
        raise DomainError(f"random circuits need at least 2 qubits, got {n}")
    if _integral(depth, "depth") < 0:
        raise DomainError(f"depth must be non-negative, got {depth}")
    rng = np.random.default_rng(_seed(seed))
    layers = []
    for ell in range(depth):
        start = 0 if ell % 2 == 0 else 1
        gates = tuple(
            Gate((q, q + 1), haar_unitary(2, rng))
            for q in range(start, n - 1, 2)
        )
        layers.append(Layer(gates))
    return Circuit(n, tuple(layers))


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema (all field names exact, unknown fields rejected):
#   {"n_qubits": int,
#    "layers": [[{"qubits": [int, ...], "name": "H"}
#               | {"qubits": [int, ...], "matrix": [[[re, im], ...], ...]},
#               ...], ...]}
# Matrices are row-major with one [re, im] pair per entry; the first
# listed qubit is the most significant bit.


def matrix_to_json(m: np.ndarray) -> list:
    """Encode a complex matrix as row-major ``[re, im]`` pairs."""
    m = np.asarray(m)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _check_fields(
    node: dict, where: str, required: Sequence[str], optional: Sequence[str] = ()
) -> None:
    """Reject a field of ``node`` outside ``required`` and ``optional``,
    then the first of ``required`` that ``node`` lacks."""
    unknown = set(node) - {*required, *optional}
    if unknown:
        raise SchemaError(f"{where}: unknown field(s) {sorted(unknown)}")
    for field in required:
        if field not in node:
            raise SchemaError(f"{where}: missing required field {field!r}")


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise SchemaError(f"{where}: entries must be finite, got {value!r}")
    return out


def matrix_from_json(node, where: str) -> np.ndarray:
    """Decode and shape-check a matrix node; raises SchemaError."""
    if not isinstance(node, list) or not node:
        raise SchemaError(f"{where}: expected a non-empty list of rows")
    dim = len(node)
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(
                f"{where}: row {i} must be a list of {dim} entries"
            )
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(
                    f"{where}: entry [{i}][{j}] must be an [re, im] pair"
                )
            re = _require_number(pair[0], f"{where}[{i}][{j}]")
            im = _require_number(pair[1], f"{where}[{i}][{j}]")
            out[i, j] = complex(re, im)
    return out


def _gate_to_json(g: Gate) -> dict:
    if g.name in NAMED_GATES and np.array_equal(g.matrix, NAMED_GATES[g.name]):
        return {"qubits": list(g.qubits), "name": g.name}
    return {"qubits": list(g.qubits), "matrix": matrix_to_json(g.matrix)}


def circuit_to_json(c: Circuit) -> dict:
    """Encode a circuit as a JSON-compatible dict."""
    return {
        "n_qubits": c.n_qubits,
        "layers": [[_gate_to_json(g) for g in layer.gates] for layer in c.layers],
    }


def _gate_from_json(node, where: str) -> Gate:
    if not isinstance(node, dict):
        raise SchemaError(f"{where}: expected a gate object")
    _check_fields(node, where, ("qubits",), ("name", "matrix"))
    raw_qubits = node["qubits"]
    if not isinstance(raw_qubits, list) or not raw_qubits:
        raise SchemaError(f"{where}.qubits: expected a non-empty list")
    qubits = tuple(
        _require_int(q, f"{where}.qubits[{i}]") for i, q in enumerate(raw_qubits)
    )
    has_name = "name" in node
    has_matrix = "matrix" in node
    if has_name == has_matrix:
        raise SchemaError(
            f"{where}: exactly one of 'name' and 'matrix' is required"
        )
    if has_name:
        name = node["name"]
        if not isinstance(name, str):
            raise SchemaError(f"{where}.name: expected a string, got {name!r}")
        if name not in NAMED_GATES:
            known = ", ".join(sorted(NAMED_GATES))
            raise SchemaError(
                f"{where}.name: unknown gate name {name!r}; known names: {known}"
            )
        try:
            return named_gate(name, qubits)
        except DomainError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    matrix = matrix_from_json(node["matrix"], f"{where}.matrix")
    if matrix.shape[0] != 1 << len(qubits):
        raise SchemaError(
            f"{where}: matrix of dimension {matrix.shape[0]} does not match "
            f"{len(qubits)} qubit(s)"
        )
    return Gate(qubits, matrix)


def circuit_from_json(obj) -> Circuit:
    """Decode a circuit from a JSON-compatible dict, strictly.

    Unknown fields anywhere in the document are rejected, a gate must
    carry exactly one of ``name`` and ``matrix``, and gate names must be
    built-ins.  Structural circuit invariants (unitarity, layer
    disjointness) are left to :func:`validate`.
    """
    if not isinstance(obj, dict):
        raise SchemaError("circuit: expected a JSON object at top level")
    _check_fields(obj, "circuit", ("n_qubits", "layers"))
    n_qubits = _require_int(obj["n_qubits"], "n_qubits")
    raw_layers = obj["layers"]
    if not isinstance(raw_layers, list):
        raise SchemaError("layers: expected a list")
    layers = []
    for i, raw_layer in enumerate(raw_layers):
        if not isinstance(raw_layer, list):
            raise SchemaError(f"layers[{i}]: expected a list of gates")
        gates = tuple(
            _gate_from_json(raw_gate, f"layers[{i}][{j}]")
            for j, raw_gate in enumerate(raw_layer)
        )
        layers.append(Layer(gates))
    return Circuit(n_qubits, tuple(layers))
