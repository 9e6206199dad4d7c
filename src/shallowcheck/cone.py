"""Light-cone walker and the cone-state kernel of the membership test.

Every check in this package reduces to the same question about a local
projection ``P`` on a light cone: how far is ``P|0...0>`` from
``|0...0>``?  Two pieces answer it.

* :func:`walk_light_cones` grows supports layer by layer: at each layer
  a support absorbs the qubits of every gate that overlaps it.  The
  description engine, the static assertion check and the weak and
  strong equivalence checks all walk their cones with it, first view
  to last, so supports, gate order and capacity errors agree between
  them.  It walks layer views (``circuit._LayerView``): each layer's
  gate qubits, an owner map from qubit to gate index, the rows of the
  gates' matrices in one stack per gate dimension, built once per call
  from each input circuit, and the layer number a capacity error names.
  A view's stacks hold its gates as the walk applies them.  A composite
  is a list of views over its inputs, so the checks build no composite
  circuit: the weak check walks ``c0``'s views, then the inverse views
  of ``c1`` (``circuit._inverse``: reversed, over one daggered copy of
  each table), and the strong check the same views shifted up by
  ``n``, between the Bell pair layer on ``(p, n + p)`` and its inverse.
  The static check walks the inverse views of its circuit, keeping the
  circuit's own layer numbers.  Steps hold gate indices, not gates.
  Cones whose first steps reach the same support form one chain,
  walked once: the Choi twins of the strong check, the cones of ``t``
  and ``n + t``, from the pair layer on.  The walker returns its
  chains, each as its steps and its members, the indices of the
  starts that share them, so every consumer builds each chain's
  layout or gates once, for all its members.

* :func:`cone_residuals` answers the question for the weak, strong and
  static checks alike, without ever forming ``P`` as a matrix.  Each
  projection is ``P = A Q A†`` for a local projector ``Q`` and the
  product ``A`` of the cone's gates in walk order: ``V`` for the weak
  check's ``V Π_t V†``, ``U†`` for the static check's ``U† Q U``, whose
  views are those of ``U†``.  It runs ``|0...0>`` on the ``w`` cone
  qubits through ``A†``, ``Q`` and ``A``, one layer of gates per
  :func:`~shallowcheck.linalg.apply_layer` call, and measures the
  defect: ``16·2^w`` bytes and ``O(gates·2^w)`` time instead of the
  ``16·4^w`` bytes of the dense projection, the light-cone idea of
  Bravyi, Gosset and Movassagh ("Classical algorithms for quantum mean
  values", arXiv:1909.11485) applied to the membership test.

  Narrow cones cost Python and numpy call overhead rather than
  arithmetic, so cones of the same shape (width and gate axes layer by
  layer) run as one group: their states are stacked on a leading batch
  axis and each layer of gates is one ``apply_layer`` call for the
  whole group.  Each chain of steps is simulated once: twins share
  their gates, so ``A†|0...0>`` runs on one state per chain and is
  copied out to the chain's members before ``Q``, which is one call per
  run of members whose ``Q`` has the same axes.  Once per call, before
  the walk, each gate that repeats the last gate on its qubits (same
  qubit tuple, same order, nothing between them on those qubits) is
  multiplied into it, the standard gate fusion of state-vector
  simulators (qsim, Isakov et al., arXiv:2111.02396): the middle of a
  paired ladder's composite becomes one layer, walked once and applied
  with one call for ``A†`` and one for ``A``.  A fused gate acts on the
  qubits of the gates it replaces, so supports, chains and capacity
  errors are those of the unfused walk, and the errors name the
  caller's layers.  Each chain's axes and gate indices are built
  once, and each op of a group is gathered from its layer's stack at
  the rows of the chunk's chains' gates.  A stacked state holds at
  most ``2^16`` amplitudes (1 MiB); larger groups are split into
  chunks that hold whole chains where one fits, and a cone of ``2^16``
  amplitudes or more runs alone, so wide cones take no more memory
  than one cone at a time does.
"""

from __future__ import annotations

from itertools import chain as _chain
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .circuit import _LayerView
from .errors import CapacityError, DomainError
from .linalg import ErrorTriple, _integral, apply_layer, residual_norms

__all__ = [
    "ZERO_PROJECTOR",
    "cone_residuals",
    "walk_light_cones",
]

#: The projector onto ``|0>`` on one qubit.
ZERO_PROJECTOR = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
ZERO_PROJECTOR.setflags(write=False)

#: Most amplitudes in one stacked state of :func:`cone_residuals`,
#: ``B·2^w <= 2^16`` (1 MiB of complex128); a cone of ``2^w`` at or
#: above it runs alone.
_BATCH_AMPLITUDES = 1 << 16

#: One layer of a cone walk: the view's position in the walk, its gates
#: that overlapped the support, by index and sorted by smallest qubit,
#: and the grown, sorted support.
ConeStep = tuple[int, list[int], tuple[int, ...]]


def walk_light_cones(
    layers: Sequence[_LayerView],
    starts: Sequence[Sequence[int]],
    what: str,
    cap: int,
) -> list[tuple[list[ConeStep], list[int]]]:
    """Grow each starting support through ``layers``, first to last.

    Parameters
    ----------
    layers
        The views of the layers walked, in walk order; only their
        ``owner`` maps, gate qubits and ``layer`` numbers are read.
    starts
        Sorted starting supports, one per cone.
    what
        Format string naming cone ``i`` in a capacity error, such as
        ``"support of qubit {}"``.
    cap
        Largest support size allowed.

    Returns
    -------
    list of (steps, members)
        The chains of the walk.  Cones whose first steps reach the same
        support in one layer, such as Choi twins, touch the same gates
        from then on, since a layer's gates are disjoint, so they are
        walked once, as one chain.  ``steps`` holds one
        :data:`ConeStep` per layer in which some gate overlapped the
        chain's support, in walk order, and the last step's support is
        its final one; ``members`` holds the indices of the starts whose
        cone it is, in ascending order.  A start with no step is a chain
        of its own, and keeps its support.  Every start is a member of
        exactly one chain, and chains come in order of their first
        member.  Callers must modify none of these.

    Raises
    ------
    DomainError
        If ``cap`` is not an integer, or below 1, which no support can meet.
    CapacityError
        If a support would exceed ``cap``.  All cones advance one layer
        at a time, so the error names the ``layer`` of the first view at
        which any cone overflows, and the lowest-index cone that does,
        and no cone is simulated before every cone is known to fit.
    """
    if _integral(cap, "the support cap") < 1:
        raise DomainError(f"the support cap must be at least 1, got {cap}")
    # A class of cones with one support (as a tuple and a set), one
    # chain of steps and its members: each cone alone at first, then
    # those whose steps coincide.
    classes = [(tuple(s), {*s}, [], [i]) for i, s in enumerate(starts)]
    for layer_index, view in enumerate(layers):
        # The owner map finds the gates that overlap a support in
        # O(|support|) rather than a scan of the whole layer; this keeps
        # the total work linear in qubit count.
        owner, qubits = view.owner, view.qubits
        advanced = []
        # Two classes with steps differ in an earlier step, or they would
        # be one class, so only classes without steps merge: those that
        # take the same first step, to the same grown support.  Such a
        # class is one cone, and merges into the first of them, so each
        # class's members stay in ascending order.
        fresh: dict[tuple[int, ...], list[int]] = {}
        for current, inside, chain, members in classes:
            touched = {*map(owner.get, current)}
            touched.discard(None)
            if not touched:
                advanced.append((current, inside, chain, members))
                continue
            # One gate, the usual case, needs no sort: without this branch
            # strong checks of n = 40 paired ladders ran about 5% slower.
            if len(touched) == 1:
                gates = [*touched]
                reached = qubits[gates[0]]
            else:
                gates = sorted(touched, key=lambda j: min(qubits[j]))
                reached = [q for j in gates for q in qubits[j]]
            grown = current
            if not inside.issuperset(reached):
                inside = inside.union(reached)
                grown = tuple(sorted(inside))
            if len(grown) > cap:
                # Classes stay in the order of their lowest index, their
                # first member, so this is the lowest-index cone to overflow.
                raise CapacityError(
                    f"{what.format(members[0])} would reach {len(grown)} qubit(s) at "
                    f"layer {view.layer}, exceeding the support cap of {cap}",
                    size=len(grown),
                    cap=cap,
                )
            if not chain:
                twins = fresh.get(grown)
                if twins is not None:
                    twins.extend(members)
                    continue
                fresh[grown] = members
            chain.append((layer_index, gates, grown))
            advanced.append((grown, inside, chain, members))
        classes = advanced
    return [(chain, members) for _, _, chain, members in classes]


def _fused(layers: Sequence[_LayerView]) -> Sequence[_LayerView]:
    """``layers`` with repeated gates multiplied together.

    In walk order, a gate whose qubits were all last acted on by one gate
    on the same qubit tuple, in the same order, is multiplied into that
    gate, ``later @ earlier``.  Such a run of gates acts on its qubits
    alone, so each cone meets all of it or none of it, at its first
    gate: supports, and the layers at which they grow, stay as they are.
    A view that holds a product or lost a gate is replaced by one with
    the same ``layer`` whose gates are in one new table; a view left
    empty is dropped.  Every other view is passed through, and when
    nothing repeats, so is ``layers``.
    """
    # The qubit tuple and the view of the first gate of each run of
    # repeated gates, the run that last acted on each qubit, and the run
    # of each gate of each view.
    runs: list[tuple[int, ...]] = []
    starts: list[int] = []
    last: dict[int, int] = {}
    ran: list = [None] * len(layers)
    # The later gates of the runs in each view, and their runs, in walk order.
    repeats: dict[int, tuple[list[int], list[int]]] = {}
    for l, view in enumerate(layers):
        qubits = view.qubits
        # The run that last acted on each qubit of the view, gate by gate:
        # a layer's gates are disjoint, so none of them changes another's.
        found = [*map(last.get, _chain.from_iterable(qubits))]
        here: list[int] = []
        js: list[int] = []
        rs: list[int] = []
        k = 0
        for j, gate in enumerate(qubits):
            r = found[k]
            width = len(gate)
            if r is not None and runs[r] == gate and found[k:k + width].count(r) == width:
                js.append(j)
                rs.append(r)
            else:
                r = len(runs)
                runs.append(gate)
                starts.append(l)
                for q in gate:
                    last[q] = r
            here.append(r)
            k += width
        ran[l] = here
        if js:
            repeats[l] = (js, rs)
    if not repeats:
        return layers
    grown = set().union(*(rs for _, rs in repeats.values()))
    changed = {*repeats, *map(starts.__getitem__, grown)}
    # The views kept.  A changed one holds its gates, each the first of
    # its run, at the rows of their runs in one new table, one stack per
    # dimension.
    kept: list[_LayerView] = []
    table: dict[int, np.ndarray] = {}
    for l, view in enumerate(layers):
        if l not in changed:
            kept.append(view)
            continue
        gone = set(repeats[l][0]) if l in repeats else set()
        if len(gone) == len(view.qubits):
            continue
        js = [j for j in range(len(view.qubits)) if j not in gone]
        qubits = [view.qubits[j] for j in js]
        owner = view.owner if not gone else {
            q: k for k, gate in enumerate(qubits) for q in gate
        }
        rows = np.array([ran[l][j] for j in js], dtype=np.intp)
        source = view.rows[js]
        for dim, mine in _by_dim(qubits):
            if dim not in table:
                table[dim] = np.empty((len(runs), dim, dim), dtype=complex)
            table[dim][rows[mine]] = view.stacks[dim][source[mine]]
        kept.append(_LayerView(qubits, owner, rows, table, view.layer))
    # Each run's product grows in its row, in walk order.
    for l, (js, rs) in repeats.items():
        view = layers[l]
        heads = np.array(rs, dtype=np.intp)
        rows = view.rows if len(js) == len(view.qubits) else view.rows[js]
        for dim, mine in _by_dim([runs[r] for r in rs]):
            stack = table[dim]
            stack[heads[mine]] = view.stacks[dim][rows[mine]] @ stack[heads[mine]]
    return kept


def _by_dim(qubits: list[tuple[int, ...]]) -> Iterator[tuple[int, slice | list[bool]]]:
    """Each gate dimension among gates ``qubits``, and an index of its gates."""
    dims = [1 << len(gate) for gate in qubits]
    if dims.count(dims[0]) == len(dims):
        yield dims[0], slice(None)
        return
    for dim in {*dims}:
        yield dim, [d == dim for d in dims]


def cone_residuals(
    layers: Sequence[_LayerView],
    projections: Sequence[tuple[np.ndarray, Sequence[int]]],
    what: str,
    cap: int,
) -> list[tuple[tuple[int, ...], ErrorTriple]]:
    """Norms of ``A Q A†|0...0> - |0...0>`` on the light cone of each ``Q``.

    Cones of the same shape (the same width and the same cone axes for
    every gate of every layer) are simulated together: their states are
    stacked on a leading batch axis, their gates into ``(B, d, d)``
    stacks.  It takes the walker's chains as they come: the members of
    a chain, such as Choi twins, share its support, axes and gates,
    built once, and ``A†|0...0>``, which runs on one state per chain
    and is then copied out to the chain's members before ``Q``.  Gate
    fusion runs once, before the walk (:func:`_fused`): each gate that
    repeats the last gate on its qubits is multiplied into it, so a run
    of layers of repeated gates is walked as one layer and costs one
    :func:`~shallowcheck.linalg.apply_layer` call for ``A†`` and one
    for ``A``.  Members are sorted by the axes of their ``Q``, which is one
    call per run of equal axes on that run's slice of the stacked state.
    A group is split into chunks of at most ``_BATCH_AMPLITUDES``
    amplitudes, each holding whole chains where one fits, so a cone that
    wide or wider runs alone.  Each member's residual equals the one its
    cone gives on its own, bit for bit.

    Parameters
    ----------
    layers
        The views of the layers whose cones are walked, as for
        :func:`walk_light_cones`.  ``A`` is the cone's gates, gathered
        from their stacks and applied in walk order: ``V`` restricted to
        the cone for the weak check's composite, ``U†`` for the static
        check's inverse views.
    projections
        ``(matrix, support)`` pairs: a local projector ``Q`` and the
        sorted qubits it acts on, which start its cone.
    what, cap
        As for :func:`walk_light_cones`.

    Returns
    -------
    list of (support, ErrorTriple)
        One pair per projection, in input order: its cone's final
        support and the same norms
        :func:`~shallowcheck.linalg.membership_residual` gives for the
        dense ``A Q A†`` on that support.

    Raises
    ------
    CapacityError
        If a cone would exceed ``cap``, before any cone is simulated.
    """
    layers = _fused(layers)
    # Chains by shape: width, then each step's layer and the axes of its
    # gates (1 + cone axis, behind the batch axis).  The members of a
    # chain (Choi twins) share its support, axes and gates, built once.
    # A chain is the indices of its gates, step by step in one flat
    # list, and its members: each member's Q axes, index, support and Q.
    groups: dict[tuple, list] = {}
    for steps, members in walk_light_cones(layers, [s for _, s in projections], what, cap):
        support = steps[-1][2] if steps else tuple(projections[members[0]][1])
        axis = {q: 1 + i for i, q in enumerate(support)}.__getitem__
        shape = []
        gate_indices = []
        for l, gates, _ in steps:
            qubits = layers[l].qubits
            shape.append((l, tuple([tuple(map(axis, qubits[j])) for j in gates])))
            gate_indices += gates
        piece = [(tuple(map(axis, projections[i][1])), i, support, projections[i][0])
                 for i in members]
        groups.setdefault((len(support), tuple(shape)), []).append((gate_indices, piece))
    results: list = [None] * len(projections)
    for (width, shape), chains in groups.items():
        for chunk in _chunks(chains, max(1, _BATCH_AMPLITUDES >> width)):
            # Members by the axes of Q, so each run of equal axes is one
            # slice; ``pick`` holds each member's chain in the chunk.
            members = [(*m, k) for k, (_, piece) in enumerate(chunk) for m in piece]
            if len(members) > 1:
                members.sort(key=itemgetter(0))
            q_axes, indices, supports, projectors, pick = zip(*members)
            pick = np.array(pick)
            # A's layers in the order A applies them, each op gathered
            # from its layer's stack at the rows of the chains' gates,
            # one column of ``gates`` per op.
            gates = np.array([chain_gates for chain_gates, _ in chunk])
            a_layers: list[tuple[list, tuple]] = []
            column = 0
            for l, axes in shape:
                rows = layers[l].rows[gates[:, column:column + len(axes)]]
                column += len(axes)
                stacks = layers[l].stacks
                ops = [stacks[1 << len(a)][rows[:, j]] for j, a in enumerate(axes)]
                a_layers.append((ops, axes))
            state = np.zeros((len(chunk),) + (2,) * width, dtype=complex)
            state.reshape(len(chunk), -1)[:, 0] = 1.0
            for ops, axes in a_layers[::-1]:
                state = apply_layer(state, [(np.conj(u).mT, a) for u, a in zip(ops, axes)])
            # Rebinding frees the chains' states before Q runs.
            state = state[pick]
            _apply_projectors(state, q_axes, projectors)
            for ops, axes in a_layers:
                state = apply_layer(state, [(u[pick], a) for u, a in zip(ops, axes)])
            e = state.reshape(len(indices), -1)
            e[:, 0] -= 1.0
            for index, support, norms in zip(indices, supports, residual_norms(e)):
                results[index] = (support, norms)
    return results


def _chunks(chains: list[tuple[list, list]], size: int) -> Iterator[list]:
    """``(gates, members)`` chains packed into chunks of at most ``size`` members.

    A chain goes whole into the current chunk when it fits, else it
    starts a new one; only a chain of more than ``size`` members is cut.
    """
    chunk: list = []
    held = 0
    for gates, members in chains:
        for first in range(0, len(members), size):
            piece = members[first:first + size]
            if held + len(piece) > size:
                yield chunk
                chunk, held = [], 0
            chunk.append((gates, piece))
            held += len(piece)
    yield chunk


def _apply_projectors(
    state: np.ndarray, q_axes: Sequence[tuple[int, ...]], projectors: Sequence[np.ndarray]
) -> None:
    """Apply member ``b``'s ``projectors[b]`` on its ``q_axes[b]`` of ``state``, in place.

    Equal axes come in sorted runs; each run is one
    :func:`~shallowcheck.linalg.apply_layer` call on its slice of the
    stacked state, written back into that slice, so no third state is
    allocated beside the kernel's.
    """
    runs = [b for b in range(1, len(q_axes)) if q_axes[b] != q_axes[b - 1]]
    for lo, hi in zip([0] + runs, runs + [len(q_axes)]):
        state[lo:hi] = apply_layer(state[lo:hi], [(np.array(projectors[lo:hi]), q_axes[lo])])
