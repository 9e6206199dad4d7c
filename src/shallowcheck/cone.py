"""Light-cone walker and the cone-state kernel of the membership test.

Every check in this package reduces to the same question about a local
projection ``P`` on a light cone: how far is ``P|0...0>`` from
``|0...0>``?  Two pieces answer it.

* :func:`walk_light_cones` grows supports layer by layer: at each layer
  a support absorbs the qubits of every gate that overlaps it.  The
  description engine, the static assertion check and the weak
  equivalence check all walk their cones with it, so supports, gate
  order and capacity errors agree between them.  Supports that grow to
  the same support share one step, so cones whose steps coincide form
  one chain, walked once: the Choi twins of the strong check, the cones
  of ``t`` and ``n + t``, from the pair layer on.

* :func:`cone_residuals` answers the question for the weak, strong and
  static checks alike, without ever forming ``P`` as a matrix.  Each
  projection is ``P = A Q A†`` for a local projector ``Q`` and the
  product ``A`` of the cone's gates: the gates in circuit order on a
  forward walk (the weak check's ``V Π_t V†``), ``U†`` on a backward
  walk (the static check's ``U† Q U``).  It runs ``|0...0>`` on the
  ``w`` cone qubits through ``A†``, ``Q`` and ``A``, one layer per
  :func:`~shallowcheck.linalg.apply_layer` call, and measures the
  defect: ``16·2^w`` bytes and ``O(gates·2^w)`` time instead of the
  ``16·4^w`` bytes of the dense projection, the light-cone idea of
  Bravyi, Gosset and Movassagh ("Classical algorithms for quantum mean
  values", arXiv:1909.11485) applied to the membership test.

  Narrow cones cost Python and numpy call overhead rather than
  arithmetic, so cones of the same shape (width and gate axes layer by
  layer) run as one group: their states are stacked on a leading batch
  axis and each layer of gates is one ``apply_layer`` call for the
  whole group.  ``Q`` is applied with one call per run of members whose
  ``Q`` has the same axes, so twins, whose ``Q`` differ only in their
  axes, share every other call.  Each chain's axes and gate matrices are
  built once.  A stacked state holds at most ``2^16`` amplitudes
  (1 MiB); larger groups are split into chunks, and a cone of ``2^16``
  amplitudes or more runs alone, so wide cones take no more memory than
  one cone at a time does.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate
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

#: One layer of a cone walk: the gates that overlapped the support,
#: sorted by smallest qubit, and the grown, sorted support.
ConeStep = tuple[list[Gate], tuple[int, ...]]


def walk_light_cones(
    c: Circuit,
    starts: Sequence[Sequence[int]],
    what: str,
    cap: int,
    backward: bool = False,
) -> list[list[ConeStep]]:
    """Grow each starting support through the layers of ``c``.

    Parameters
    ----------
    c
        The circuit whose layers are walked, first to last, or last to
        first when ``backward`` is set.
    starts
        Sorted starting supports, one per cone.
    what
        Format string naming cone ``i`` in a capacity error, such as
        ``"support of qubit {}"``.
    cap
        Largest support size allowed.
    backward
        Walk the layers in reverse order.

    Returns
    -------
    list of list of ConeStep
        For each start, one step per layer in which some gate overlapped
        the support, in walk order.  The last step's support is the
        cone's final support; a cone with no steps keeps its start.
        Supports that grow to the same support in a layer touch the same
        gates there, since a layer's gates are disjoint, so they share
        one step object.  Cones whose steps are the same objects, such
        as Choi twins from their first step on, are walked once and share
        one list.  Callers must modify neither.

    Raises
    ------
    DomainError
        If ``cap`` is not an integer, or below 1, which no support can meet.
    CapacityError
        If a support would exceed ``cap``.  All cones advance one layer
        at a time, so the error names the first layer, in walk order, at
        which any cone overflows, and the lowest-index cone that does,
        and no cone is simulated before every cone is known to fit.
    """
    if _integral(cap, "the support cap") < 1:
        raise DomainError(f"the support cap must be at least 1, got {cap}")
    # A class of cones with one support and one list of steps: each cone
    # alone at first, then those whose steps coincide.
    classes = [(tuple(s), [], [i]) for i, s in enumerate(starts)]
    order = range(c.depth - 1, -1, -1) if backward else range(c.depth)
    for layer_index in order:
        # Gates keyed by the qubits they own, so finding the gates that
        # overlap a support costs O(|support|) rather than a scan of the
        # whole layer; this keeps the total work linear in qubit count.
        owner = {q: g for g in c.layers[layer_index].gates for q in g.qubits}
        # Each distinct support is grown once a layer, and each grown
        # support has one step object.
        memo: dict[tuple[int, ...], ConeStep | None] = {}
        shared: dict[tuple[int, ...], ConeStep] = {}
        advanced = []
        # Two classes with steps have different steps, or they would be
        # one class, so only classes without steps merge: those that take
        # the same first step, to the same grown support.
        fresh: dict[tuple[int, ...], list[int]] = {}
        for current, chain, members in classes:
            if current not in memo:
                step = _step(current, owner)
                memo[current] = step if step is None else shared.setdefault(step[1], step)
            step = memo[current]
            if step is None:
                advanced.append((current, chain, members))
                continue
            grown = step[1]
            if len(grown) > cap:
                # Classes stay in the order of their lowest index, their
                # first member, so this is the lowest-index cone to overflow.
                raise CapacityError(
                    f"{what.format(members[0])} would reach {len(grown)} qubit(s) at "
                    f"layer {layer_index}, exceeding the support cap of {cap}",
                    size=len(grown),
                    cap=cap,
                )
            if not chain:
                twins = fresh.get(grown)
                if twins is not None:
                    twins.extend(members)
                    continue
                fresh[grown] = members
            chain.append(step)
            advanced.append((grown, chain, members))
        classes = advanced
    steps: list = [None] * len(starts)
    for _, chain, members in classes:
        for i in members:
            steps[i] = chain
    return steps


def _step(current: tuple[int, ...], owner: dict[int, Gate]) -> ConeStep | None:
    """The gates of one layer that overlap ``current`` and the grown support.

    ``owner`` maps each qubit the layer acts on to its gate; ``None``
    means no gate overlaps.
    """
    touched: list[Gate] = []
    for q in current:
        g = owner.get(q)
        if g is not None and g not in touched:
            touched.append(g)
    if not touched:
        return None
    reached = {q for g in touched for q in g.qubits}
    grown = current if reached.issubset(current) else tuple(sorted(reached.union(current)))
    if len(touched) > 1:
        touched.sort(key=lambda g: min(g.qubits))
    return touched, grown


def cone_residuals(
    c: Circuit,
    projections: Sequence[tuple[np.ndarray, Sequence[int]]],
    what: str,
    cap: int,
    backward: bool = False,
) -> list[tuple[tuple[int, ...], ErrorTriple]]:
    """Norms of ``A Q A†|0...0> - |0...0>`` on the light cone of each ``Q``.

    Cones of the same shape (the same width and the same cone axes for
    every gate of every layer) are simulated together: their states are
    stacked on a leading batch axis, their gates into ``(B, d, d)``
    stacks, and each layer of ``A†`` and ``A`` is one
    :func:`~shallowcheck.linalg.apply_layer` call for the whole group.
    Members are sorted by the axes of their ``Q``, which is one call per
    run of equal axes on that run's slice of the stacked state.  A group
    is split into chunks of at most
    ``_BATCH_AMPLITUDES`` amplitudes, so a cone that wide or wider runs
    alone.  Each member's residual equals the one its cone gives on its
    own, bit for bit.

    Parameters
    ----------
    c
        The circuit whose cones are walked, as for
        :func:`walk_light_cones`.
    projections
        ``(matrix, support)`` pairs: a local projector ``Q`` and the
        sorted qubits it acts on, which start its cone.
    what, cap
        As for :func:`walk_light_cones`.
    backward
        Walk last layer first.  ``A`` is the cone's gates applied in
        walk order: ``V`` restricted to the cone on a forward walk,
        ``U†`` on a backward one.

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
    cones = walk_light_cones(c, [s for _, s in projections], what, cap, backward)
    # Cones by shape: width, then the axes of each layer's gates (1 +
    # cone axis, behind the batch axis).  Each member is its Q's axes,
    # its index, its support, its Q and its gate matrices, layer by
    # layer.  Cones that share a chain of steps (Choi twins) share their
    # support, axes and matrices, so each chain's are built once.
    groups: dict[tuple, list] = {}
    built: dict[int, tuple] = {}
    for index, ((projector, start), steps) in enumerate(zip(projections, cones)):
        if id(steps) not in built:
            support = steps[-1][1] if steps else tuple(start)
            axis = {q: 1 + i for i, q in enumerate(support)}
            layer_axes = tuple([
                tuple([tuple([axis[q] for q in g.qubits]) for g in gates]) for gates, _ in steps
            ])
            matrices = [[g.matrix for g in gates] for gates, _ in steps]
            built[id(steps)] = (support, axis, (len(support), layer_axes), matrices)
        support, axis, shape, matrices = built[id(steps)]
        member = (tuple([axis[q] for q in start]), index, support, projector, matrices)
        groups.setdefault(shape, []).append(member)
    results: list = [None] * len(projections)
    for (width, layer_axes), members in groups.items():
        # Members by the axes of Q, so each run of equal axes is one slice.
        if len(members) > 1:
            members.sort(key=itemgetter(0))
        size = max(1, _BATCH_AMPLITUDES >> width)
        for first in range(0, len(members), size):
            q_axes, indices, supports, projectors, matrices = zip(*members[first:first + size])
            # Op j of layer l of ``A`` (or ``A†``), stacked over the chunk.
            gates = [
                [(np.stack([m[l][j] for m in matrices]), axes) for j, axes in enumerate(ops)]
                for l, ops in enumerate(layer_axes)
            ]
            daggers = [[(np.conj(u).mT, axes) for u, axes in ops] for ops in gates]
            a_layers, a_dag_layers = (daggers, gates) if backward else (gates, daggers)
            state = np.zeros((len(indices),) + (2,) * width, dtype=complex)
            state.reshape(len(indices), -1)[:, 0] = 1.0
            for ops in a_dag_layers[::-1]:
                state = apply_layer(state, ops)
            state = _apply_projectors(state, q_axes, projectors)
            for ops in a_layers:
                state = apply_layer(state, ops)
            e = state.reshape(len(indices), -1)
            e[:, 0] -= 1.0
            for index, support, norms in zip(indices, supports, residual_norms(e)):
                results[index] = (support, norms)
    return results


def _apply_projectors(
    state: np.ndarray, q_axes: Sequence[tuple[int, ...]], projectors: Sequence[np.ndarray]
) -> np.ndarray:
    """Apply member ``b``'s ``projectors[b]`` on its ``q_axes[b]`` of ``state``.

    Equal axes come in sorted runs; each run is one
    :func:`~shallowcheck.linalg.apply_layer` call on its slice of the
    stacked state.
    """
    if q_axes[0] == q_axes[-1]:
        return apply_layer(state, [(np.stack(projectors), q_axes[0])])
    runs = [b for b in range(1, len(q_axes)) if q_axes[b] != q_axes[b - 1]]
    out = np.empty_like(state)
    for lo, hi in zip([0] + runs, runs + [len(q_axes)]):
        out[lo:hi] = apply_layer(state[lo:hi], [(np.stack(projectors[lo:hi]), q_axes[lo])])
    return out
