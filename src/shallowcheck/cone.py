"""Light-cone walker and the cone-state kernel of the membership test.

Every check in this package reduces to the same question about a local
projection ``P`` on a light cone: how far is ``P|0...0>`` from
``|0...0>``?  Two pieces answer it.

* :func:`walk_light_cones` grows supports layer by layer: at each layer
  a support absorbs the qubits of every gate that overlaps it.  The
  description engine, the static assertion check and the weak
  equivalence check all walk their cones with it, so supports, gate
  order and capacity errors agree between them.

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
  arithmetic, so cones of the same shape (width, gate axes layer by
  layer, axes of ``Q``) run as one group: their states are stacked on a
  leading batch axis and each layer is one ``apply_layer`` call for the
  whole group.  A stacked state holds at most ``2^16`` amplitudes
  (1 MiB); larger groups are split into chunks, and a cone of ``2^16``
  amplitudes or more runs alone, so wide cones take no more memory than
  one cone at a time does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate
from .errors import CapacityError, DomainError
from .linalg import ErrorTriple, apply_layer, residual_norms

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
        Each distinct support is grown once per layer, so cones that
        share a support there share the step object, which callers
        must not modify.

    Raises
    ------
    DomainError
        If ``cap`` is below 1, which no support can meet.
    CapacityError
        If a support would exceed ``cap``.  All cones advance one layer
        at a time, so the error names the first layer, in walk order, at
        which any cone overflows, and no cone is simulated before every
        cone is known to fit.
    """
    if cap < 1:
        raise DomainError(f"the support cap must be at least 1, got {cap}")
    supports = [tuple(s) for s in starts]
    steps: list[list[ConeStep]] = [[] for _ in supports]
    order = range(c.depth - 1, -1, -1) if backward else range(c.depth)
    for layer_index in order:
        # Gates keyed by the qubits they own, so finding the gates that
        # overlap a support costs O(|support|) rather than a scan of the
        # whole layer; this keeps the total work linear in qubit count.
        owner = {q: g for g in c.layers[layer_index].gates for q in g.qubits}
        # Cones that share a support (Choi twins, neighbours on a ladder)
        # share its step, so each distinct support is grown once a layer.
        memo: dict[tuple[int, ...], ConeStep | None] = {}
        for i, current in enumerate(supports):
            if current not in memo:
                memo[current] = _step(current, owner)
            step = memo[current]
            if step is None:
                continue
            grown = step[1]
            if len(grown) > cap:
                raise CapacityError(
                    f"{what.format(i)} would reach {len(grown)} qubit(s) at "
                    f"layer {layer_index}, exceeding the support cap of {cap}",
                    size=len(grown),
                    cap=cap,
                )
            supports[i] = grown
            steps[i].append(step)
    return steps


def _step(current: tuple[int, ...], owner: dict[int, Gate]) -> ConeStep | None:
    """The gates of one layer that overlap ``current`` and the grown support.

    ``owner`` maps each qubit the layer acts on to its gate; ``None``
    means no gate overlaps.
    """
    touched = {id(g): g for q in current if (g := owner.get(q)) is not None}
    if not touched:
        return None
    grown = set(current)
    for g in touched.values():
        grown.update(g.qubits)
    gates = sorted(touched.values(), key=lambda g: min(g.qubits))
    return gates, tuple(sorted(grown))


def cone_residuals(
    c: Circuit,
    projections: Sequence[tuple[np.ndarray, Sequence[int]]],
    what: str,
    cap: int,
    backward: bool = False,
) -> list[tuple[tuple[int, ...], ErrorTriple]]:
    """Norms of ``A Q A†|0...0> - |0...0>`` on the light cone of each ``Q``.

    Cones of the same shape (the same width, the same cone axes for
    every gate of every layer and the same axes for ``Q``) are simulated
    together: their states are stacked on a leading batch axis, their
    gates into ``(B, d, d)`` stacks, and each layer of ``A†``, ``Q`` and
    ``A`` is one :func:`~shallowcheck.linalg.apply_layer` call for the
    whole group.  A group is split into chunks of at most
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
    # Cones by shape: width, axes of Q, then the axes of each layer's
    # gates (1 + cone axis, behind the batch axis).  Each member is its
    # index, its support, its Q and its gate matrices, layer by layer.
    # Cones that share a step object share every later step and the
    # final support, so each step's axes and matrices are built once.
    groups: dict[tuple, list] = {}
    built: dict[tuple[int, tuple[int, ...]], tuple[tuple, list]] = {}
    for index, ((projector, start), steps) in enumerate(zip(projections, cones)):
        support = steps[-1][1] if steps else tuple(start)
        axis = {q: 1 + i for i, q in enumerate(support)}
        layers = []
        for step in steps:
            key = (id(step), support)
            if key not in built:
                built[key] = (
                    tuple(tuple(axis[q] for q in g.qubits) for g in step[0]),
                    [g.matrix for g in step[0]],
                )
            layers.append(built[key])
        shape = (len(support), tuple(axis[q] for q in start), tuple(a for a, _ in layers))
        member = (index, support, projector, [m for _, m in layers])
        groups.setdefault(shape, []).append(member)
    results: list = [None] * len(projections)
    for (width, q_axes, layer_axes), members in groups.items():
        size = max(1, _BATCH_AMPLITUDES >> width)
        for first in range(0, len(members), size):
            indices, supports, projectors, matrices = zip(*members[first:first + size])
            # Op j of layer l of ``A`` (or ``A†``), stacked over the chunk.
            gates = [
                [(np.stack([m[l][j] for m in matrices]), axes) for j, axes in enumerate(ops)]
                for l, ops in enumerate(layer_axes)
            ]
            daggers = [[(np.conj(u).mT, axes) for u, axes in ops] for ops in gates]
            a_layers, a_dag_layers = (daggers, gates) if backward else (gates, daggers)
            state = np.zeros((len(indices),) + (2,) * width, dtype=complex)
            state.reshape(len(indices), -1)[:, 0] = 1.0
            q_ops = [(np.stack(projectors), q_axes)]
            for ops in a_dag_layers[::-1] + [q_ops] + a_layers:
                state = apply_layer(state, ops)
            e = state.reshape(len(indices), -1)
            e[:, 0] -= 1.0
            for index, support, norms in zip(indices, supports, residual_norms(e)):
                results[index] = (support, norms)
    return results
