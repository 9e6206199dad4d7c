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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate
from .errors import CapacityError, DomainError
from .linalg import ErrorTriple, apply_layer, dagger, residual_norms

__all__ = [
    "ZERO_PROJECTOR",
    "cone_residuals",
    "walk_light_cones",
]

#: The projector onto ``|0>`` on one qubit.
ZERO_PROJECTOR = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
ZERO_PROJECTOR.setflags(write=False)

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
        for i, current in enumerate(supports):
            touched = {
                id(g): g for q in current if (g := owner.get(q)) is not None
            }
            if not touched:
                continue
            grown = set(current)
            for g in touched.values():
                grown.update(g.qubits)
            if len(grown) > cap:
                raise CapacityError(
                    f"{what.format(i)} would reach {len(grown)} qubit(s) at "
                    f"layer {layer_index}, exceeding the support cap of {cap}",
                    size=len(grown),
                    cap=cap,
                )
            supports[i] = tuple(sorted(grown))
            gates = sorted(touched.values(), key=lambda g: min(g.qubits))
            steps[i].append((gates, supports[i]))
    return steps


def cone_residuals(
    c: Circuit,
    projections: Sequence[tuple[np.ndarray, Sequence[int]]],
    what: str,
    cap: int,
    backward: bool = False,
) -> list[tuple[tuple[int, ...], ErrorTriple]]:
    """Norms of ``A Q A†|0...0> - |0...0>`` on the light cone of each ``Q``.

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
        One pair per projection: its cone's final support and the same
        norms :func:`~shallowcheck.linalg.membership_residual` gives for
        the dense ``A Q A†`` on that support.

    Raises
    ------
    CapacityError
        If a cone would exceed ``cap``, before any cone is simulated.
    """
    cones = walk_light_cones(c, [s for _, s in projections], what, cap, backward)
    results = []
    for (projector, start), steps in zip(projections, cones):
        support = steps[-1][1] if steps else tuple(start)
        axis = {q: i for i, q in enumerate(support)}
        # The ops of each layer of ``A`` and of ``A†``, in walk order.
        gates = [[(g.matrix, [axis[q] for q in g.qubits]) for g in t] for t, _ in steps]
        daggers = [[(dagger(u), axes) for u, axes in ops] for ops in gates]
        a_layers, a_dag_layers = (daggers, gates) if backward else (gates, daggers)
        width = len(support)
        state = np.zeros((2,) * width, dtype=complex)
        state[(0,) * width] = 1.0
        q_ops = [(projector, [axis[q] for q in start])]
        for ops in a_dag_layers[::-1] + [q_ops] + a_layers:
            state = apply_layer(state, ops)
        e = state.reshape(-1)
        e[0] -= 1.0
        results.append((support, residual_norms(e)))
    return results
