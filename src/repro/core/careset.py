"""Satisfiability care-sets induced by the SPCF (paper Sec. 4.1).

For an internal node ``n_j`` of the technology-independent network, the SPCF
``Sigma_y`` at the primary inputs induces a *satisfiability care set* at the
node's local input space: the local minterms reachable from some pattern in
``Sigma_y``, i.e. the image of ``Sigma_y`` under the node's fanin functions.

Two views are provided:

* :func:`cube_image` / :func:`cover_image` map local cubes *back* to
  primary-input space: the image of a cube is the conjunction of the
  fanins' global functions with the cube's polarities, so no quantification
  is needed (the paper's per-cube formulation).  Only the exact essential
  weights of :class:`repro.core.cubeselect.SelectionResult` still need it,
  as they count primary-input patterns;
* :func:`local_image_cover` and :func:`local_care_sets` map ``Sigma_y``
  *forward* into the local space.  Nodes have at most
  :data:`repro.logic.truthtable.MAX_VARS` fanins, so the image is a
  truth table over ``node.fanins`` (fanin ``i`` is variable ``i``),
  computed by :meth:`BddManager.image_table` in one memoized cofactor walk
  over the manager's nodes.  The manager gains no variables.  Cube
  selection decides each cube against the same table (the same memo
  entry), so a node's selections and its care sets take one walk.
"""

from __future__ import annotations

from typing import Mapping

from repro.bdd.manager import BddManager, Function, conjunction
from repro.errors import MaskingError
from repro.logic import truthtable
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.synth.technet import TechNode


def cube_image(
    cube: Cube,
    names: tuple[str, ...],
    functions: Mapping[str, Function],
    mgr: BddManager,
) -> Function:
    """Primary-input-space image of a local cube.

    ``names`` gives the local variable (net) names of the cube's positions;
    ``functions`` maps nets to their global BDDs over the primary inputs.
    """
    terms = []
    for net, polarity in cube.to_dict(names).items():
        try:
            fn = functions[net]
        except KeyError:
            raise MaskingError(f"no global function for net {net!r}") from None
        terms.append(fn if polarity else ~fn)
    return conjunction(mgr, terms)


def cover_image(
    cover: Cover, functions: Mapping[str, Function], mgr: BddManager
) -> Function:
    """Primary-input-space image of a whole cover (OR of cube images)."""
    acc = mgr.false
    for cube in cover.cubes:
        acc = acc | cube_image(cube, cover.names, functions, mgr)
    return acc


def _image_table(
    node: TechNode,
    sigma: Function,
    functions: Mapping[str, Function],
    mgr: BddManager,
) -> int:
    """Local minterms of ``node`` reachable from ``sigma``, as a truth table
    over ``node.fanins``."""
    fns = [functions[net].node for net in node.fanins]
    return mgr.image_table(sigma.node, fns)


def local_image_cover(
    node: TechNode,
    sigma: Function,
    functions: Mapping[str, Function],
    mgr: BddManager,
) -> Cover:
    """Exact image of ``sigma`` at the node's local input space, as the
    irredundant SOP of its truth table over ``node.fanins``."""
    k = node.num_fanins
    table = _image_table(node, sigma, functions, mgr)
    return Cover(
        node.fanins,
        tuple(
            Cube.from_literals(lits, k)
            for lits in truthtable.isop(table, table, k)
        ),
    )


def local_care_sets(
    node: TechNode,
    sigma: Function,
    functions: Mapping[str, Function],
    mgr: BddManager,
) -> tuple[int, int]:
    """Explicit local-space care sets ``(s0, s1)`` of ``node`` under ``sigma``.

    Both are truth tables over ``node.fanins`` (fanin ``i`` is variable
    ``i``, as in :mod:`repro.logic.truthtable`): the local input minterms
    reachable from ``sigma`` for which the node evaluates to 0 / 1.
    """
    k = node.num_fanins
    reachable = _image_table(node, sigma, functions, mgr)
    on_local = truthtable.cover_table(node.on_cover.cubes, range(k), k)
    return reachable & ~on_local, reachable & on_local
