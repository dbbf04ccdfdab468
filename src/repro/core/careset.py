"""Satisfiability care-sets induced by the SPCF (paper Sec. 4.1).

For an internal node ``n_j`` of the technology-independent network, the SPCF
``Sigma_y`` at the primary inputs induces a *satisfiability care set* at the
node's local input space: the local minterms reachable from some pattern in
``Sigma_y``.  The paper avoids materializing these minterm sets by working
per-cube in primary-input space: the image of a local cube under the fanin
functions is just the conjunction of the fanins' global functions with the
cube's polarities — no quantification needed.

:func:`cube_image` implements that per-cube image; :func:`local_care_sets`
computes the explicit local-space ``s0``/``s1`` sets (used by the golden
comparator test and for diagnostics) with auxiliary manager variables.
"""

from __future__ import annotations

from typing import Mapping

from repro.bdd.manager import BddManager, Function, conjunction
from repro.errors import MaskingError
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.synth.technet import TechNode

#: Prefix for auxiliary local-space variables registered after the PIs.
AUX_PREFIX = "@aux:"


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


def _reachable(
    node: TechNode,
    sigma: Function,
    functions: Mapping[str, Function],
    mgr: BddManager,
) -> Function:
    """Local minterms of ``node`` reachable from ``sigma``, over aux variables.

    Builds the relation ``sigma AND (aux_i <-> F_i)`` in ``mgr`` and
    quantifies every non-aux variable.  Variables outside the relation's
    support quantify to themselves, so a manager shared with other nodes
    (holding their aux variables) yields the same function.
    """
    aux = {f: mgr.ensure_var(AUX_PREFIX + f) for f in node.fanins}
    relation = sigma
    for f in node.fanins:
        relation = relation & aux[f].iff(functions[f])
    pis = [n for n in mgr.var_names if not n.startswith(AUX_PREFIX)]
    return relation.exists(pis)


def local_image_cover(
    node: TechNode,
    sigma: Function,
    functions: Mapping[str, Function],
    mgr: BddManager,
) -> Cover:
    """Exact image of ``sigma`` at the node's local input space, as a cover.

    Re-expresses :func:`_reachable` as an irredundant SOP over the node's
    fanin names.  The cubes follow ``mgr``'s aux-variable order, which
    depends on the nodes handled before; the function they cover does not.
    """
    from repro.bdd.isop import isop_function

    cubes = [
        {name[len(AUX_PREFIX):]: value for name, value in cube.items()}
        for cube in isop_function(_reachable(node, sigma, functions, mgr))
    ]
    return Cover.from_cube_dicts(node.fanins, cubes)


def local_care_sets(
    node: TechNode,
    sigma: Function,
    functions: Mapping[str, Function],
    mgr: BddManager,
) -> tuple[Function, Function]:
    """Explicit local-space care sets ``(s0, s1)`` of ``node`` under ``sigma``.

    Returns functions over auxiliary variables ``@aux:<fanin>`` (registered
    on demand at the bottom of the variable order): the sets of local input
    minterms reachable from ``sigma`` for which the node evaluates to 0 / 1.
    """
    reachable = _reachable(node, sigma, functions, mgr)
    rename = {f: AUX_PREFIX + f for f in node.fanins}
    on_local = node.on_cover.to_function(mgr, rename=rename)
    return reachable & ~on_local, reachable & on_local
