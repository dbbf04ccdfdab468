"""Essential-weight cube selection (paper Sec. 4.1, steps (i)–(iii)).

Given an SOP cover of a node's on-set or off-set and the SPCF ``Sigma``:

1. cubes are arranged in ascending order of literal count,
2. the *essential weight* of the j-th cube is the fraction of ``Sigma``
   patterns covered by its primary-input-space image and not by the images
   of the cubes kept before it,
3. cubes with non-zero essential weight are kept, the rest discarded.

Only the sign of a weight decides a cube, and that sign depends only on
``Sigma``'s image at the cover's variables: a cube's primary-input image is
the preimage of the cube under the fanin functions, so
``Sigma & img(c) & ~covered`` is satisfiable iff the local image of
``Sigma`` meets ``c`` outside the kept cubes.  Selection therefore runs on
truth tables over the cover's names (:func:`repro.logic.truthtable
.cover_table`) against :meth:`BddManager.image_table`, the memo entry that
:func:`repro.core.careset.local_image_cover` reads for the same node.  The
exact :class:`~fractions.Fraction` weights need model counts over the
primary inputs; :class:`SelectionResult` computes them from the kept
cubes' BDD images on first read.

The kept cubes form the reduced covers ``n^0`` / ``n^1``.  By construction
the union of kept on-cubes still covers every ``Sigma``-reachable on-set
minterm (and symmetrically for the off-set): for any pattern in ``Sigma``,
the first full-cover cube containing its local minterm either was kept or
the pattern was already covered — property-tested in ``tests/core``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from repro.bdd.manager import BddManager, Function
from repro.core.careset import cube_image
from repro.errors import MaskingError
from repro.logic import truthtable
from repro.logic.cover import Cover
from repro.logic.cube import Cube


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of one essential-weight pass over a cover.

    Equal and hashed by ``kept``, ``weights`` and ``dropped``; the rest is
    what :attr:`weights` is computed from.
    """

    kept: Cover
    dropped: int
    sigma: Function = field(repr=False)
    functions: Mapping[str, Function] = field(repr=False)
    num_inputs: int = field(repr=False)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """Essential weight of each kept cube, an exact fraction of
        ``|Sigma|`` (all 0 when ``Sigma`` is empty)."""
        sigma, n = self.sigma, self.num_inputs
        mgr = sigma.manager
        sigma_count = sigma.count(n)
        covered = mgr.false
        weights: list[Fraction] = []
        for cube in self.kept.cubes:
            image = cube_image(cube, self.kept.names, self.functions, mgr)
            gain = sigma & image & ~covered
            weights.append(
                Fraction(gain.count(n), sigma_count) if sigma_count else Fraction(0)
            )
            covered = covered | image
        return tuple(weights)

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def _key(self) -> tuple[Cover, tuple[Fraction, ...], int]:
        return (self.kept, self.weights, self.dropped)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectionResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def select_cubes(
    cover: Cover,
    sigma: Function,
    functions: Mapping[str, Function],
    mgr: BddManager,
    num_inputs: int,
) -> SelectionResult:
    """Keep the cubes of ``cover`` with non-zero essential weight vs ``sigma``.

    ``functions`` maps each of ``cover.names`` to its global BDD in ``mgr``;
    ``num_inputs`` is the number of primary-input variables for the model
    counts (weights are exact fractions of ``|Sigma|``).  Raises
    :class:`MaskingError` for a name without a function or a cover wider
    than :data:`repro.logic.truthtable.MAX_VARS`, before any table is built.
    """
    names = cover.names
    k = len(names)
    if k > truthtable.MAX_VARS:
        raise MaskingError(
            f"cover over {k} names is wider than {truthtable.MAX_VARS}"
        )
    fns: list[int] = []
    for net in names:
        try:
            fns.append(functions[net].node)
        except KeyError:
            raise MaskingError(f"no global function for net {net!r}") from None
    reach = mgr.image_table(sigma.node, fns)
    positions = range(k)
    ordered = cover.sorted_by_literal_count()
    covered = 0
    kept: list[Cube] = []
    for cube in ordered.cubes:
        table = truthtable.cover_table((cube,), positions, k)
        if reach & table & ~covered:
            kept.append(cube)
            covered |= table
    return SelectionResult(
        kept=Cover(names, tuple(kept)),
        dropped=cover.num_cubes - len(kept),
        sigma=sigma,
        functions=functions,
        num_inputs=num_inputs,
    )
