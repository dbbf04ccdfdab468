"""Every call site the end-to-end tracer wraps must exist.

``benchmarks/e2e/tracer.py`` patches the program from outside, by
``"module:attr"`` names; a refactor that moves or renames one of them
breaks ``run.py --trace``.  ``resolve`` raises for a missing target.
"""

from __future__ import annotations

import pytest

from tests.e2e_modules import load

tracer = load("tracer")


@pytest.mark.parametrize("target", sorted({p.target for p in tracer.POINTS}))
def test_tracer_target_resolves(target):
    owner, attr = tracer.resolve(target)
    assert callable(getattr(owner, attr))
