"""Load modules of the end-to-end benchmark (``benchmarks/e2e``) read-only."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def load(name: str):
    """Import ``benchmarks/e2e/<name>.py`` as module ``e2e_<name>``."""
    module_name = f"e2e_{name}"
    module = sys.modules.get(module_name)
    if module is None:
        spec = importlib.util.spec_from_file_location(module_name, E2E_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return module
