"""Start-up cost: importing the toolkit pulls in no third-party packages.

Every CLI run and every process-pool worker pays the import of
``repro``; a heavyweight dependency imported at module level would tax
all of them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_numpy():
    probe = (
        "import sys\n"
        "import repro, repro.core.pipeline, repro.campaign.runner, repro.analysis\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
