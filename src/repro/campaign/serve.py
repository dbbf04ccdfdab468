"""Persistent campaign worker: ``python -m repro.campaign.serve``.

Serves shard request lines from stdin until EOF (the protocol is in
:mod:`repro.campaign.worker`).  The runner keeps one such process per
dispatch thread for a whole run, so interpreter start-up is paid once per
worker and its masked-design cache survives between shards.

Nothing in :mod:`repro.campaign` imports this module: ``python -m`` would
otherwise find it in ``sys.modules`` before running it and warn.
"""

from __future__ import annotations

import json
import sys
from typing import IO

from repro import obs
from repro.campaign.worker import SCHEMA, apply_sabotage, serve_request


def _respond(out: IO[str], response: dict) -> None:
    out.write(json.dumps(response) + "\n")
    out.flush()


def serve(stdin: IO[str], stdout: IO[str]) -> int:
    """Serve requests until EOF on stdin.  Returns the exit code."""
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError:
            _respond(stdout, {
                "schema": SCHEMA,
                "key": None,
                "error": "worker request is not valid JSON",
            })
            continue
        apply_sabotage(request.get("sabotage"), int(request.get("attempt", 0)))
        # The shard fingerprint crosses the protocol in the request so
        # this worker's spans carry the runner's correlation id.
        corr = request.get("corr")
        with obs.correlation(corr if isinstance(corr, str) else None):
            _respond(stdout, serve_request(request))
        if obs.enabled():
            # Delta semantics: the next response carries only what the
            # next shard records.
            obs.reset()
            obs.configure(enabled=True)
    return 0


def main() -> int:
    # The runner starts an attempt's timeout only after this line, so slow
    # imports never count against the first shard a worker runs.
    _respond(sys.stdout, {"schema": SCHEMA, "ready": True})
    return serve(sys.stdin, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
