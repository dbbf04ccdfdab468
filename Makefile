# Developer entry points. `make check` is the CI gate: tier-1 tests, the
# warning-level lint sweep over every builtin benchmark, the
# abstract-interpretation sweep, and the campaign crash/quarantine/resume
# and distributed (lease steal / fleet loss) smoke drills.

PYTHON ?= python
PYTHONPATH := src

.PHONY: check test lint-circuits analyze paths campaign-smoke distributed-smoke verify-mask lint-py typecheck bench bench-obs bench-spcf

check: test lint-circuits analyze paths campaign-smoke distributed-smoke bench-spcf

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

lint-circuits:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro lint all --fail-on warning

# Abstract-interpretation sweep (ABS001-ABS008) over every builtin
# benchmark.  Errors here mean an internal-consistency bug (interval vs.
# STA, or a hazard escaping Sigma_y), so the gate is --fail-on error.
analyze:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro analyze all --fail-on error

# Path-sensitization acceptance gate: the builtin sweep must keep the SPCF
# bit-identical under tightened-arrival certificates, strictly improve the
# summed precert discharge count, and record the prefilter discharge rate.
paths:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_paths.py --check

# End-to-end campaign drill: worker SIGKILL absorbed by retry, a persistent
# crasher quarantined, and resume reproducing the baseline byte-for-byte.
campaign-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro campaign smoke

# Distributed drill: a queue campaign on 4 elastic workers loses half the
# fleet to SIGKILL plus one wedged worker holding a lease, and must still
# finish with every shard done and the aggregate byte-identical to a
# single-host inline run.
distributed-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro campaign smoke --distributed

verify-mask:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro verify-mask comparator2
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro verify-mask cmb

# Python-side style lint; config lives in pyproject.toml ([tool.ruff]).
# Optional: skipped with a notice when ruff is not installed.
lint-py:
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src tests \
		|| echo "ruff not installed; skipping python lint"

# Strict type-checking of the analysis package (config in pyproject.toml,
# [tool.mypy]).  Optional: skipped with a notice when mypy is not installed.
typecheck:
	@command -v mypy >/dev/null 2>&1 \
		&& mypy \
		|| echo "mypy not installed; skipping typecheck"

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Observability overhead gate: instrumented hot paths with REPRO_OBS unset
# must run within 2% of a pristine (never-instrumented) copy.
bench-obs:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_obs_overhead.py --check

# Pre-certification acceptance gate: the serial 5-threshold exact short-path
# sweep must be bit-identical with certificates on and >= 2x faster (median)
# via precertify + the multi-root compile.  Writes BENCH_spcf.json.
bench-spcf:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_spcf.py --check
