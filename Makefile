# Developer entry points. `make check` is the CI gate: tier-1 tests, the
# warning-level lint sweep over every builtin benchmark, the campaign
# crash/quarantine/resume smoke drill, the independent masking verifier,
# and the lift/collapse golden-network check.

PYTHON ?= python
PYTHONPATH := src

.PHONY: check test lint-circuits campaign-smoke verify-mask lint-py typecheck bench bench-obs bench-collapse e2e-check

check: test lint-circuits campaign-smoke verify-mask bench-collapse

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

lint-circuits:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro lint all --fail-on warning

# End-to-end campaign drill: worker SIGKILL absorbed by retry, a persistent
# crasher quarantined, and resume reproducing the baseline byte-for-byte.
campaign-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro campaign smoke

# Independent BDD proof of masking soundness, Sigma coverage and
# off-Sigma equivalence on freshly synthesized masking circuits.
verify-mask:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro verify-mask comparator2
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro verify-mask cmb
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro verify-mask cu

# Python-side style lint; config lives in pyproject.toml ([tool.ruff]).
# Optional: skipped with a notice when ruff is not installed.
lint-py:
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src tests \
		|| echo "ruff not installed; skipping python lint"

# Strict type-checking of the files listed in pyproject.toml [tool.mypy]:
# the analysis, SPCF and BDD packages, the masking proof (core/verify.py),
# switching power (synth/power.py), the LRU cache (lru.py), the
# factoring kernel (logic/factoring.py), static timing (sta/timing.py),
# the truth-table kernel (logic/truthtable.py), cube selection
# (core/cubeselect.py) and technology-independent networks
# (synth/technet.py).
# Optional: skipped with a notice when mypy is not installed.
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

# End-to-end benchmark gate: one untraced Table 2 pass, one threshold
# sweep pass (which reuses cached collapsed networks) and one Table 1 SPCF
# sweep pass, then the harness's own tests.  At seed 0 every Table 2 and
# threshold-sweep row and all 1,200 SPCF counts (4 generations x 5
# thresholds x 3 algorithms) must equal benchmarks/e2e/expected_seed0.json;
# any drift exits 1.
e2e-check:
	$(PYTHON) benchmarks/e2e/run.py --workload table2 --workload threshold_sweep --workload spcf_sweep --repeats 1 --trace 0
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/e2e -q

# Lift and collapse stage timings over the 20 Table 2 circuits.  Writes
# BENCH_collapse.json; the gate is only that every lifted and collapsed
# network matches tests/synth/data/collapsed_networks.json (never time).
bench-collapse:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_collapse.py --check
