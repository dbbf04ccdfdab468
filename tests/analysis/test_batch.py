"""Suite-wide lint sweep: every builtin benchmark stays warning-clean.

This is the regression net behind ``make check`` — structural drift in the
generators or the mapping layer (dangling nets, loops, zero-delay arcs,
runaway fanout) turns this red before any table does.
"""

from repro.analysis import Severity, lint_suite
from repro.benchcircuits import all_circuit_names


def test_every_builtin_benchmark_is_warning_clean(lsi_lib):
    reports = lint_suite(lsi_lib)
    assert set(reports) == set(all_circuit_names())
    noisy = {
        name: [d.render() for d in report.at_or_above(Severity.WARNING)]
        for name, report in reports.items()
        if not report.ok(Severity.WARNING)
    }
    assert not noisy, noisy


def test_lint_suite_subset_and_unit_library(unit_lib):
    reports = lint_suite(unit_lib, names=["comparator2", "full_adder"])
    assert set(reports) == {"comparator2", "full_adder"}
    assert all(r.ok(Severity.WARNING) for r in reports.values())
