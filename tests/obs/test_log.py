"""Correlation-id binding: the contextvar that stamps ``args.corr`` on spans."""

from __future__ import annotations

from repro.obs.tracing import correlation, correlation_id


class TestCorrelation:
    def test_default_is_none(self):
        assert correlation_id() is None

    def test_nesting_restores_previous_id(self):
        with correlation("outer"):
            assert correlation_id() == "outer"
            with correlation("inner"):
                assert correlation_id() == "inner"
            assert correlation_id() == "outer"
            # None explicitly clears (a worker between tasks).
            with correlation(None):
                assert correlation_id() is None
            assert correlation_id() == "outer"
        assert correlation_id() is None

    def test_exception_still_restores(self):
        try:
            with correlation("fp"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert correlation_id() is None
