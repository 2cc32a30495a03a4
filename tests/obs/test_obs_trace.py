"""Tracer semantics: nesting, exception safety, the disabled fast path,
telemetry sessions and structured events."""

from __future__ import annotations

import logging

import pytest

from repro.core import (
    EvolutionConfig,
    MiningSession,
    domain_expert_alpha,
    get_initialization,
)
from repro.obs import (
    TELEMETRY,
    Tracer,
    get_telemetry,
    log_event,
    render_span_tree,
    telemetry_session,
)


def enabled_tracer() -> Tracer:
    tracer = Tracer()
    tracer.enabled = True
    return tracer


class TestTracer:
    def test_spans_nest_by_runtime_containment(self):
        tracer = enabled_tracer()
        with tracer.span("outer"):
            with tracer.span("inner", step=1):
                pass
            with tracer.span("inner", step=2):
                pass
        tree = tracer.tree()
        assert len(tree) == 1
        outer = tree[0]
        assert outer["name"] == "outer"
        assert [child["name"] for child in outer["children"]] == [
            "inner", "inner",
        ]
        assert outer["children"][0]["attrs"] == {"step": 1}
        assert outer["seconds"] >= sum(
            child["seconds"] for child in outer["children"]
        )

    def test_exception_closes_span_and_propagates(self):
        tracer = enabled_tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("failing"):
                    raise ValueError("boom")
        assert tracer.depth == 0  # nothing left open
        tree = tracer.tree()
        assert tree[0]["error"] is True
        failing = tree[0]["children"][0]
        assert failing["error"] is True
        assert failing["seconds"] >= 0.0

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        first = tracer.span("a")
        second = tracer.span("b", attr=1)
        assert first is second  # one shared object: no per-call allocation
        with first:
            pass
        assert tracer.tree() == []

    def test_reset_drops_everything(self):
        tracer = enabled_tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.tree() == []
        assert tracer.depth == 0


class TestRenderSpanTree:
    def test_renders_nested_tree_with_attrs_and_errors(self):
        tracer = enabled_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("run", scale="smoke"):
                with tracer.span("step"):
                    raise RuntimeError
        text = render_span_tree(tracer.tree())
        assert "run" in text and "scale=smoke" in text
        assert "  step" in text  # indented child
        assert "[error]" in text

    def test_empty_tree(self):
        assert render_span_tree([]) == "(no spans recorded)"


class TestTelemetrySession:
    def test_collects_and_restores_disabled_state(self):
        assert not TELEMETRY.enabled
        with telemetry_session() as telemetry:
            assert telemetry is TELEMETRY
            assert TELEMETRY.enabled
            TELEMETRY.counter("x").inc()
        assert not TELEMETRY.enabled
        # recorded data survives the session for snapshotting
        assert TELEMETRY.snapshot()["x"]["value"] == 1

    def test_session_resets_previous_data(self):
        TELEMETRY.registry.counter("stale").inc()
        with telemetry_session():
            assert "stale" not in TELEMETRY.registry

    def test_nested_session_is_passthrough(self):
        with telemetry_session():
            TELEMETRY.counter("outer").inc()
            with telemetry_session():
                TELEMETRY.counter("inner").inc()
            # the inner session neither reset nor disabled
            assert TELEMETRY.enabled
            snapshot = TELEMETRY.snapshot()
            assert "outer" in snapshot and "inner" in snapshot
        assert not TELEMETRY.enabled

    def test_disabled_session_forces_telemetry_off(self):
        TELEMETRY.enable()
        with telemetry_session(enabled=False):
            assert not TELEMETRY.enabled
        assert TELEMETRY.enabled  # restored

    def test_exception_still_restores_state(self):
        with pytest.raises(RuntimeError):
            with telemetry_session():
                raise RuntimeError
        assert not TELEMETRY.enabled

    def test_get_telemetry_returns_the_singleton(self):
        assert get_telemetry() is TELEMETRY


def span_names(nodes: list[dict]) -> list[str]:
    """Every span name in a :meth:`Tracer.tree`, depth first."""
    names = []
    for node in nodes:
        names.append(node["name"])
        names += span_names(node.get("children", []))
    return names


class TestSearchSpans:
    """Every search records one ``search.run`` span, whatever runs it."""

    @pytest.mark.parametrize(
        "num_islands, num_workers, checkpoint",
        [(1, 1, False), (2, 2, False), (1, 1, True)],
        ids=["one-island", "pooled", "checkpoint"],
    )
    def test_one_span_per_search(self, small_taskset, dims, tmp_path,
                                 num_islands, num_workers, checkpoint):
        session = MiningSession(
            small_taskset,
            evolution_config=EvolutionConfig(
                population_size=6, tournament_size=3, max_candidates=20,
                num_islands=num_islands, num_workers=num_workers,
            ),
            long_k=5, short_k=5, max_train_steps=10, seed=3,
            checkpoint_dir=str(tmp_path) if checkpoint else None,
        )
        with telemetry_session():
            session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                           enforce_cutoff=False)
        names = span_names(TELEMETRY.tracer.tree())
        assert names.count("search.run") == 1
        assert "search.cache_hit_rate" in TELEMETRY.snapshot()


class TestSearchGauges:
    """The search gauges describe the whole telemetry session, not
    whichever search finished last."""

    def test_gauges_are_run_level_over_several_searches(self, small_taskset,
                                                        dims):
        session = MiningSession(small_taskset, long_k=5, short_k=5,
                                max_train_steps=10, seed=3)
        results = []
        with telemetry_session():
            for code, candidates in (("D", 30), ("NN", 90)):
                config = EvolutionConfig(population_size=6, tournament_size=3,
                                         max_candidates=candidates)
                mined = session.search(get_initialization(code, dims, seed=3),
                                       name=f"alpha_AE_{code}_0",
                                       enforce_cutoff=False,
                                       evolution_config=config)
                results.append(mined.evolution)
            snapshot = TELEMETRY.snapshot()
        candidates = snapshot["search.candidates"]["value"]
        evaluations = snapshot["search.evaluations"]["value"]
        assert candidates == sum(r.candidates_generated for r in results)
        hit_rate = snapshot["search.cache_hit_rate"]["value"]
        assert hit_rate == 1.0 - evaluations / candidates
        # The last search alone hit the cache at another rate.
        last = results[-1].cache_stats
        assert hit_rate != last.skipped / last.searched
        run_seconds = snapshot["search.run_seconds"]
        assert run_seconds["count"] == 2
        assert snapshot["search.candidates_per_second"]["value"] == \
            candidates / run_seconds["total"]


class TestSearchFingerprints:
    """``search.fingerprints`` counts the canonical-IR pipeline runs: one
    per distinct pruned program of each search, not one per candidate."""

    def test_counts_each_pipeline_run(self, small_taskset, dims, monkeypatch):
        from repro.core import cache as cache_module

        runs = []
        real_fingerprint = cache_module.fingerprint

        def counting_fingerprint(program):
            runs.append(program.exact_key())
            return real_fingerprint(program)

        monkeypatch.setattr(cache_module, "fingerprint", counting_fingerprint)
        session = MiningSession(small_taskset, long_k=5, short_k=5,
                                max_train_steps=10, seed=3)
        config = EvolutionConfig(population_size=6, tournament_size=3,
                                 max_candidates=60)
        with telemetry_session():
            mined = [
                session.search(get_initialization(code, dims, seed=3),
                               name=f"alpha_AE_{code}_0", enforce_cutoff=False,
                               evolution_config=config)
                for code in ("D", "NN")
            ]
            snapshot = TELEMETRY.snapshot()
        fingerprints = snapshot["search.fingerprints"]
        assert fingerprints["type"] == "counter"
        assert fingerprints["value"] == len(runs)
        keyed = sum(result.evolution.cache_stats.searched
                    - result.evolution.cache_stats.redundant_alphas
                    for result in mined)
        assert len(runs) < keyed  # repeats were looked up, not re-keyed

        runs.clear()
        session.search(domain_expert_alpha(dims), name="alpha_AE_D_1",
                       enforce_cutoff=False, evolution_config=config)
        assert runs  # telemetry off: keys are computed but not counted
        assert TELEMETRY.snapshot()["search.fingerprints"] == fingerprints


class TestLogEvent:
    def test_emits_only_while_enabled(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            log_event("search.round", round=1)  # disabled: swallowed
            with telemetry_session():
                log_event("search.round", round=2, best=0.5)
        messages = [record.getMessage() for record in caplog.records]
        assert messages == ["search.round round=2 best=0.5"]
