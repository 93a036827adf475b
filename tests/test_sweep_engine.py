"""Tests for the declarative scenario engine (specs, caching, parallel
execution, resume, and the float32 preset).

The heavier federation cells run on a shrunken tiny-preset variant so the
whole module stays seconds-scale.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.experiments.engine import (
    ScenarioSpec,
    SweepEngine,
    SweepPlan,
    scenario,
)
from repro.experiments.runner import run_framework
from repro.experiments.scenarios import get_preset, tiny_preset


def mini_preset(seed: int = 42):
    """tiny, further shrunk: same code paths, fraction of the epochs."""
    return replace(
        tiny_preset(seed),
        pretrain_epochs=40,
        num_rounds=1,
        client_epochs=2,
        malicious_epochs=5,
    )


def mini_plan(preset, name="mini"):
    """Four cells sharing one building/pre-train: 2 attacks × 2 ε."""
    cells = tuple(
        scenario("safeloc", attack=attack, epsilon=eps)
        for attack in ("fgsm", "label_flip")
        for eps in (0.1, 0.5)
    )
    return SweepPlan(name=name, preset=preset, cells=cells)


def summaries_of(sweep):
    return [cell.error_summary for cell in sweep.cells]


class TestScenarioSpec:
    def test_scenario_normalizes_kwargs_and_epsilon(self):
        spec = scenario(
            "safeloc", framework_kwargs={"tau": 0.2, "mode": "absolute"}
        )
        assert spec.framework_kwargs == (("mode", "absolute"), ("tau", 0.2))
        assert spec.kwargs == {"tau": 0.2, "mode": "absolute"}
        # clean cells carry no epsilon
        assert scenario("safeloc", epsilon=0.7).epsilon == 0.0
        assert scenario("safeloc", attack="fgsm", epsilon=0.7).epsilon == 0.7

    def test_specs_are_hashable_and_label_free_identity(self):
        a = scenario("safeloc", attack="fgsm", epsilon=0.5, label="x")
        b = scenario("safeloc", attack="fgsm", epsilon=0.5, label="y")
        assert hash(a) != hash(b) or a != b  # labels distinguish specs
        assert a.identity() == b.identity()  # but not cell identity

    def test_plan_rejects_empty_and_unknown_kind(self):
        preset = tiny_preset()
        with pytest.raises(ValueError):
            SweepPlan(name="empty", preset=preset, cells=())
        with pytest.raises(ValueError):
            SweepPlan(
                name="x",
                preset=preset,
                cells=(ScenarioSpec(),),
                kind="quantum",
            )


class TestStagedCaching:
    def test_one_pretrain_for_shared_cells(self):
        sweep = SweepEngine().run(mini_plan(mini_preset()))
        trained, reused = sweep.pretrain_counts()
        assert trained == 1
        assert reused == len(sweep.cells) - 1
        assert sweep.stats["data"]["misses"] == 1

    @staticmethod
    def _monolithic(preset, framework, attack, epsilon):
        """The pre-refactor unsplit pipeline, inlined."""
        from repro.attacks import create_attack
        from repro.baselines.registry import make_framework
        from repro.data.fingerprints import paper_protocol
        from repro.fl.simulation import build_federation
        from repro.metrics.localization import evaluate_model
        from repro.utils.rng import SeedSequence

        building = preset.building(preset.buildings[0])
        train, tests = paper_protocol(building, seed=preset.seed)
        spec = make_framework(
            framework, building.num_aps, building.num_rps, seed=preset.seed
        )
        config = preset.federation_config(
            num_malicious=preset.num_malicious if attack else 0
        )
        attack_factory = None
        if attack:
            attack_factory = lambda: create_attack(
                attack, epsilon, num_classes=building.num_rps
            )
        server = build_federation(
            building,
            spec.model_factory,
            spec.strategy,
            config,
            SeedSequence(preset.seed),
            attack_factory=attack_factory,
        )
        server.pretrain(
            train, epochs=config.pretrain_epochs, lr=config.pretrain_lr
        )
        server.run_rounds(config.num_rounds)
        return evaluate_model(server.model, tests, building)

    def test_cached_pipeline_matches_monolithic_run(self):
        """Stage-cached cells reproduce the unsplit pipeline bit-for-bit."""
        preset = mini_preset()
        monolithic = self._monolithic(preset, "safeloc", "fgsm", 0.5)
        sweep = SweepEngine().run(mini_plan(preset))
        by_cell = {
            (c.spec.attack, c.spec.epsilon): c.error_summary
            for c in sweep.cells
        }
        assert by_cell[("fgsm", 0.5)] == monolithic

    @pytest.mark.parametrize(
        "framework", ["onlad", "fedhil", "fedcc", "fedls", "fedloc"]
    )
    def test_cached_pretrain_exact_for_every_framework(self, framework):
        """load_state_dict(cached pre-train) must equal pre-training in
        place for every comparison framework — the guarantee rests on each
        model's state_dict capturing all training-mutated state (ONLAD's
        two networks, FEDLS's detector-driven strategy, …)."""
        preset = mini_preset()
        attack, eps = ("label_flip", 1.0)
        monolithic = self._monolithic(preset, framework, attack, eps)
        cell = SweepEngine().run(
            SweepPlan(
                name=f"mono-{framework}",
                preset=preset,
                cells=(scenario(framework, attack=attack, epsilon=eps),),
            )
        ).cells[0]
        assert cell.error_summary == monolithic

    def test_tau_sweep_shares_pretrain(self):
        """τ never touches the trusted pre-train, so a τ grid costs one."""
        preset = mini_preset()
        cells = tuple(
            scenario(
                "safeloc",
                attack="fgsm",
                epsilon=0.5,
                framework_kwargs={"tau": tau},
            )
            for tau in (0.05, 0.3)
        )
        sweep = SweepEngine().run(
            SweepPlan(name="tau", preset=preset, cells=cells)
        )
        assert sweep.pretrain_counts() == (1, 1)
        # different τ must still produce its own federation outcome object
        assert all(c.error_summary is not None for c in sweep.cells)


class TestDeterminism:
    """Same seed ⇒ identical SweepResult sequentially, pooled, resumed."""

    @pytest.fixture(scope="class")
    def reference(self):
        return SweepEngine().run(mini_plan(mini_preset()))

    def test_parallel_matches_sequential(self, reference):
        parallel = SweepEngine(jobs=4).run(mini_plan(mini_preset()))
        assert summaries_of(parallel) == summaries_of(reference)
        assert [c.flagged_per_round for c in parallel.cells] == [
            c.flagged_per_round for c in reference.cells
        ]

    def test_resumed_matches_fresh(self, reference, tmp_path):
        preset = mini_preset()
        plan = mini_plan(preset)
        cache = str(tmp_path / "cache")
        # half the sweep, persisted
        half = SweepPlan(name=plan.name, preset=preset, cells=plan.cells[:2])
        SweepEngine(cache_dir=cache).run(half)
        # full sweep resumed from the half-finished cache
        resumed = SweepEngine(cache_dir=cache, resume=True).run(plan)
        assert resumed.resumed_count() == 2
        assert [c.resumed for c in resumed.cells] == [True, True, False, False]
        assert summaries_of(resumed) == summaries_of(reference)

    def test_run_framework_equals_engine_cell(self, reference):
        preset = mini_preset()
        result = run_framework("safeloc", preset, attack="fgsm", epsilon=0.1)
        assert result.error_summary == reference.cells[0].error_summary


class TestResumeStore:
    def test_cell_json_roundtrip(self, tmp_path):
        preset = mini_preset()
        plan = SweepPlan(
            name="one",
            preset=preset,
            cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
        )
        cache = str(tmp_path / "cache")
        first = SweepEngine(cache_dir=cache).run(plan)
        second = SweepEngine(cache_dir=cache, resume=True).run(plan)
        assert second.resumed_count() == 1
        a, b = first.cells[0], second.cells[0]
        assert a.error_summary == b.error_summary
        assert a.spec == b.spec
        assert a.building == b.building
        assert a.flagged_per_round == b.flagged_per_round
        assert a.parameter_count == b.parameter_count

    def test_resume_keeps_requested_label(self, tmp_path):
        """Cache keys are label-free, so a cell stored by one plan can be
        resumed by another — but it must come back wearing the *requested*
        spec, not the stored one (ablation drivers bucket by label)."""
        preset = mini_preset()
        cache = str(tmp_path / "cache")
        stored = scenario(
            "safeloc", attack="fgsm", epsilon=0.5,
            strategy="saliency-relative", label="saliency-relative/x",
        )
        requested = scenario(
            "safeloc", attack="fgsm", epsilon=0.5,
            strategy="saliency-relative", label="denoise-on/x",
        )
        SweepEngine(cache_dir=cache).run(
            SweepPlan(name="a", preset=preset, cells=(stored,))
        )
        resumed = SweepEngine(cache_dir=cache, resume=True).run(
            SweepPlan(name="b", preset=preset, cells=(requested,))
        )
        assert resumed.resumed_count() == 1
        assert resumed.cells[0].spec == requested

    def test_resume_shares_default_and_explicit_building(self, tmp_path):
        """building=None and the explicit first-building name are the
        same cell and must share one cache entry."""
        preset = mini_preset()
        cache = str(tmp_path / "cache")
        implicit = scenario("safeloc", attack="fgsm", epsilon=0.5)
        explicit = scenario(
            "safeloc", attack="fgsm", epsilon=0.5,
            building=preset.buildings[0],
        )
        SweepEngine(cache_dir=cache).run(
            SweepPlan(name="a", preset=preset, cells=(implicit,))
        )
        resumed = SweepEngine(cache_dir=cache, resume=True).run(
            SweepPlan(name="b", preset=preset, cells=(explicit,))
        )
        assert resumed.resumed_count() == 1

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ValueError):
            SweepEngine(resume=True)

    def test_corrupt_disk_artifact_recomputed(self, tmp_path):
        """A truncated .npz (killed writer) must recompute, not crash."""

        preset = mini_preset()
        cache = str(tmp_path / "cache")
        plan = SweepPlan(
            name="one",
            preset=preset,
            cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
        )
        reference = SweepEngine(cache_dir=cache).run(plan)
        pretrain_dir = tmp_path / "cache" / "pretrain"
        archives = list(pretrain_dir.glob("*.npz"))
        assert archives
        archives[0].write_bytes(b"PK\x03\x04 truncated")
        # no stale temp files left behind by the atomic writes either
        assert not list(tmp_path.rglob(".tmp-*"))
        # fresh engine (cold memo) must survive the corrupt artifact
        again = SweepEngine(cache_dir=cache).run(plan)
        assert summaries_of(again) == summaries_of(reference)

    def test_scenario_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            scenario("safeloc", strategy="majority-vote")

    def test_footprint_cells_never_resume(self, tmp_path):
        """Latency is a measurement, not a pure function — Table I cells
        must be re-measured every run, never served from the cache."""
        from repro.experiments.table1_overheads import plan_table1

        plan = plan_table1(mini_preset())
        cache = str(tmp_path / "cache")
        SweepEngine(cache_dir=cache).run(plan)
        assert not (tmp_path / "cache" / "cells").exists()
        again = SweepEngine(cache_dir=cache, resume=True).run(plan)
        assert again.resumed_count() == 0

    def test_resume_ignores_other_presets(self, tmp_path):
        """A cached cell from one preset must not satisfy another."""
        cache = str(tmp_path / "cache")
        plan42 = SweepPlan(
            name="p",
            preset=mini_preset(42),
            cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
        )
        plan43 = SweepPlan(
            name="p",
            preset=mini_preset(43),
            cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
        )
        SweepEngine(cache_dir=cache).run(plan42)
        other = SweepEngine(cache_dir=cache, resume=True).run(plan43)
        assert other.resumed_count() == 0


def eps_plan(preset, name="eps", epsilons=(0.1, 0.5)):
    """A Fig. 5-shaped ε grid on one attack (round-cache sharing shape)."""
    cells = tuple(
        scenario("safeloc", attack="fgsm", epsilon=eps) for eps in epsilons
    )
    return SweepPlan(name=name, preset=preset, cells=cells)


class TestProcessExecutor:
    """`executor="process"`: pool cells, bit-identical to sequential."""

    @pytest.fixture(scope="class")
    def reference(self):
        return SweepEngine(round_cache=False).run(eps_plan(mini_preset()))

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            SweepEngine(executor="gpu")

    def test_process_pool_matches_sequential(self, reference):
        pooled = SweepEngine(jobs=2, executor="process").run(
            eps_plan(mini_preset())
        )
        assert summaries_of(pooled) == summaries_of(reference)
        assert [c.flagged_per_round for c in pooled.cells] == [
            c.flagged_per_round for c in reference.cells
        ]
        assert [c.parameter_count for c in pooled.cells] == [
            c.parameter_count for c in reference.cells
        ]
        assert pooled.executor == "process"
        # worker stage counters must fold back into the sweep report
        assert pooled.stats["pretrain"]["misses"] >= 1
        assert pooled.stats["cells"]["misses"] == len(pooled.cells)

    def test_process_pool_shares_disk_cache(self, reference, tmp_path):
        """Workers share data/pre-train artifacts through --cache-dir."""
        cache = str(tmp_path / "cache")
        SweepEngine(cache_dir=cache).run(eps_plan(mini_preset()))
        pooled = SweepEngine(
            jobs=2, executor="process", cache_dir=cache
        ).run(eps_plan(mini_preset()))
        assert summaries_of(pooled) == summaries_of(reference)
        assert pooled.stats["pretrain"]["hits"] == len(pooled.cells)

    def test_shared_stages_run_once_before_the_pool(self, reference):
        """Data and pre-train shared by several cells are made once, in
        the parent, and the forked workers reuse them."""
        from repro.experiments import engine as engine_module

        pooled = SweepEngine(jobs=2).run(eps_plan(mini_preset()))
        assert summaries_of(pooled) == summaries_of(reference)
        for stage in ("data", "pretrain"):
            assert pooled.stats[stage] == {
                "misses": 1, "hits": len(pooled.cells)
            }
        assert engine_module._WORKER_ENGINES == {}

    def test_a_failing_shared_stage_fails_its_cells(self):
        """A shared stage that raises before the pool forks is left to
        its cells: the scheduler records them as failures."""
        cells = tuple(
            scenario(
                "safeloc", attack="fgsm", epsilon=eps,
                num_clients=2, num_malicious=3,
            )
            for eps in (0.1, 0.5)
        )
        plan = SweepPlan(name="bad", preset=mini_preset(), cells=cells)
        result = SweepEngine(jobs=2, on_error="continue").run(plan)
        assert result.cells == []
        assert [f.error_type for f in result.failures] == ["ValueError"] * 2

    def test_resumed_cells_keep_requested_label(self, tmp_path):
        """Resume relabeling (cache keys are label-free) must survive
        pooled execution: resumed cells come back wearing the
        *requested* spec, fresh cells run on the pool."""
        preset = mini_preset()
        cache = str(tmp_path / "cache")
        stored = eps_plan(preset, name="a").cells
        stored = tuple(
            ScenarioSpec(**{**asdict(spec), "label": f"stored/{i}"})
            for i, spec in enumerate(stored)
        )
        SweepEngine(cache_dir=cache).run(
            SweepPlan(name="a", preset=preset, cells=stored)
        )
        requested = tuple(
            ScenarioSpec(**{**asdict(spec), "label": f"wanted/{i}"})
            for i, spec in enumerate(stored)
        )
        resumed = SweepEngine(
            jobs=2, executor="process", cache_dir=cache, resume=True
        ).run(SweepPlan(name="b", preset=preset, cells=requested))
        assert resumed.resumed_count() == len(requested)
        assert tuple(c.spec for c in resumed.cells) == requested
        assert all(c.spec.label.startswith("wanted/") for c in resumed.cells)

    def test_fully_resumed_sweep_reports_no_pool(self, tmp_path):
        """Nothing left to run starts no pool: the report names the
        inline backend, whatever --jobs asked for."""
        cache = str(tmp_path / "cache")
        plan = eps_plan(mini_preset())
        SweepEngine(cache_dir=cache).run(plan)
        resumed = SweepEngine(jobs=2, cache_dir=cache, resume=True).run(plan)
        assert resumed.resumed_count() == len(plan.cells)
        assert (resumed.jobs, resumed.executor) == (1, "serial")


class TestRoundCache:
    """Federate-stage client-update cache: ε grids share honest rounds."""

    @pytest.fixture(scope="class")
    def uncached(self):
        return SweepEngine(round_cache=False).run(eps_plan(mini_preset()))

    def test_epsilon_grid_bit_identical_with_hits(self, uncached):
        cached = SweepEngine(round_cache=True).run(eps_plan(mini_preset()))
        assert summaries_of(cached) == summaries_of(uncached)
        assert [c.flagged_per_round for c in cached.cells] == [
            c.flagged_per_round for c in uncached.cells
        ]
        trained, reused = cached.update_counts()
        # first cell trains all clients; every later ε cell reuses the
        # honest majority and retrains only the attacker
        preset = mini_preset()
        honest = preset.num_clients - preset.num_malicious
        extra_cells = len(cached.cells) - 1
        assert reused == honest * extra_cells
        assert trained == preset.num_clients + extra_cells
        assert "round cache" in cached.format_stats()
        assert uncached.stats.get("federate") is None

    def test_strategy_ablation_shares_malicious_updates_too(self):
        """Strategies only influence updates through the broadcast state,
        so round 1 of a strategy ablation shares *all* clients."""
        preset = mini_preset()
        cells = tuple(
            scenario(
                "safeloc", attack="fgsm", epsilon=0.5, strategy=strategy
            )
            for strategy in ("saliency-relative", "fedavg")
        )
        sweep = SweepEngine().run(
            SweepPlan(name="strat", preset=preset, cells=cells)
        )
        trained, reused = sweep.update_counts()
        assert reused == preset.num_clients  # whole round 1 of cell 2
        assert trained == preset.num_clients

    def test_round_cache_persists_under_cache_dir(self, uncached, tmp_path):
        cache = str(tmp_path / "cache")
        plan = eps_plan(mini_preset())
        SweepEngine(cache_dir=cache).run(plan)
        assert list((tmp_path / "cache" / "federate").glob("*.npz"))
        # a fresh engine (cold memo, no resume) reloads every round-1
        # update from disk and still reproduces bit for bit
        again = SweepEngine(cache_dir=cache).run(plan)
        assert summaries_of(again) == summaries_of(uncached)
        # every round-1 update of every cell (the attackers' included)
        # was persisted by the first run, so nothing retrains
        trained, reused = again.update_counts()
        assert trained == 0
        assert reused == mini_preset().num_clients * len(plan.cells)

    def test_update_encode_decode_roundtrip(self):
        import numpy as np

        from repro.experiments.artifacts import decode_update, encode_update
        from repro.fl.aggregation import ClientUpdate

        update = ClientUpdate(
            client_name="client-3",
            state={
                "w": np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0,
                "b": np.float32([0.25, -1.5]),
            },
            num_samples=11,
            train_loss=0.125,
            flagged_poisoned=2,
            is_malicious=True,
        )
        decoded = decode_update(encode_update(update))
        assert decoded.client_name == update.client_name
        assert decoded.num_samples == 11
        assert decoded.train_loss == 0.125
        assert decoded.flagged_poisoned == 2
        assert decoded.is_malicious is True
        assert set(decoded.state) == {"w", "b"}
        for key in update.state:
            assert decoded.state[key].dtype == update.state[key].dtype
            assert (decoded.state[key] == update.state[key]).all()
            # decoded arrays never alias the encoder's input
            assert decoded.state[key] is not update.state[key]


def _update(value=1.0):
    from repro.fl.aggregation import ClientUpdate

    return ClientUpdate(
        client_name="client-0",
        state={"w": np.full((2, 3), value), "b": np.float32([value, -value])},
        num_samples=5,
        train_loss=0.5,
    )


def _mutate(update):
    for tensor in update.state.values():
        tensor += 100.0


def _assert_pristine(update, value=1.0):
    assert (update.state["w"] == value).all()
    assert (update.state["b"] == np.float32([value, -value])).all()


def _damage(path, kind):
    """Overwrite a cache entry with garbage or a truncated copy of itself."""
    data = path.read_bytes()
    path.write_bytes(
        b"not an npz" * 8 if kind == "garbage" else data[: len(data) // 2]
    )


class TestRoundCacheLayers:
    """The federate memo holds private array copies; ``.npz`` encoding
    runs only on the disk layer; damaged disk entries recompute."""

    @pytest.fixture(params=[False, True], ids=["memo", "disk"])
    def artifacts(self, request, tmp_path):
        from repro.experiments.artifacts import ArtifactCache

        return ArtifactCache(str(tmp_path) if request.param else None)

    def test_mutating_a_hit_leaves_the_entry(self, artifacts):
        artifacts.get_client_update("k", _update)
        hit, was_hit = artifacts.get_client_update("k", _update)
        assert was_hit
        _mutate(hit)
        _assert_pristine(artifacts.peek_client_update("k"))
        _mutate(artifacts.peek_client_update("k"))
        _assert_pristine(artifacts.get_client_update("k", _update)[0])

    def test_mutating_a_stored_update_leaves_the_entry(self, artifacts):
        assert artifacts.peek_client_update("k") is None
        update = _update()
        assert artifacts.store_client_update("k", update) is update
        _mutate(update)
        _assert_pristine(artifacts.peek_client_update("k"))

    def test_mutating_a_get_update_miss_leaves_the_entry(self, artifacts):
        from repro.experiments.artifacts import RoundCache

        cache = RoundCache(artifacts, {"cell": "c"}, [None])
        update = _update()
        assert cache.get_update(0, 1, "sig", lambda: update) is update
        _mutate(update)
        _assert_pristine(cache.lookup(0, 1, "sig"))
        assert artifacts.stats.snapshot()["federate"] == {
            "hits": 1,
            "misses": 1,
        }

    def test_concurrent_misses_compute_once(self):
        import sys
        import threading
        import time

        from repro.experiments.artifacts import ArtifactCache

        cache = ArtifactCache()
        calls = []

        def compute():
            calls.append(1)
            time.sleep(0.01)
            return _update()

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_client_update("k", compute)[0]
                )
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert cache.stats.snapshot()["federate"] == {"hits": 7, "misses": 1}
        assert len({id(u.state["w"]) for u in results}) == len(threads)
        for update in results:
            _assert_pristine(update)

    def test_memo_never_encodes(self, monkeypatch):
        from repro.experiments import artifacts as module

        def fail(*args):
            raise AssertionError("in-memory federate cache ran a codec")

        monkeypatch.setattr(module, "encode_update", fail)
        monkeypatch.setattr(module, "decode_update", fail)
        cache = module.ArtifactCache()
        cache.get_client_update("a", _update)
        cache.get_client_update("a", _update)
        cache.store_client_update("b", _update())
        cache.peek_client_update("b")

    @pytest.mark.parametrize("probe", ["peek", "get"])
    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_damaged_disk_entry_is_a_miss(self, damage, probe, tmp_path):
        from repro.experiments.artifacts import ArtifactCache

        ArtifactCache(str(tmp_path)).store_client_update("k", _update())
        _damage(tmp_path / "federate" / "k.npz", damage)
        cache = ArtifactCache(str(tmp_path))
        if probe == "peek":
            assert cache.peek_client_update("k") is None
            assert not (tmp_path / "federate" / "k.npz").exists()
            cache.store_client_update("k", _update(2.0))
        else:
            _, hit = cache.get_client_update("k", lambda: _update(2.0))
            assert not hit
        assert cache.stats.snapshot()["federate"] == {"hits": 0, "misses": 1}
        reloaded = ArtifactCache(str(tmp_path)).peek_client_update("k")
        _assert_pristine(reloaded, 2.0)


def _engine_plan(client_engine):
    return eps_plan(replace(mini_preset(), client_engine=client_engine))


def _cell_outputs(sweep):
    return [
        (c.error_summary, c.flagged_per_round, c.dropped_per_round)
        for c in sweep.cells
    ]


@pytest.mark.parametrize("client_engine", ["serial", "batched"])
class TestRoundCacheEquivalence:
    """Memo hits, disk hits and ``round_cache=False`` give bit-identical
    ε-grid cells on both client engines, and a damaged federate entry
    is recomputed to the same cell."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Per engine: the uncached reference and a populated cache dir."""
        out = {}
        for client_engine in ("serial", "batched"):
            plan = _engine_plan(client_engine)
            cache = tmp_path_factory.mktemp(f"cache-{client_engine}")
            first = SweepEngine(cache_dir=str(cache)).run(plan)
            out[client_engine] = (
                _cell_outputs(SweepEngine(round_cache=False).run(plan)),
                first,
                cache,
            )
        return out

    def test_memo_disk_and_uncached_agree(self, runs, client_engine):
        reference, memo, cache = runs[client_engine]
        # the second ε cell's honest clients are memo hits
        assert memo.stats["federate"]["hits"] > 0
        assert _cell_outputs(memo) == reference
        disk = SweepEngine(cache_dir=str(cache)).run(
            _engine_plan(client_engine)
        )
        # a fresh engine has a cold memo: every update comes off disk
        assert disk.stats["federate"].get("misses", 0) == 0
        assert _cell_outputs(disk) == reference

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_damaged_entry_recomputes(
        self, runs, client_engine, damage, tmp_path
    ):
        import shutil

        reference, _, cache = runs[client_engine]
        copy = tmp_path / "cache"
        shutil.copytree(cache, copy)
        entries = sorted((copy / "federate").glob("*.npz"))
        data = entries[0].read_bytes()
        _damage(entries[0], damage)
        plan = _engine_plan(client_engine)
        again = SweepEngine(cache_dir=str(copy)).run(plan)
        assert _cell_outputs(again) == reference
        lookups = plan.preset.num_clients * len(plan.cells)
        assert again.stats["federate"] == {"hits": lookups - 1, "misses": 1}
        assert entries[0].read_bytes() == data


class TestSweepResultStats:
    def test_cells_per_second_never_inf(self):
        from repro.experiments.engine import CellResult, SweepResult

        warm = SweepResult(
            plan_name="p", preset_name="tiny", seed=42, kind="federation",
            cells=[CellResult(spec=ScenarioSpec(), resumed=True)],
            stats={}, duration_s=0.0,
        )
        assert warm.cells_per_second == 0.0
        assert "n/a cells/s" in warm.format_stats()
        assert "inf" not in warm.format_stats()
        timed = SweepResult(
            plan_name="p", preset_name="tiny", seed=42, kind="federation",
            cells=[CellResult(spec=ScenarioSpec())], stats={},
            duration_s=2.0,
        )
        assert timed.cells_per_second == 0.5


class TestFast32Preset:
    def test_registered(self):
        preset = get_preset("fast32")
        assert preset.name == "fast32"
        assert preset.compute_dtype == "float32"
        assert get_preset("fast").compute_dtype == "float64"

    def test_float32_drift_within_tolerance(self):
        """The half-width path tracks float64 closely: localization is
        discrete, so small weight drift flips few predictions.  Tolerance:
        ≤ 0.25 m absolute mean-error drift at mini scale (measured drift
        is ~0.01 m)."""
        preset64 = mini_preset()
        preset32 = replace(preset64, name="mini32", compute_dtype="float32")
        for framework, attack, eps in (
            ("safeloc", "fgsm", 0.5),
            ("fedloc", None, 0.0),
        ):
            a = run_framework(
                framework, preset64, attack=attack, epsilon=eps
            ).error_summary
            b = run_framework(
                framework, preset32, attack=attack, epsilon=eps
            ).error_summary
            assert abs(a.mean - b.mean) <= 0.25
            assert a.count == b.count

    def test_float32_states_are_float32(self):
        from repro.baselines.registry import make_framework
        from repro.nn.dtype import compute_dtype

        with compute_dtype(np.float32):
            model = make_framework("fedloc", 8, 5, seed=0).model_factory()
            assert all(
                v.dtype == np.float32 for v in model.state_dict().values()
            )
