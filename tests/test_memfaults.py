"""Memory-hierarchy fault injection: occupancy maps, dead-region triage,
containment, parity, and the AVF report.

The two load-bearing invariants:

* ``single_bit`` campaigns stay byte-identical to their pre-occupancy bytes
  even with the occupancy pass forced on (``single_bit`` added to
  ``OCCUPANCY_MODELS``) — the map may exist, but the default model never
  consumes it;
* every memory model is deterministic across serial/parallel execution,
  triage on/off, fast path on/off, and checkpoint interrupt/resume.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.faultinjection.campaign import (
    CampaignConfig,
    _drive_trial,
    _ensure_occupancy,
    _trial_interpreter,
    draw_plans,
    prepare,
    run_campaign,
    run_trial,
)
from repro.faultinjection.diskcache import _config_fingerprint, campaign_key
from repro.faultinjection.resilience import ResiliencePolicy
from repro.obs import events as obs_events
from repro.obs.report import LogReport, _structure_of
from repro.sim import memfaults
from repro.sim.faults import TRIAGEABLE_FAULT_MODELS, InjectionPlan
from repro.sim.memory import Memory, MemoryFaultError
from repro.workloads import get_workload
from tests.conftest import build_sum_loop

WORKLOAD = "tiff2bw"
SCHEME = "dup"
MEMORY_MODELS = ("mem_transient", "mem_stuck_at", "cache_line", "stack_frame")


@pytest.fixture(autouse=True)
def _no_model_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_MODEL", raising=False)


def _force_occupancy_for_single_bit(monkeypatch):
    monkeypatch.setattr(
        memfaults, "OCCUPANCY_MODELS",
        memfaults.OCCUPANCY_MODELS | {"single_bit"},
    )


@pytest.fixture(scope="module")
def prepared_mem():
    """tiff2bw/dup prepared under a memory model: occupancy map attached."""
    return prepare(
        get_workload(WORKLOAD), SCHEME,
        CampaignConfig(seed=5, fault_model="mem_transient"),
    )


class TestOccupancyCapture:
    def test_prepare_attaches_a_map_for_memory_models(self, prepared_mem):
        occ = prepared_mem.occupancy
        assert occ is not None
        assert occ.total_words > 0
        assert occ.occupied_count() > 0
        assert occ.golden_instructions == prepared_mem.golden_instructions

    def test_prepare_skips_the_map_for_single_bit(self):
        prepared = prepare(
            get_workload(WORKLOAD), SCHEME, CampaignConfig(seed=5)
        )
        assert prepared.occupancy is None

    def test_occupancy_enabled_gating(self, monkeypatch):
        # The model set alone decides whether prepare() runs the pass.
        assert {"mem_transient", "chaos"} <= memfaults.OCCUPANCY_MODELS
        assert "single_bit" not in memfaults.OCCUPANCY_MODELS
        _force_occupancy_for_single_bit(monkeypatch)
        prepared = prepare(
            get_workload(WORKLOAD), SCHEME, CampaignConfig(seed=5)
        )
        assert prepared.occupancy is not None

    def test_boundary_cadence_is_config_independent(self):
        assert memfaults.boundary_cadence(6400) == 100
        assert memfaults.boundary_cadence(10) == 1
        assert memfaults.boundary_cadence(0) == 1

    def test_ensure_occupancy_attaches_on_demand(self):
        prepared = prepare(
            get_workload(WORKLOAD), SCHEME, CampaignConfig(seed=5)
        )
        assert prepared.occupancy is None
        _ensure_occupancy(
            prepared, CampaignConfig(seed=5, fault_model="cache_line")
        )
        assert prepared.occupancy is not None

    def test_map_is_deterministic(self, prepared_mem):
        again = prepare(
            get_workload(WORKLOAD), SCHEME,
            CampaignConfig(seed=5, fault_model="mem_transient"),
        ).occupancy
        occ = prepared_mem.occupancy
        assert again.segment_spans == occ.segment_spans
        assert again.sorted_words == occ.sorted_words
        assert again.sorted_asns == occ.sorted_asns
        assert again.boundary_cycles == occ.boundary_cycles
        assert again.resident_lines == occ.resident_lines

    def test_fused_capture_matches_dedicated_pass(self, prepared_mem):
        # prepare() fuses occupancy capture into the snapshot run; the
        # _ensure_occupancy path runs an occupancy-only pass.  Workers may
        # take either route, so the maps must be bit-identical.
        from repro.faultinjection.campaign import _capture_golden_state

        config = CampaignConfig(
            seed=5, fault_model="mem_transient", snapshot_every=0
        )
        assert prepared_mem.snapshots is not None  # fused route was taken
        snapshots, dedicated = _capture_golden_state(
            prepared_mem.workload, prepared_mem.module, prepared_mem.inputs,
            prepared_mem.golden_instructions, config,
        )
        assert snapshots is None  # occupancy-only route was taken
        fused = prepared_mem.occupancy
        for field in (
            "golden_instructions", "segment_spans", "total_words",
            "boundary_cycles", "boundary_asns", "resident_lines",
            "always_live", "sorted_words", "sorted_asns", "first_writes",
            "cache_line_shift", "cache_total_lines", "output_last_access",
        ):
            assert getattr(fused, field) == getattr(dedicated, field), field

    def test_memory_model_results_ignore_fastpath(self, monkeypatch):
        # The capture pass analyses the golden run, so prepare() builds the
        # map on the fast path even when trials run on the reference
        # interpreter: REPRO_FASTPATH=0 stays an oracle for memory models.
        def run(fastpath):
            monkeypatch.setenv("REPRO_FASTPATH", fastpath)
            config = CampaignConfig(
                trials=12, seed=2014, fault_model="mem_transient"
            )
            return run_campaign(
                get_workload("g721dec"), "dup_valchk", config
            ).to_dict()

        assert run("0") == run("1")


class TestAccessSpanRecording:
    """An access records every word and cache line it spans.

    Regression: compiled i64/f64/pointer loads issue one 8-byte
    ``_mem_locate`` call; recording only ``off >> 2`` left the upper word
    out of the occupancy map, so ``is_dead()`` called it "never read" and a
    live fault triaged to Masked.
    """

    @staticmethod
    def _wrappers():
        from repro.sim.config import CacheConfig

        memory = Memory()
        seg = memory.map_segment("g", 256)

        class _Shim:
            pass

        shim = _Shim()
        shim.memory = memory
        recorder = memfaults.OccupancyRecorder(
            every=1000,
            l1d_config=CacheConfig(
                size_bytes=1024, associativity=2, line_bytes=64
            ),
        )
        load, store = recorder.bind_occupancy(shim)
        return seg, recorder, load, store

    def test_eight_byte_load_records_both_words(self):
        seg, rec, load, _store = self._wrappers()
        load(seg.base + 8, 8)
        assert 2 in rec.last_read and 3 in rec.last_read
        assert rec.last_read[2] == rec.last_read[3]

    def test_eight_byte_store_records_both_words(self):
        seg, rec, _load, store = self._wrappers()
        store(seg.base + 16, 8)
        assert {4, 5} <= rec.last_write.keys()
        assert rec.first_write[4] == rec.first_write[5]

    def test_narrow_access_records_exactly_one_word(self):
        seg, rec, load, store = self._wrappers()
        load(seg.base + 3, 1)
        store(seg.base + 6, 2)
        assert set(rec.last_read) == {0}
        assert set(rec.last_write) == {1}

    def test_line_crossing_access_touches_both_lines(self):
        seg, rec, load, _store = self._wrappers()
        load(seg.base + 60, 8)  # bytes 60..67 straddle a 64-byte line
        shift = rec.cache.line_shift
        lines = rec.cache.resident_lines()
        assert (seg.base + 60) >> shift in lines
        assert (seg.base + 67) >> shift in lines

    def test_wrapper_cache_policy_matches_tracker_touch(self):
        from repro.sim.cache import ResidencyTracker
        from repro.sim.config import CacheConfig

        seg, rec, load, store = self._wrappers()
        reference = ResidencyTracker(
            CacheConfig(size_bytes=1024, associativity=2, line_bytes=64)
        )
        for i in range(64):
            address = seg.base + (i * 37) % 248
            (load if i % 2 else store)(address, 4)
            reference.touch(address)
        assert rec.cache.resident_lines() == reference.resident_lines()


class TestOccupancyMapSemantics:
    def test_output_words_are_never_dead(self, prepared_mem):
        occ = prepared_mem.occupancy
        assert occ.always_live  # tiff2bw declares output globals
        for word in occ.always_live[:8]:
            assert not occ.is_dead(word, 1)
            assert not occ.is_dead(word, occ.golden_instructions)

    def test_unoccupied_words_are_dead(self, prepared_mem):
        occ = prepared_mem.occupancy
        occupied = set(occ.always_live) | set(occ.sorted_words)
        holes = [w for w in range(occ.total_words) if w not in occupied]
        assert holes  # the stack segment alone guarantees holes
        assert occ.is_dead(holes[0], 1)

    def test_deadness_is_monotone_in_cycle(self, prepared_mem):
        # Once provably dead, a word stays dead at every later cycle: the
        # asn bound only grows with the injection cycle.
        occ = prepared_mem.occupancy
        golden = occ.golden_instructions
        for word in occ.sorted_words[:32]:
            if occ.is_dead(word, golden // 2):
                assert occ.is_dead(word, golden)

    def test_draw_is_seed_deterministic(self, prepared_mem):
        import random

        occ = prepared_mem.occupancy
        a = [occ.draw_occupied(random.Random(7)) for _ in range(5)]
        b = [occ.draw_occupied(random.Random(7)) for _ in range(5)]
        assert a == b
        assert all(w is not None for w in a)

    def test_locate_word_roundtrip(self, prepared_mem):
        from repro.sim.interpreter import Interpreter

        occ = prepared_mem.occupancy
        interp = Interpreter(prepared_mem.module)
        interp._setup_run(prepared_mem.inputs, None)
        word = occ.sorted_words[0]
        seg, offset = occ.locate_word(interp.memory, word)
        assert occ.word_of(interp.memory, seg, offset) == word

    def test_locate_word_layout_mismatch_raises(self, prepared_mem):
        occ = prepared_mem.occupancy
        other = Memory()
        other.map_segment("wrong", 64)
        with pytest.raises(MemoryFaultError):
            occ.locate_word(other, 0)
        with pytest.raises(MemoryFaultError):
            # Out-of-space word index against any memory.
            from repro.sim.interpreter import Interpreter

            interp = Interpreter(prepared_mem.module)
            interp._setup_run(prepared_mem.inputs, None)
            occ.locate_word(interp.memory, occ.total_words + 5)

    def test_residency_rows_cover_all_structures(self, prepared_mem):
        rows = prepared_mem.occupancy.residency()
        structures = [r["structure"] for r in rows]
        assert "stack" in structures
        assert "cache" in structures
        assert "regfile" in structures
        assert any(s.startswith("segment:") for s in structures)
        for row in rows:
            assert 0.0 <= row["residency"] <= 1.0


class TestMemoryHardening:
    def test_flip_word_bit_range_check(self):
        memory = Memory()
        seg = memory.map_segment("s", 16)
        memory.flip_word_bit(seg, 12, 3)
        with pytest.raises(MemoryFaultError):
            memory.flip_word_bit(seg, 16, 3)
        with pytest.raises(MemoryFaultError):
            memory.flip_word_bit(seg, -4, 3)

    def test_force_word_bit_semantics(self):
        memory = Memory()
        seg = memory.map_segment("s", 16)
        before, after = memory.force_word_bit(seg, 0, 3, 1)
        assert (before, after) == (0, 8)
        before, after = memory.force_word_bit(seg, 0, 3, 0)
        assert (before, after) == (8, 0)

    def test_locate_fault_word_unmapped_raises(self):
        memory = Memory()
        seg = memory.map_segment("s", 16)
        assert memory.locate_fault_word(seg.base + 6) == (seg, 4)
        with pytest.raises(MemoryFaultError):
            memory.locate_fault_word(12345)

    def test_layout_mismatch_is_contained_in_a_trial(self, prepared_mem):
        # A stale/mismatched occupancy map must classify the trial as
        # contained:MemoryFaultError, never escape as a raw exception.
        broken = replace(prepared_mem)
        spans = list(prepared_mem.occupancy.segment_spans)
        spans[0] = ("not-a-real-segment", spans[0][1], spans[0][2])
        broken.occupancy = memfaults.OccupancyMap(
            golden_instructions=prepared_mem.occupancy.golden_instructions,
            segment_spans=spans,
            total_words=prepared_mem.occupancy.total_words,
            boundary_cycles=list(prepared_mem.occupancy.boundary_cycles),
            boundary_asns=list(prepared_mem.occupancy.boundary_asns),
            resident_lines=list(prepared_mem.occupancy.resident_lines),
            always_live=list(prepared_mem.occupancy.always_live),
            sorted_words=list(prepared_mem.occupancy.sorted_words),
            sorted_asns=list(prepared_mem.occupancy.sorted_asns),
            first_writes=dict(prepared_mem.occupancy.first_writes),
            cache_line_shift=prepared_mem.occupancy.cache_line_shift,
            cache_total_lines=prepared_mem.occupancy.cache_total_lines,
            output_last_access=dict(
                prepared_mem.occupancy.output_last_access
            ),
        )
        config = CampaignConfig(seed=5)
        trial = run_trial(
            broken, cycle=prepared_mem.golden_instructions // 2, bit=3,
            seed=99, config=config, model="mem_transient",
        )
        assert trial.trap_kind == "contained:MemoryFaultError"


class TestSingleBitPinning:
    def test_single_bit_bytes_unchanged_with_occupancy_forced_on(
        self, tmp_path, monkeypatch
    ):
        workload = get_workload(WORKLOAD)

        def run(tag):
            log = tmp_path / f"{tag}.jsonl"
            config = CampaignConfig(trials=8, seed=5, obs_log=str(log))
            result = run_campaign(workload, SCHEME, config)
            return result.to_dict(), log.read_bytes()

        baseline_result, baseline_log = run("off")
        _force_occupancy_for_single_bit(monkeypatch)
        forced_result, forced_log = run("on")
        assert forced_result == baseline_result
        assert forced_log == baseline_log

    def test_single_bit_cache_key_ignores_occupancy(self, monkeypatch):
        module, _ = build_sum_loop()
        base = campaign_key(module, "w", "s", CampaignConfig())
        _force_occupancy_for_single_bit(monkeypatch)
        assert campaign_key(module, "w", "s", CampaignConfig()) == base

    def test_memory_word_and_chaos_keys_fragment_once(self):
        # The occupancy rework changed what these two pre-existing models
        # compute, so their keys carry a one-shot schema marker.
        fp = _config_fingerprint(CampaignConfig(fault_model="memory_word"))
        assert fp["memfaults"] == 1
        fp = _config_fingerprint(CampaignConfig(fault_model="chaos"))
        assert fp["memfaults"] == 1
        assert "memfaults" not in _config_fingerprint(CampaignConfig())
        assert "memfaults" not in _config_fingerprint(
            CampaignConfig(fault_model="mem_transient")
        )

    def test_memory_model_keys_fragment_by_model(self):
        module, _ = build_sum_loop()
        keys = {
            campaign_key(
                module, "w", "s", CampaignConfig(fault_model=model)
            )
            for model in MEMORY_MODELS + ("memory_word", "single_bit")
        }
        assert len(keys) == len(MEMORY_MODELS) + 2
        # jobs must still not fragment.
        for model in MEMORY_MODELS:
            config = CampaignConfig(fault_model=model)
            assert campaign_key(module, "w", "s", config) == campaign_key(
                module, "w", "s", replace(config, jobs=8)
            )


class TestDeadRegionTriage:
    def test_triageable_set_pins_the_sound_models(self):
        assert TRIAGEABLE_FAULT_MODELS == frozenset({
            "single_bit", "memory_word", "mem_transient", "mem_stuck_at",
            "cache_line", "stack_frame",
        })

    @pytest.mark.parametrize("model", MEMORY_MODELS + ("memory_word",))
    def test_triage_toggle_is_invisible(self, prepared_mem, model):
        workload = get_workload(WORKLOAD)
        on = run_campaign(
            workload, SCHEME,
            CampaignConfig(trials=10, seed=5, fault_model=model, triage=True),
            prepared=prepared_mem,
        )
        off = run_campaign(
            workload, SCHEME,
            CampaignConfig(trials=10, seed=5, fault_model=model, triage=False),
            prepared=prepared_mem,
        )
        assert on.to_dict() == off.to_dict()

    def test_dead_hits_surface_in_the_sidecar(self, prepared_mem, tmp_path):
        # The golden run never touches the stack on this workload, so every
        # stack_frame strike is provably dead — all triaged.
        log = tmp_path / "stack.jsonl"
        config = CampaignConfig(
            trials=10, seed=5, fault_model="stack_frame", obs_log=str(log),
        )
        result = run_campaign(
            get_workload(WORKLOAD), SCHEME, config, prepared=prepared_mem
        )
        assert result.counts()["Masked"] == config.trials
        sidecar, _ = obs_events.read_events(
            obs_events.resilience_log_path(str(log))
        )
        sharing = [e for e in sidecar if e["event"] == "prefix_sharing"]
        assert sharing and sharing[0]["triaged_dead_memory"] > 0
        # Dead hits still land and fill the record like a full run.
        landed = [t for t in result.trials if t.landed]
        assert landed
        assert all(
            t.value_name.startswith("<stack:") for t in landed
        )


class TestOneDefinitionPerModel:
    """The occupancy map is the only source of a memory fault's target and
    verdict: no path runs a memory model without one."""

    ALL_MEMORY_MODELS = ("memory_word",) + MEMORY_MODELS

    @pytest.fixture(scope="class")
    def g721(self):
        """g721dec/dup_valchk prepared with the default config: no map."""
        prepared = prepare(
            get_workload("g721dec"), "dup_valchk", CampaignConfig(seed=5)
        )
        assert prepared.occupancy is None
        return prepared

    def test_memory_word_is_mem_transient_by_another_name(self, g721):
        prepared = replace(g721, occupancy=None)
        runs = {
            model: run_campaign(
                prepared.workload, prepared.scheme,
                CampaignConfig(trials=40, seed=5, fault_model=model),
                prepared=prepared,
            ).trials
            for model in ("memory_word", "mem_transient")
        }
        assert prepared.occupancy is not None
        assert {t.fault_model for t in runs["memory_word"]} == {"memory_word"}
        renamed = [
            repr(replace(t, fault_model="mem_transient"))
            for t in runs["memory_word"]
        ]
        assert renamed == [repr(t) for t in runs["mem_transient"]]

    @pytest.mark.parametrize("model", ALL_MEMORY_MODELS)
    def test_direct_trial_equals_the_campaign_trial(self, g721, model):
        config = CampaignConfig(trials=40, seed=5, fault_model=model)
        campaign = run_campaign(
            g721.workload, g721.scheme, config,
            prepared=replace(g721, occupancy=None),
        )
        direct_prepared = replace(g721, occupancy=None)
        direct = [
            run_trial(direct_prepared, plan.cycle, plan.bit, plan.seed,
                      config, model=plan.model)
            for plan in draw_plans(config, direct_prepared)
        ]
        assert direct_prepared.occupancy is not None
        assert [repr(t) for t in direct] == [
            repr(t) for t in campaign.trials
        ]

    @pytest.mark.parametrize("model", ALL_MEMORY_MODELS)
    def test_injecting_without_a_map_raises(self, g721, model):
        # A hand-built interpreter has no map; the error passes through
        # _drive_trial's containment instead of becoming a trial.
        config = CampaignConfig(seed=5)
        prepared = replace(g721, occupancy=None)
        plan = InjectionPlan(
            cycle=prepared.golden_instructions // 2, bit=3, seed=1,
            model=model,
        )
        interp = _trial_interpreter(prepared, config)
        with pytest.raises(ValueError, match=model):
            _drive_trial(prepared, plan, interp, config, None)
        assert interp.injection_record is None


class TestCheckpointResume:
    def test_interrupted_memory_campaign_resumes_byte_identical(
        self, prepared_mem, tmp_path
    ):
        workload = get_workload(WORKLOAD)
        policy = ResiliencePolicy(
            enabled=True, checkpoint_every=2, backoff_seconds=0.0
        )
        ref_log = tmp_path / "ref.jsonl"
        reference = run_campaign(
            workload, SCHEME,
            CampaignConfig(
                trials=8, seed=5, fault_model="mem_transient",
                obs_log=str(ref_log),
            ),
            prepared=prepared_mem,
        )

        seen = {"n": 0}

        def interrupt(trial):
            seen["n"] += 1
            if seen["n"] >= 3:
                raise KeyboardInterrupt

        ckpt = tmp_path / "ckpt.json"
        log = tmp_path / "log.jsonl"
        cfg = CampaignConfig(
            trials=8, seed=5, fault_model="mem_transient", obs_log=str(log),
            checkpoint=str(ckpt), resilience=policy,
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                workload, SCHEME, cfg, prepared=prepared_mem,
                on_trial=interrupt,
            )
        assert ckpt.exists()
        resumed = run_campaign(
            workload, SCHEME,
            CampaignConfig(
                trials=8, seed=5, fault_model="mem_transient", jobs=2,
                obs_log=str(log), checkpoint=str(ckpt), resilience=policy,
            ),
            prepared=prepared_mem,
        )
        assert resumed.to_dict() == reference.to_dict()
        assert log.read_bytes() == ref_log.read_bytes()
        assert not ckpt.exists()


class TestAVFReport:
    def test_structure_classifier(self):
        assert _structure_of("<mem:lum+0x40>") == "segment:lum"
        assert _structure_of("<mem:__stack__+0x40>") == "stack"
        assert _structure_of("<stack:__stack__+0x40>") == "stack"
        assert _structure_of("<cache:rgb+0x40>") == "cache"
        assert _structure_of("<cache:tag:rgb+0x40>") == "cache"
        assert _structure_of("%sum.1") == "regfile"
        assert _structure_of("<none>") == "regfile"

    def test_campaign_emits_occupancy_sidecar_event(
        self, prepared_mem, tmp_path
    ):
        log = tmp_path / "mem.jsonl"
        config = CampaignConfig(
            trials=10, seed=5, fault_model="mem_transient", obs_log=str(log),
        )
        run_campaign(
            get_workload(WORKLOAD), SCHEME, config, prepared=prepared_mem
        )
        main_events, _ = obs_events.read_events(log)
        assert all(e["event"] != "occupancy" for e in main_events)
        sidecar, _ = obs_events.read_events(
            obs_events.resilience_log_path(str(log))
        )
        occ = [e for e in sidecar if e["event"] == "occupancy"]
        assert len(occ) == 1
        assert occ[0]["workload"] == WORKLOAD
        assert any(
            row["structure"] == "cache" for row in occ[0]["structures"]
        )

    def test_avf_report_from_a_real_campaign(self, prepared_mem, tmp_path):
        log = tmp_path / "avf.jsonl"
        config = CampaignConfig(
            trials=12, seed=7, fault_model="mem_transient", obs_log=str(log),
        )
        run_campaign(
            get_workload(WORKLOAD), SCHEME, config, prepared=prepared_mem
        )
        report = LogReport.from_paths([log])
        assert report.occupancy
        rows = report.avf_rows()
        assert rows
        by_name = {r["structure"]: r for r in rows}
        assert any(name.startswith("segment:") for name in by_name)
        for row in rows:
            assert 0.0 <= row["avf"] <= 1.0
            assert row["trials"] > 0
        text = report.render_avf()
        assert "AVF" in text
        assert "residency" in text
        doc = report.to_json()
        assert doc["avf"]["campaigns_with_occupancy"] == 1
        assert doc["avf"]["rows"] == rows
        assert json.dumps(doc)  # JSON-safe end to end

    def test_residency_counts_match_aggregated_fraction(self):
        # Folding occupancy events from several campaigns must keep the
        # displayed occupied/total counts consistent with the residency
        # used as the AVF weight: sums, not one campaign's counts glued to
        # an averaged fraction.
        report = LogReport()
        report.occupancy = [
            {"structures": [
                {"structure": "segment:g", "occupied_words": 10,
                 "total_words": 100, "residency": 0.1},
                {"structure": "regfile", "occupied_words": None,
                 "total_words": None, "residency": 1.0},
            ]},
            {"structures": [
                {"structure": "segment:g", "occupied_words": 90,
                 "total_words": 300, "residency": 0.3},
                {"structure": "regfile", "occupied_words": None,
                 "total_words": None, "residency": 1.0},
            ]},
        ]
        folded = report._residency_by_structure()
        seg = folded["segment:g"]
        assert seg["occupied_words"] == 100
        assert seg["total_words"] == 400
        assert seg["residency"] == pytest.approx(100 / 400)
        # Count-less rows fall back to the averaged fraction.
        assert folded["regfile"]["residency"] == pytest.approx(1.0)
        assert folded["regfile"]["occupied_words"] is None

    def test_avf_cli_flag(self, prepared_mem, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        log = tmp_path / "cli.jsonl"
        config = CampaignConfig(
            trials=8, seed=7, fault_model="cache_line", obs_log=str(log),
        )
        run_campaign(
            get_workload(WORKLOAD), SCHEME, config, prepared=prepared_mem
        )
        assert obs_main(["report", str(log), "--avf"]) == 0
        out = capsys.readouterr().out
        assert "AVF-style vulnerability report" in out
        assert "structure" in out
