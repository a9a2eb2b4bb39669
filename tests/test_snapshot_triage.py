"""Shared-prefix trial execution: snapshots, fast-forward restore, triage.

The snapshot engine (``src/repro/sim/snapshot.py``) lets each injection trial
restore the golden run's state at the nearest snapshot before its injection
cycle and replay only the delta, and the dead-flip triage pass short-circuits
provably-dead flips straight to Masked.  Both are pure optimisations: these
tests pin down that a snapshot+triage campaign is **byte-identical** — trial
results and obs event logs — to a from-scratch fastpath run, for every scheme
on two workloads, serially and under ``jobs=2``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import settings
from repro.analysis import compute_liveness
from repro.faultinjection.campaign import (
    CampaignConfig,
    prepare,
    run_campaign,
)
from repro.obs.events import read_events, resilience_log_path
from repro.obs.report import LogReport
from repro.sim import snapshot as snapshot_mod
from repro.sim.interpreter import Interpreter
from repro.transforms.pipeline import SCHEMES
from repro.workloads.registry import get_workload
from tests.conftest import build_sum_loop

WORKLOADS = ("tiff2bw", "g721dec")

#: small fixed cadence so even short golden runs get many snapshots
_EVERY = 200


@pytest.fixture(autouse=True)
def _fastpath(monkeypatch):
    """Snapshots require the compiled fast path; force it on for this file."""
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    monkeypatch.delenv("REPRO_SNAPSHOT_EVERY", raising=False)
    monkeypatch.delenv("REPRO_TRIAGE", raising=False)


def _campaign(prepared, config, log_path):
    cfg = replace(config, obs_log=str(log_path))
    result = run_campaign(prepared.workload, prepared.scheme, cfg,
                          prepared=prepared)
    return result, log_path.read_bytes()


# ---------------------------------------------------------------------------
# differential matrix: snapshot+triage vs from-scratch, all schemes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_campaign_differential_byte_identical(tmp_path, name, scheme):
    """Every (workload, scheme): from-scratch vs snapshot vs snapshot+triage
    vs snapshot+triage under jobs=2 — identical trials, byte-identical logs.
    """
    workload = get_workload(name)
    snap_cfg = CampaignConfig(
        trials=6, seed=11, snapshot_every=_EVERY, triage=True
    )
    prepared = prepare(workload, scheme, snap_cfg)
    assert prepared.snapshots is not None and len(prepared.snapshots) > 0

    base_cfg = replace(snap_cfg, snapshot_every=0, triage=False)
    baseline, base_log = _campaign(prepared, base_cfg, tmp_path / "base.jsonl")

    variants = {
        "snapshot": replace(snap_cfg, triage=False),
        "snapshot_triage": snap_cfg,
        "snapshot_triage_jobs2": replace(snap_cfg, jobs=2),
    }
    for label, cfg in variants.items():
        result, log = _campaign(prepared, cfg, tmp_path / f"{label}.jsonl")
        assert result.trials == baseline.trials, label
        assert log == base_log, label


def test_restore_actually_happens(tmp_path):
    """The differential matrix is vacuous unless trials really fast-forward:
    the sidecar must report snapshot restores and saved replay cycles."""
    workload = get_workload("tiff2bw")
    cfg = CampaignConfig(trials=8, seed=3, snapshot_every=_EVERY, triage=True,
                         obs_log=str(tmp_path / "log.jsonl"))
    prepared = prepare(workload, "dup_valchk", cfg)
    run_campaign(workload, "dup_valchk", cfg, prepared=prepared)

    sidecar, _ = read_events(resilience_log_path(cfg.obs_log))
    sharing = [e for e in sidecar if e["event"] == "prefix_sharing"]
    assert len(sharing) == 1
    assert sharing[0]["restores"] > 0
    assert sharing[0]["replay_cycles_saved"] > 0
    # the main log carries no trace of it (byte-identity guarantee)
    main_events, _ = read_events(cfg.obs_log)
    assert all(e["event"] != "prefix_sharing" for e in main_events)


def test_report_renders_prefix_sharing_section(tmp_path):
    workload = get_workload("tiff2bw")
    cfg = CampaignConfig(trials=8, seed=3, snapshot_every=_EVERY,
                         obs_log=str(tmp_path / "log.jsonl"))
    prepared = prepare(workload, "dup_valchk", cfg)
    run_campaign(workload, "dup_valchk", cfg, prepared=prepared)

    report = LogReport.from_paths([cfg.obs_log])
    assert len(report.prefix_sharing) == 1
    doc = report.to_json()
    assert doc["prefix_sharing"]["campaigns"] == 1
    assert doc["prefix_sharing"]["restores"] > 0
    text = report.render_text()
    assert "prefix sharing" in text
    assert "snapshot restores" in text


# ---------------------------------------------------------------------------
# snapshot round-trip units
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiff_snapshots():
    """Prepared tiff2bw with a dense snapshot store of the golden run."""
    workload = get_workload("tiff2bw")
    cfg = CampaignConfig(trials=2, seed=1, snapshot_every=_EVERY)
    prepared = prepare(workload, "dup_valchk", cfg)
    assert prepared.snapshots is not None
    return prepared


def test_snapshot_install_round_trip_is_independent(tiff_snapshots):
    """Two installs of one snapshot must not share mutable state."""
    from repro.sim.faults import InjectionPlan

    prepared = tiff_snapshots
    snap = prepared.snapshots.snapshots[len(prepared.snapshots) // 2]
    plan = InjectionPlan(cycle=snap.cycle + 50, bit=3, seed=9)

    interps = []
    for _ in range(2):
        interp = Interpreter(prepared.module, guard_mode="count",
                             fastpath=True)
        snap.install(interp, plan)
        interps.append(interp)
    a, b = interps

    assert a.cycle == b.cycle == snap.cycle
    # memory: equal bytes, distinct buffers
    seg_a = {id(s) for s in a.memory._segments.values()}
    seg_b = {id(s) for s in b.memory._segments.values()}
    assert not (seg_a & seg_b)
    for name, idx in snap.global_index:
        sa, sb = a.global_segments[name], b.global_segments[name]
        assert sa.data == sb.data
        assert sa is not sb
    # frames: same shape, distinct objects and value dicts
    assert len(a._frames) == len(b._frames)
    for fa, fb in zip(a._frames, b._frames):
        assert fa is not fb
        assert fa.values is not fb.values
        assert set(fa.values) == set(fb.values)
    # register-file accounting is consistent with the recorded log tail
    assert (a._regfile.writes == b._regfile.writes
            == snap.rf_base + len(snap.rf_entries))
    # mutating one interpreter must not leak into the other
    first = next(iter(a.global_segments))
    a.global_segments[first].data[0] ^= 0xFF
    assert (a.global_segments[first].data[0]
            != b.global_segments[first].data[0])


def test_snapshot_regfile_materialises_identically(tiff_snapshots):
    """Restored rf log + base must read as the same occupancy twice."""
    from repro.sim.faults import InjectionPlan

    prepared = tiff_snapshots
    snap = prepared.snapshots.snapshots[-1]
    plan = InjectionPlan(cycle=snap.cycle + 1, bit=0, seed=4)
    views = []
    for _ in range(2):
        interp = Interpreter(prepared.module, guard_mode="count",
                             fastpath=True)
        snap.install(interp, plan)
        views.append([
            (slot.tag, getattr(slot.value_obj, "name", None))
            for slot in interp._regfile.occupied_slots()
        ])
    assert views[0] == views[1]
    assert any(tag >= 0 for tag, _ in views[0])  # registers really occupied


def _fake_snapshot(cycle):
    snap = object.__new__(snapshot_mod.Snapshot)
    snap.cycle = cycle
    return snap


def test_store_nearest_boundary_semantics():
    """An injection at cycle C fires at the state after C-1 instructions, so
    ``nearest(C)`` must return the latest snapshot with cycle <= C-1."""
    store = snapshot_mod.SnapshotStore()
    for cycle in (100, 200, 300):
        store.add(_fake_snapshot(cycle))
    assert store.nearest(99) is None
    assert store.nearest(100) is None       # snapshot AT the cycle is too late
    assert store.nearest(101) is store.snapshots[0]
    assert store.nearest(250) is store.snapshots[1]
    assert store.nearest(301) is store.snapshots[2]
    assert store.nearest(10**9) is store.snapshots[2]


def test_recorder_caps_snapshot_count(tiff_snapshots):
    """The capture run must stop snapshotting once the memory cap is hit."""
    prepared = tiff_snapshots
    interp = Interpreter(prepared.module, guard_mode="count", fastpath=True)
    recorder = snapshot_mod.SnapshotRecorder(50, limit=4)
    prepared.workload.run(
        prepared.module, prepared.inputs, interpreter=interp,
        capture=recorder,
    )
    assert len(recorder.store) == 4
    assert recorder.next_due == 1 << 62  # disarmed after the cap


# ---------------------------------------------------------------------------
# config resolution and escape hatches
# ---------------------------------------------------------------------------


def test_resolve_snapshot_every(monkeypatch):
    def resolve(value):
        config = CampaignConfig(snapshot_every=value)
        return settings.resolve(config).snapshot_every

    assert resolve(500) == 500          # explicit wins over any env
    assert resolve(0) == 0
    monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "123")
    assert resolve(None) == 123
    assert resolve(0) == 0
    monkeypatch.setattr(settings, "_warned", set())
    monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "garbage")
    with pytest.warns(RuntimeWarning, match="REPRO_SNAPSHOT_EVERY"):
        assert resolve(None) == snapshot_mod.AUTO
    monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "off")
    assert resolve(None) == 0           # kill switch
    monkeypatch.delenv("REPRO_SNAPSHOT_EVERY")
    assert resolve(None) == snapshot_mod.AUTO


def test_resolve_triage(monkeypatch):
    def resolve(value):
        return settings.resolve(CampaignConfig(triage=value)).triage

    monkeypatch.delenv("REPRO_TRIAGE", raising=False)
    assert resolve(None) is True        # on by default
    assert resolve(False) is False
    monkeypatch.setenv("REPRO_TRIAGE", "0")
    assert resolve(None) is False
    assert resolve(True) is True        # explicit wins


def test_auto_cadence():
    assert snapshot_mod.auto_cadence(100) is None  # too short to bother
    assert snapshot_mod.auto_cadence(64_000) == 2_000
    assert snapshot_mod.auto_cadence(10_000) == 1_000  # floored


def test_env_kill_switch_disables_capture(monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "0")
    workload = get_workload("tiff2bw")
    cfg = CampaignConfig(trials=2, seed=1)
    prepared = prepare(workload, "dup", cfg)
    assert prepared.snapshots is None


# ---------------------------------------------------------------------------
# liveness map (dead-flip triage) on handwritten IR
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sum_loop_liveness():
    module, h = build_sum_loop()
    return h, compute_liveness(h["fn"])


def test_value_live_when_used_later_in_block(sum_loop_liveness):
    h, lv = sum_loop_liveness
    body = h["body"]
    # body = [gep, load, mul(scaled), add(acc_next), add(i_next), br]
    scaled, loaded = body.instructions[2], body.instructions[1]
    assert snapshot_mod.value_dead_after(lv, body, 3, scaled) is False
    assert snapshot_mod.value_dead_after(lv, body, 3, loaded) is False


def test_value_dead_after_last_use(sum_loop_liveness):
    h, lv = sum_loop_liveness
    body = h["body"]
    loaded, scaled = body.instructions[1], body.instructions[2]
    # after acc_next (index 3) neither is referenced again nor live-out
    assert snapshot_mod.value_dead_after(lv, body, 4, loaded) is True
    assert snapshot_mod.value_dead_after(lv, body, 4, scaled) is True


def test_value_live_through_successor_phi(sum_loop_liveness):
    """acc_next flows into the header phi: live-out keeps it live at the
    branch, even with no further use inside the block."""
    h, lv = sum_loop_liveness
    body = h["body"]
    acc_next = body.instructions[3]
    assert snapshot_mod.value_dead_after(lv, body, 5, acc_next) is False


def test_value_dead_when_redefined_before_use(sum_loop_liveness):
    """A flip into i_next *before its defining instruction re-executes* is
    dead: the definition overwrites the register before any use."""
    h, lv = sum_loop_liveness
    body = h["body"]
    i_next = body.instructions[4]
    assert i_next in lv.live_out.get(body, ())  # live-out via the header phi
    assert snapshot_mod.value_dead_after(lv, body, 0, i_next) is True
    # but after its def has run, the phi edge keeps it live
    assert snapshot_mod.value_dead_after(lv, body, 5, i_next) is False


def test_phi_value_liveness_in_header(sum_loop_liveness):
    h, lv = sum_loop_liveness
    header = h["header"]
    # header = [phi i, phi acc, icmp cond, condbr]
    i_phi, acc_phi, cond = header.instructions[:3]
    assert snapshot_mod.value_dead_after(lv, header, 3, cond) is False
    assert snapshot_mod.value_dead_after(lv, header, 3, acc_phi) is False
    assert snapshot_mod.value_dead_after(lv, header, 3, i_phi) is False
