"""The settings table and the two content keys derived from its tags.

The key pins were captured before the keys were derived from field tags:
a cache entry, checkpoint or service dedup record written by an older
checkout must keep its key.
"""

from __future__ import annotations

import dataclasses
import re
import warnings
from pathlib import Path

import pytest

from repro import settings
from repro.experiments.runner import ExperimentSettings
from repro.faultinjection.campaign import CampaignConfig
from repro.faultinjection.diskcache import campaign_key
from repro.faultinjection.resilience import ResiliencePolicy
from repro.serve.service import ServiceConfig
from repro.serve.spec import CampaignSpec
from repro.sim.config import SimConfig
from repro.transforms.checkconfig import ProtectionConfig
from tests.conftest import build_sum_loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

CAMPAIGN_KEY_PINS = (
    ({}, "562b60adad4b0a24cd8e0a51b7a8a25607e39babc0fc9bfbcf6078dbe8065db8"),
    ({"fault_model": "burst"},
     "979c3adb72bca865041d4967733b5369c78cfaf156921c88a4c55116806c49a9"),
    ({"fault_model": "memory_word"},
     "c2d85016e920ec6efb3afb0f2d5998327e141e36cb277ffd5e1239e373de0e9f"),
    ({"swap_train_test": True},
     "b79e95c643a29933631e0a881e9254de4c6371473245dd4b13ca1d1b7b294a2e"),
    ({"timeout_factor": 0.5},
     "da7646cfefd68ce9da05222f6fa6fb9a2120555b3c4dffb299291b0b68894d94"),
)

SPEC_KEY_PINS = (
    (CampaignSpec("g721dec", "dup_valchk"),
     "8f150c38623f525dfa8496303688a5fac337ca7ae6c0eeff1ca60e8706f5b61f"),
    (CampaignSpec("tiff2bw", "dup", trials=60, seed=7,
                  fault_model="mem_transient", jobs=2, labels={"a": "b"}),
     "eea24067c5b64273ac4c701212811222a8243019f4e5966100260ab0bdcad7be"),
    (CampaignSpec("kmeans", "full_dup", trials=12, seed=3,
                  fault_model="single_bit", swap_train_test=True),
     "20e627f6da3fa961a23d5095c66abb66f0ecfc64fdeaa6962ef7a56c94c25c4b"),
)


@pytest.fixture
def clean_env(monkeypatch):
    for name in ("REPRO_FAULT_MODEL", "REPRO_OBS"):
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("overrides,expected", CAMPAIGN_KEY_PINS)
def test_campaign_key_pins(clean_env, overrides, expected):
    module, _ = build_sum_loop()
    config = CampaignConfig(**overrides)
    assert campaign_key(module, "sum_loop", "dup", config) == expected


@pytest.mark.parametrize("spec,expected", SPEC_KEY_PINS)
def test_spec_key_pins(spec, expected):
    assert spec.key() == expected


#: one non-default value per CampaignConfig field
VARIANTS = {
    "trials": 101,
    "seed": 7,
    "symptom_window": 999,
    "timeout_factor": 0.5,
    "sim": SimConfig(phys_int_registers=4),
    "protection": ProtectionConfig(histogram_bins=9),
    "swap_train_test": True,
    "jobs": 8,
    "obs_log": "/tmp/x.jsonl",
    "checkpoint": "/tmp/x.ckpt",
    "resilience": ResiliencePolicy(max_retries=9, checkpoint_every=3),
    "snapshot_every": 128,
    "triage": False,
    "fault_model": "burst",
    "trace": "/tmp/spans.json",
    "heartbeat": "/tmp/hb.json",
    "batch": 8,
}


def test_every_field_is_tagged_and_keys_follow_the_tags(clean_env):
    """A result-affecting field changes the cache key; an execution-only
    one cannot fragment it."""
    fields = dataclasses.fields(CampaignConfig)
    assert set(VARIANTS) == {f.name for f in fields}
    module, _ = build_sum_loop()
    base = campaign_key(module, "w", "dup", CampaignConfig())
    for f in fields:
        assert f.metadata.get("result") in (True, False), f.name
        variant = CampaignConfig(**{f.name: VARIANTS[f.name]})
        changed = campaign_key(module, "w", "dup", variant) != base
        assert changed == f.metadata["result"], f.name


def test_spec_key_follows_the_tags():
    base = CampaignSpec("g721dec", "dup")
    for name, value in (("trials", 7), ("seed", 3), ("fault_model", "burst"),
                        ("swap_train_test", True)):
        assert dataclasses.replace(base, **{name: value}).key() != base.key()
    for name, value in (("jobs", 4), ("labels", {"team": "x"})):
        assert dataclasses.replace(base, **{name: value}).key() == base.key()


# ---------------------------------------------------------------------------
# the table and the parse rule
# ---------------------------------------------------------------------------


SETTINGS_CLASSES = (CampaignConfig, ResiliencePolicy, ExperimentSettings,
                    ServiceConfig)


def test_every_env_twin_is_in_the_table():
    twins = {
        f.metadata["knob"]
        for cls in SETTINGS_CLASSES for f in dataclasses.fields(cls)
        if f.metadata.get("knob") is not None
    }
    fieldless = {settings.FASTPATH, settings.CACHE, settings.CACHE_DIR}
    assert twins | fieldless == set(settings.KNOBS)
    assert all(name.startswith("REPRO_") for name in settings.ENV_NAMES)
    assert "REPRO_SNAPSHOT" not in settings.ENV_NAMES
    assert "REPRO_OCCUPANCY" not in settings.ENV_NAMES


def test_parse_rule(monkeypatch):
    monkeypatch.setattr(settings, "_warned", set())
    cases = (
        (settings.TRIAGE, "", True),          # empty means unset
        (settings.TRIAGE, "  Off ", False),   # stripped, any case
        (settings.TRIAGE, "yes", True),
        (settings.OBS, "no", ""),             # off turns a path off
        (settings.OBS, " /tmp/x.jsonl ", "/tmp/x.jsonl"),
        (settings.SNAPSHOT_EVERY, "false", 0),  # off is 0 for a number
        (settings.SNAPSHOT_EVERY, "-1", -1),
        (settings.MAX_RETRIES, "-4", 0),      # clamped to the floor
        (settings.FAULT_MODEL, "off", "single_bit"),
    )
    for knob, text, expected in cases:
        monkeypatch.setenv(knob.name, text)
        assert knob.read() == expected, (knob.name, text)


def test_unparsable_numbers_warn_once_per_variable(monkeypatch):
    monkeypatch.setattr(settings, "_warned", set())
    monkeypatch.setenv("REPRO_TRIALS", "junk")
    monkeypatch.setenv("REPRO_BATCH", "4.0")
    with pytest.warns(RuntimeWarning, match="REPRO_TRIALS"):
        assert settings.TRIALS.read() == 60
    with pytest.warns(RuntimeWarning, match="REPRO_BATCH"):
        assert settings.BATCH.read() == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert settings.TRIALS.read() == 60
        assert settings.BATCH.read() == 0


def test_explicit_values_win(monkeypatch):
    monkeypatch.setenv("REPRO_TRIAGE", "1")
    monkeypatch.setenv("REPRO_CHECKPOINT", "/env.ckpt")
    monkeypatch.setenv("REPRO_BATCH", "16")
    resolved = settings.resolve(CampaignConfig(
        triage=False, checkpoint="", batch=0,
    ))
    assert resolved.triage is False
    assert resolved.checkpoint == ""
    assert resolved.batch == 0
    again = settings.resolve(resolved)
    assert again is resolved  # resolving twice changes nothing


def test_resolve_fills_nested_and_service_settings(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
    monkeypatch.setenv("REPRO_SERVE_DEPTH", "0")
    monkeypatch.setenv("REPRO_TRIALS", "12")
    config = settings.resolve(CampaignConfig())
    assert config.resilience.max_retries == 5
    assert settings.resolve(ServiceConfig(root="r")).max_depth == 1
    experiment = settings.resolve(ExperimentSettings(workloads=("tiff2bw",)))
    assert experiment.trials == 12
    assert experiment.resilience.max_retries == 5
    assert experiment.campaign_config().trials == 12


# ---------------------------------------------------------------------------
# single owners
# ---------------------------------------------------------------------------


def _sources():
    return sorted(SRC.rglob("*.py"))


def test_only_settings_names_environment_knobs():
    quoted = re.compile(r"""["']REPRO_[A-Z0-9_]*["']""")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in _sources() if path.name != "settings.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if quoted.search(line)
    ]
    assert offenders == []


#: where every knob must be documented
KNOB_DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
#: documents and code that name ``REPRO_*`` variables to their readers;
#: ``benchmarks/ledger/`` is left out, since it may name retired knobs
NAMING_FILES = (
    KNOB_DOCS + [ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + sorted((ROOT / "src").rglob("*.py"))
    + sorted((ROOT / "scripts").rglob("*.py"))
)


def test_docs_name_only_real_knobs():
    """Every ``REPRO_*`` name a document or the code mentions is a knob in
    the table (a trailing ``_*``, as in ``REPRO_SERVE_*``, names a prefix),
    and every knob is documented in README.md or docs/."""
    name = re.compile(r"REPRO_[A-Z0-9_]*\*?")
    unknown = []
    for path in NAMING_FILES:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for found in name.findall(line):
                if found.endswith("*"):
                    known = any(env.startswith(found[:-1])
                                for env in settings.ENV_NAMES)
                else:
                    known = found in settings.ENV_NAMES
                if not known:
                    unknown.append(
                        f"{path.relative_to(ROOT)}:{number}: {found}")
    assert unknown == []
    documented = "".join(path.read_text() for path in KNOB_DOCS)
    undocumented = [
        env for env in settings.ENV_NAMES
        if not re.search(rf"\b{env}\b", documented)
    ]
    assert undocumented == []


def test_only_durable_makes_temp_files():
    offenders = [
        str(path.relative_to(SRC)) for path in _sources()
        if path.name != "durable.py" and "tempfile.mkstemp" in path.read_text()
    ]
    assert offenders == []
