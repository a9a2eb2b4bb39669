"""Aggregate campaign trial logs into human/machine-readable reports.

Consumes one or more JSONL event logs (see :mod:`repro.obs.events`) and
produces:

* outcome tallies, per campaign and overall;
* outcome breakdowns by register (IR value name), bit position, program
  region (the function the fault landed in), and fault model (rendered only
  when a non-default model ran; the JSON output always carries it);
* detection-latency percentiles (cycles from injection to detection), split
  by software (guard) and hardware (trap) detection;
* per-check effectiveness: how often each guard id fired, its share of all
  software detections, and its median detection latency;
* cache provenance: campaigns, Figure 12 cycle counts and recovery rows
  served from the on-disk cache (the last two labelled by kind);
* resilience audit: recovery actions (checkpoint writes/loads, chunk
  retries, serial fallbacks, quarantines) from the ``<log>.resilience``
  sidecar, which is read automatically when it exists next to a given log;
* prefix sharing: snapshot restores, replay cycles saved, and triaged-masked
  trial counts (also from the sidecar) when shared-prefix execution ran;
* AVF view (``--avf``): per-structure vulnerability tables joining trial
  outcomes against the golden-run occupancy residency recorded by
  ``occupancy`` sidecar events — the memory-hierarchy analogue of the
  architectural vulnerability factor (vulnerable-outcome rate weighted by
  occupied-bit residency).

Exact percentiles are computed from the raw per-trial events; this module
is the only place outcome, check and latency tallies are aggregated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import os

from .events import PREFIX_STATS, read_events, resilience_log_path

__all__ = ["LogReport", "percentile"]

_OUTCOMES = ("Masked", "SWDetect", "HWDetect", "Failure", "USDC")

#: trial outcomes that count as vulnerable in the AVF view: the fault
#: escaped every detector and corrupted the run or its output.
_VULNERABLE = ("Failure", "USDC")


def _structure_of(value_name: str) -> str:
    """Map a trial's corrupted-value name to its hardware structure.

    Memory-model injection records name their target
    ``<mem:SEG+0x..>`` / ``<cache:SEG+..>`` / ``<cache:tag:SEG+..>`` /
    ``<stack:SEG+..>``; anything else is a register-file (or control) hit.
    """
    if value_name.startswith("<cache:"):
        return "cache"
    if value_name.startswith("<stack:"):
        return "stack"
    if value_name.startswith("<mem:"):
        seg = value_name[5:].split("+", 1)[0]
        return "stack" if seg == "__stack__" else f"segment:{seg}"
    return "regfile"


def percentile(values: Sequence[float], q: float) -> float:
    """Exact q-quantile (nearest-rank) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    rank = max(1, int(q * len(ordered) + 0.999999))
    return ordered[min(rank, len(ordered)) - 1]


def _latency_summary(latencies: List[int]) -> Optional[Dict]:
    if not latencies:
        return None
    return {
        "count": len(latencies),
        "min": min(latencies),
        "p50": percentile(latencies, 0.50),
        "p90": percentile(latencies, 0.90),
        "p99": percentile(latencies, 0.99),
        "max": max(latencies),
        "mean": sum(latencies) / len(latencies),
    }


@dataclass
class _Breakdown:
    """Outcome counts keyed by some trial dimension."""

    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def add(self, key: str, outcome: str) -> None:
        row = self.counts.get(key)
        if row is None:
            row = self.counts[key] = {o: 0 for o in _OUTCOMES}
        row[outcome] = row.get(outcome, 0) + 1

    def rows_by_total(self) -> List[Tuple[str, Dict[str, int], int]]:
        rows = [
            (key, row, sum(row.values())) for key, row in self.counts.items()
        ]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows


@dataclass
class LogReport:
    """Aggregation of one or more trial event logs."""

    paths: List[str] = field(default_factory=list)
    campaigns: List[Dict] = field(default_factory=list)
    cache_hits: List[Dict] = field(default_factory=list)
    #: recovery actions from resilience events (main log or sidecar)
    resilience_actions: List[Dict] = field(default_factory=list)
    #: shared-prefix execution totals (snapshot restores / dead-flip triage)
    prefix_sharing: List[Dict] = field(default_factory=list)
    #: per-campaign golden-run occupancy residency rows (sidecar events)
    occupancy: List[Dict] = field(default_factory=list)
    trials: int = 0
    skipped_lines: int = 0
    schema_versions: set = field(default_factory=set)
    outcome_counts: Dict[str, int] = field(
        default_factory=lambda: {o: 0 for o in _OUTCOMES}
    )
    by_register: _Breakdown = field(default_factory=_Breakdown)
    by_bit: _Breakdown = field(default_factory=_Breakdown)
    by_function: _Breakdown = field(default_factory=_Breakdown)
    by_fault_model: _Breakdown = field(default_factory=_Breakdown)
    by_structure: _Breakdown = field(default_factory=_Breakdown)
    sw_latencies: List[int] = field(default_factory=list)
    hw_latencies: List[int] = field(default_factory=list)
    #: guard id -> [fire count, latencies]
    check_fires: Dict[int, List] = field(default_factory=dict)
    landed: int = 0
    live: int = 0

    @classmethod
    def from_paths(cls, paths: Sequence) -> "LogReport":
        """Aggregate the given logs plus any ``<log>.resilience`` sidecars.

        Recovery actions live in a sidecar next to the main log (to keep the
        main log byte-deterministic); the sidecar is picked up automatically
        unless it was already passed explicitly.
        """
        explicit = {str(p) for p in paths}
        all_paths = []
        for path in paths:
            all_paths.append(str(path))
            sidecar = resilience_log_path(str(path))
            if sidecar not in explicit and os.path.exists(sidecar):
                all_paths.append(sidecar)
        report = cls(paths=all_paths)
        for path in all_paths:
            events, skipped = read_events(path)
            report.skipped_lines += skipped
            for event in events:
                report._ingest(event)
        return report

    def _ingest(self, event: Dict) -> None:
        if "v" in event:
            self.schema_versions.add(event["v"])
        kind = event.get("event")
        if kind == "campaign_begin":
            self.campaigns.append(event)
            return
        if kind == "cache_hit":
            self.cache_hits.append(event)
            return
        if kind == "resilience":
            self.resilience_actions.append(event)
            return
        if kind == "prefix_sharing":
            self.prefix_sharing.append(event)
            return
        if kind == "occupancy":
            self.occupancy.append(event)
            return
        if kind != "trial":
            return
        self.trials += 1
        outcome = event.get("outcome", "?")
        self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1
        if event.get("landed"):
            self.landed += 1
        if event.get("live"):
            self.live += 1
        register = event.get("register") or "<none>"
        function = event.get("function") or "<none>"
        self.by_register.add(register, outcome)
        self.by_function.add(function, outcome)
        self.by_bit.add(f"{event.get('bit', 0):02d}", outcome)
        self.by_fault_model.add(event.get("fault_model") or "single_bit", outcome)
        self.by_structure.add(_structure_of(register), outcome)
        latency = event.get("latency")
        if latency is not None:
            if outcome == "SWDetect":
                self.sw_latencies.append(latency)
            elif outcome == "HWDetect":
                self.hw_latencies.append(latency)
        check = event.get("check")
        if check is not None:
            entry = self.check_fires.get(check)
            if entry is None:
                entry = self.check_fires[check] = [0, []]
            entry[0] += 1
            if latency is not None:
                entry[1].append(latency)

    def _resilience_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.resilience_actions:
            kind = event.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def _prefix_totals(self) -> Dict[str, int]:
        totals = {name: 0 for name, _ in PREFIX_STATS}
        for event in self.prefix_sharing:
            for key in totals:
                totals[key] += int(event.get(key, 0) or 0)
        return totals

    def _residency_by_structure(self) -> Dict[str, Dict]:
        """Fold occupancy events into one residency row per structure.

        Several campaigns may report the same structure (e.g. ``cache``);
        occupied/total word counts are summed over the reporting campaigns
        and the residency fraction derived from the sums, so the displayed
        counts and the AVF weight describe the same aggregate.  Rows
        without counts (``regfile`` reports none) fall back to averaging
        the reported fractions.
        """
        acc: Dict[str, List[Dict]] = {}
        for event in self.occupancy:
            for row in event.get("structures", []) or []:
                name = row.get("structure")
                if name:
                    acc.setdefault(name, []).append(row)
        folded: Dict[str, Dict] = {}
        for name, rows in acc.items():
            occs = [r.get("occupied_words") for r in rows]
            totals = [r.get("total_words") for r in rows]
            if (
                all(isinstance(o, (int, float)) for o in occs)
                and all(isinstance(t, (int, float)) for t in totals)
                and sum(totals) > 0
            ):
                folded[name] = {
                    "residency": sum(occs) / sum(totals),
                    "occupied_words": sum(occs),
                    "total_words": sum(totals),
                }
            else:
                folded[name] = {
                    "residency": sum(
                        float(r.get("residency", 0) or 0) for r in rows
                    ) / len(rows),
                    "occupied_words": None,
                    "total_words": None,
                }
        return folded

    def avf_rows(self) -> List[Dict]:
        """Per-structure AVF table rows, most vulnerable first.

        ``raw_vulnerable`` is the fraction of the structure's trials that
        ended Failure or USDC; ``avf`` weights it by the structure's
        occupied-bit residency (a fault in an unoccupied bit cannot matter,
        and the trial sampler only targets occupied state).  Structures
        with no recorded residency — register hits, or logs without
        occupancy events — use weight 1.0 and report ``residency: None``.
        """
        residency = self._residency_by_structure()
        rows: List[Dict] = []
        for name, counts, total in self.by_structure.rows_by_total():
            vulnerable = sum(counts.get(o, 0) for o in _VULNERABLE)
            raw = vulnerable / total if total else 0.0
            res = residency.get(name)
            weight = res["residency"] if res is not None else None
            rows.append({
                "structure": name,
                "trials": total,
                "vulnerable": vulnerable,
                "detected": counts.get("SWDetect", 0)
                + counts.get("HWDetect", 0),
                "masked": counts.get("Masked", 0),
                "raw_vulnerable": round(raw, 6),
                "residency": round(weight, 6) if weight is not None else None,
                "avf": round(raw * (weight if weight is not None else 1.0), 6),
            })
        rows.sort(key=lambda r: (-r["avf"], r["structure"]))
        return rows

    # -- outputs -----------------------------------------------------------------

    def to_json(self) -> Dict:
        """Machine-readable aggregation (``repro.obs report --json``)."""
        sw_total = sum(c for c, _ in self.check_fires.values())
        return {
            "logs": self.paths,
            "schema_versions": sorted(self.schema_versions),
            "campaigns": [
                {"workload": c.get("workload"), "scheme": c.get("scheme")}
                for c in self.campaigns
            ],
            "cache_hits": self.cache_hits,
            "resilience": {
                "actions": len(self.resilience_actions),
                "by_kind": self._resilience_by_kind(),
                "events": self.resilience_actions,
            },
            "prefix_sharing": {
                "campaigns": len(self.prefix_sharing),
                **self._prefix_totals(),
                "events": self.prefix_sharing,
            },
            "trials": self.trials,
            "skipped_lines": self.skipped_lines,
            "landed": self.landed,
            "live": self.live,
            "outcomes": dict(self.outcome_counts),
            "detection_latency": {
                "swdetect": _latency_summary(self.sw_latencies),
                "hwdetect": _latency_summary(self.hw_latencies),
            },
            "checks": {
                str(guard_id): {
                    "fires": fires,
                    "share_of_swdetect": fires / sw_total if sw_total else 0.0,
                    "latency": _latency_summary(latencies),
                }
                for guard_id, (fires, latencies) in sorted(self.check_fires.items())
            },
            "by_register": {
                k: row for k, row, _ in self.by_register.rows_by_total()
            },
            "by_bit": {k: row for k, row, _ in self.by_bit.rows_by_total()},
            "by_function": {
                k: row for k, row, _ in self.by_function.rows_by_total()
            },
            "by_fault_model": {
                k: row for k, row, _ in self.by_fault_model.rows_by_total()
            },
            "by_structure": {
                k: row for k, row, _ in self.by_structure.rows_by_total()
            },
            "avf": {
                "campaigns_with_occupancy": len(self.occupancy),
                "rows": self.avf_rows(),
            },
        }

    def render_text(self, top: int = 10) -> str:
        """Terminal report; ``top`` limits the breakdown table lengths."""
        lines: List[str] = []
        w = lines.append
        w("== campaign trial log report ==")
        w(f"logs: {len(self.paths)}  campaigns: {len(self.campaigns)}  "
          f"cache hits: {len(self.cache_hits)}  trials: {self.trials}"
          + (f"  corrupt lines skipped: {self.skipped_lines}"
             if self.skipped_lines else ""))
        for c in self.campaigns:
            w(f"  - {c.get('workload')}/{c.get('scheme')} "
              f"(golden {c.get('golden_instructions', '?')} instrs)")
        for c in self.cache_hits:
            meta = c.get("meta") or {}
            kind = f" {c['kind']}" if "kind" in c else ""
            w(f"  - {c.get('workload')}/{c.get('scheme')}{kind} served from "
              f"cache key={str(c.get('key', ''))[:12]} "
              f"(created {meta.get('created_iso', 'unknown')})")
        if self.resilience_actions:
            w("")
            w(f"resilience actions ({len(self.resilience_actions)}):")
            for kind, count in self._resilience_by_kind().items():
                w(f"  {kind:20s} {count:6d}")
            for event in self.resilience_actions:
                note = event.get("note")
                if note:
                    w(f"  - [{event.get('kind', '?')}] {note}")
        if self.prefix_sharing:
            totals = self._prefix_totals()
            w("")
            w(f"prefix sharing ({len(self.prefix_sharing)} campaign(s)):")
            w(f"  snapshot restores:    {totals['restores']:10d}")
            w(f"  replay cycles saved:  {totals['replay_cycles_saved']:10d}")
            w(f"  triaged masked:       {totals['triaged_masked']:10d}")
            if totals["triaged_dead_memory"]:
                w(f"  triaged dead memory:  "
                  f"{totals['triaged_dead_memory']:10d}")
            if totals["converged"]:
                w(f"  converged:            {totals['converged']:10d}")
                w(f"  converged cycles saved: "
                  f"{totals['converged_cycles_saved']:8d}")
            for event in self.prefix_sharing:
                converged = event.get("converged", 0)
                w(f"  - {event.get('workload')}/{event.get('scheme')}: "
                  f"{event.get('restores', 0)} restores, "
                  f"{event.get('replay_cycles_saved', 0)} cycles saved, "
                  f"{event.get('triaged_masked', 0)} triaged masked"
                  + (f", {converged} converged" if converged else ""))
        if not self.trials:
            w("no trial events found")
            return "\n".join(lines)

        w("")
        w("outcomes:")
        for outcome in _OUTCOMES:
            n = self.outcome_counts.get(outcome, 0)
            w(f"  {outcome:9s} {n:8d}  {n / self.trials:7.1%}")
        w(f"  landed on an occupied register: {self.landed}/{self.trials}; "
          f"live at flip time: {self.live}/{self.trials}")

        for title, summary in (
            ("software (guard) detection latency, cycles",
             _latency_summary(self.sw_latencies)),
            ("hardware (trap) detection latency, cycles",
             _latency_summary(self.hw_latencies)),
        ):
            w("")
            if summary is None:
                w(f"{title}: no detections")
                continue
            w(f"{title} (n={summary['count']}):")
            w(f"  min={summary['min']}  p50={summary['p50']}  "
              f"p90={summary['p90']}  p99={summary['p99']}  "
              f"max={summary['max']}  mean={summary['mean']:.1f}")

        sw_total = sum(c for c, _ in self.check_fires.values())
        w("")
        if not self.check_fires:
            w("per-check effectiveness: no software detections")
        else:
            w("per-check effectiveness:")
            w(f"  {'check':>6s} {'fires':>6s} {'share':>7s} {'p50 latency':>12s}")
            ranked = sorted(
                self.check_fires.items(), key=lambda kv: (-kv[1][0], kv[0])
            )
            for guard_id, (fires, latencies) in ranked[:top]:
                p50 = percentile(latencies, 0.5) if latencies else "-"
                w(f"  {guard_id:6d} {fires:6d} {fires / sw_total:7.1%} "
                  f"{str(p50):>12s}")
            if len(ranked) > top:
                w(f"  ... {len(ranked) - top} more checks")

        sections = [
            ("by register (IR value)", self.by_register),
            ("by bit position", self.by_bit),
            ("by function", self.by_function),
        ]
        # Only worth a table when something other than the default single-bit
        # model ran (also keeps pre-hierarchy reports rendering unchanged).
        if any(k != "single_bit" for k in self.by_fault_model.counts):
            sections.append(("by fault model", self.by_fault_model))
        for title, breakdown in sections:
            w("")
            w(f"outcomes {title}:")
            header = " ".join(f"{o:>8s}" for o in _OUTCOMES)
            w(f"  {'':24s} {header} {'total':>8s}")
            rows = breakdown.rows_by_total()
            for key, row, total in rows[:top]:
                cells = " ".join(f"{row.get(o, 0):8d}" for o in _OUTCOMES)
                w(f"  {key[:24]:24s} {cells} {total:8d}")
            if len(rows) > top:
                w(f"  ... {len(rows) - top} more")
        return "\n".join(lines)

    def render_avf(self) -> str:
        """AVF-style vulnerability report (``repro.obs report --avf``).

        One row per hardware structure a trial landed in, weighted by the
        golden-run occupied-bit residency from the campaign's ``occupancy``
        sidecar event.  Renders even without occupancy events (weights fall
        back to 1.0) so register-only logs still get the outcome view.
        """
        lines: List[str] = []
        w = lines.append
        w("== AVF-style vulnerability report ==")
        w(f"logs: {len(self.paths)}  trials: {self.trials}  "
          f"campaigns with occupancy data: {len(self.occupancy)}")
        rows = self.avf_rows()
        if not rows:
            w("no trial events found")
            return "\n".join(lines)
        w("")
        w(f"  {'structure':28s} {'trials':>7s} {'vuln':>6s} {'det':>6s} "
          f"{'masked':>7s} {'raw':>8s} {'resid':>8s} {'AVF':>8s}")
        for r in rows:
            resid = f"{r['residency']:8.4f}" if r["residency"] is not None \
                else f"{'-':>8s}"
            w(f"  {r['structure'][:28]:28s} {r['trials']:7d} "
              f"{r['vulnerable']:6d} {r['detected']:6d} {r['masked']:7d} "
              f"{r['raw_vulnerable']:8.4f} {resid} {r['avf']:8.4f}")
        res_rows = self._residency_by_structure()
        if res_rows:
            w("")
            w("golden-run occupancy (residency denominators):")
            w(f"  {'structure':28s} {'occupied':>10s} {'total':>10s} "
              f"{'residency':>10s}")
            for name in sorted(res_rows):
                row = res_rows[name]
                occ = row["occupied_words"]
                tot = row["total_words"]
                w(f"  {name[:28]:28s} "
                  f"{str(occ if occ is not None else '-'):>10s} "
                  f"{str(tot if tot is not None else '-'):>10s} "
                  f"{row['residency']:10.4f}")
        return "\n".join(lines)

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")
