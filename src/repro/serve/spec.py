"""Campaign specs: the admission currency of the ``repro.serve`` service.

A :class:`CampaignSpec` names one campaign — (workload × scheme × fault
model × trials × seed) — in a canonical, JSON-round-trippable form.  Two
properties matter to the service:

* **Validation happens at admission**, never at execution: an unknown
  workload, scheme, fault model, or nonsensical trial count is rejected
  with a load-shed response before it can reach (and repeatedly kill) a
  worker.  Execution-time failures are therefore always *harness*
  surprises, which is what the poison-job quarantine is for.

* **The content key is semantic.**  :meth:`CampaignSpec.key` is the sha256
  of the result-affecting fields only, as tagged on their
  :class:`~repro.faultinjection.campaign.CampaignConfig` twins — ``jobs``
  (worker count inside one campaign) is execution-only because campaign
  results, obs logs, caches, and checkpoints are byte-identical for any
  value (the house invariant), and the submitting tenant is excluded
  because *who* asked cannot change what gets computed.  Two tenants
  submitting the same campaign therefore hash to the same key, which is
  what lets the service dedup them onto one execution and one cache entry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..durable import canonical_sha256

__all__ = ["CampaignSpec", "DEFAULT_TENANT"]

#: tenant recorded for submissions that did not name one
DEFAULT_TENANT = "default"

#: hard ceiling on one spec's trial count — a fat-fingered ``trials=1e9``
#: must shed at admission, not wedge a worker for a week
MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign request: what to run, under which fault model."""

    workload: str
    scheme: str
    trials: int = 100
    seed: int = 2014
    #: fault model name, or None for the paper default (``single_bit``).
    #: Resolved at validation — the service never consults
    #: ``REPRO_FAULT_MODEL``, so a spec means the same thing on every host.
    fault_model: Optional[str] = None
    #: worker processes *inside* the campaign (``CampaignConfig.jobs``).
    #: Execution-only: excluded from :meth:`key` because results and logs
    #: are byte-identical for any value.
    jobs: int = 1
    #: the paper's cross-validation input swap (semantic: different inputs)
    swap_train_test: bool = False
    #: free-form labels carried through the journal for reporting; never
    #: part of the key
    labels: Dict[str, str] = field(default_factory=dict)

    # -- validation ---------------------------------------------------------

    def validate(self) -> Optional[str]:
        """Admission check: None when runnable, else a human-readable reason.

        Import-local so the spec module stays cheap to import from clients
        that only submit.
        """
        from ..sim.faults import CHAOS_FAULT_MODEL, FAULT_MODELS
        from ..transforms.pipeline import SCHEMES
        from ..workloads.registry import BENCHMARK_NAMES

        if self.workload not in BENCHMARK_NAMES:
            return f"unknown workload {self.workload!r}"
        if self.scheme not in SCHEMES:
            return f"unknown scheme {self.scheme!r}"
        if not isinstance(self.trials, int) or self.trials < 1:
            return f"trials must be a positive integer, got {self.trials!r}"
        if self.trials > MAX_TRIALS:
            return f"trials {self.trials} exceeds the {MAX_TRIALS} ceiling"
        if not isinstance(self.seed, int):
            return f"seed must be an integer, got {self.seed!r}"
        if (
            self.fault_model is not None
            and self.fault_model != CHAOS_FAULT_MODEL
            and self.fault_model not in FAULT_MODELS
        ):
            return f"unknown fault model {self.fault_model!r}"
        if not isinstance(self.jobs, int) or self.jobs < 0:
            return f"jobs must be a non-negative integer, got {self.jobs!r}"
        return None

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict:
        doc = {
            "workload": self.workload,
            "scheme": self.scheme,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.fault_model is not None:
            doc["fault_model"] = self.fault_model
        if self.jobs != 1:
            doc["jobs"] = self.jobs
        if self.swap_train_test:
            doc["swap_train_test"] = True
        if self.labels:
            doc["labels"] = dict(self.labels)
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "CampaignSpec":
        """Parse a spec document; raises ``ValueError`` on malformed shapes.

        Submissions are untrusted tenant input: a spec that is not a JSON
        object, or whose ``labels`` is not one, must fail with the same
        exception type as bad JSON so admission quarantines it instead of
        letting an ``AttributeError``/``TypeError`` escape into the service
        loop.
        """
        if not isinstance(doc, dict):
            raise ValueError(
                f"campaign spec must be a JSON object, got {type(doc).__name__}"
            )
        labels = doc.get("labels") or {}
        if not isinstance(labels, dict):
            raise ValueError(
                f"spec labels must be a JSON object, got {type(labels).__name__}"
            )
        return cls(
            workload=doc.get("workload", ""),
            scheme=doc.get("scheme", ""),
            trials=doc.get("trials", 100),
            seed=doc.get("seed", 2014),
            fault_model=doc.get("fault_model"),
            jobs=doc.get("jobs", 1),
            swap_train_test=bool(doc.get("swap_train_test", False)),
            labels=dict(labels),
        )

    # -- content key --------------------------------------------------------

    def key(self) -> str:
        """sha256 over the semantic fields — the service's dedup identity.

        The workload, the scheme, and every spec field whose
        ``CampaignConfig`` twin is tagged result-affecting.  A field left
        None hashes as its twin's default (``fault_model`` None →
        ``single_bit``), so an explicit default and an omitted one collapse
        to one key; ``jobs``, ``labels``, and the tenant never appear.
        """
        from ..faultinjection.campaign import CampaignConfig

        twins = {f.name: f for f in dataclasses.fields(CampaignConfig)}
        payload = {"workload": self.workload, "scheme": self.scheme}
        for spec_field in dataclasses.fields(self):
            twin = twins.get(spec_field.name)
            if twin is None or not twin.metadata.get("result"):
                continue
            value = getattr(self, spec_field.name)
            if value is None:
                value = twin.metadata["knob"].default
            payload[spec_field.name] = value
        return canonical_sha256(payload)

    def describe(self) -> str:
        """Short human-readable label (status tables, logs)."""
        model = self.fault_model or "single_bit"
        return (f"{self.workload}/{self.scheme} trials={self.trials} "
                f"seed={self.seed} model={model}")
