"""Injection campaigns: reproducible multi-sensor corruption plans.

The paper's experiments plant specific conditions — sensor 6 stuck-at,
sensor 7 mis-calibrated, one third of the sensors colluding in an attack.
A :class:`CampaignSpec` captures such a plan declaratively so the
experiment harness, the examples, and the tests all construct identical
scenarios, and so classification accuracy can be scored against a known
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..sensornet.environment import EnvironmentModel
from .base import ActivationSchedule, Corruptor
from .injector import FaultInjector


@dataclass
class CampaignEntry:
    """One planned corruption: which sensors, what, and when."""

    corruptor: Corruptor
    sensor_ids: List[int]
    schedule: ActivationSchedule = field(default_factory=ActivationSchedule)


@dataclass
class CampaignSpec:
    """A declarative corruption plan over a deployment.

    Attributes
    ----------
    entries:
        The planned corruptions, applied in order (first match wins for
        overlapping sensors).
    name:
        Label used in reports.
    """

    entries: List[CampaignEntry] = field(default_factory=list)
    name: str = "campaign"

    def plant(
        self,
        corruptor: Corruptor,
        sensor_ids: Sequence[int],
        schedule: Optional[ActivationSchedule] = None,
    ) -> "CampaignSpec":
        """Add one corruption; returns self for chaining."""
        self.entries.append(
            CampaignEntry(
                corruptor=corruptor,
                sensor_ids=list(sensor_ids),
                schedule=schedule or ActivationSchedule(),
            )
        )
        return self

    def build_injector(self, environment: EnvironmentModel) -> FaultInjector:
        """Materialise the plan against an environment model."""
        injector = FaultInjector(environment=environment)
        for entry in self.entries:
            injector.add(entry.corruptor, entry.sensor_ids, entry.schedule)
        return injector

    def ground_truth(self) -> Dict[int, str]:
        """sensor_id -> planted corruptor kind (first match wins)."""
        truth: Dict[int, str] = {}
        for entry in self.entries:
            for sensor_id in entry.sensor_ids:
                truth.setdefault(sensor_id, entry.corruptor.kind)
        return truth

    def malicious_sensor_ids(self) -> List[int]:
        """Sensors planted with an attack (vs an accidental fault)."""
        ids = []
        for entry in self.entries:
            if entry.corruptor.malicious:
                ids.extend(entry.sensor_ids)
        return sorted(set(ids))

    def faulty_sensor_ids(self) -> List[int]:
        """Sensors planted with an accidental fault."""
        ids = []
        for entry in self.entries:
            if not entry.corruptor.malicious:
                ids.extend(entry.sensor_ids)
        return sorted(set(ids))


def choose_compromised(
    sensor_ids: Sequence[int], fraction: float, seed: int = 0
) -> List[int]:
    """Pick ``fraction`` of the sensors to compromise, reproducibly.

    The paper injects malicious behaviour into one third of the available
    sensors (§4.2); ``choose_compromised(range(10), 1/3)`` reproduces
    that population size (ceil keeps at least one sensor).
    """
    sensor_ids = list(sensor_ids)
    if not sensor_ids:
        raise ValueError("sensor_ids must be non-empty")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    count = max(1, int(np.ceil(fraction * len(sensor_ids))))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(sensor_ids, size=min(count, len(sensor_ids)), replace=False)
    return sorted(int(x) for x in chosen)
