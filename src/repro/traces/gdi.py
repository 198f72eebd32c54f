"""Synthetic Great Duck Island trace generator.

The paper evaluates on one month (July 2003) of readings from 10 outside
motes of the GDI habitat-monitoring deployment [7], sampling temperature
and humidity every 5 minutes, with substantial packet loss and some
malformed packets.  The original traces are not redistributable, so this
module generates a calibrated synthetic equivalent (see DESIGN.md §2 for
the substitution argument): the diurnal/weather structure, mote count,
sampling period, and loss processes are matched to what the paper
reports, which is all its method consumes.

The generator is a thin composition of the :mod:`repro.sensornet`
substrate — it literally runs the simulated deployment and records what
the collector received.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..sensornet.environment import GDIDiurnalEnvironment, MINUTES_PER_DAY
from .schema import Trace, TraceRecord

if TYPE_CHECKING:
    from ..sensornet.messages import SensorMessage
    from ..sensornet.simulator import CorruptionStage

#: The paper's Table 1 mote count.
GDI_SENSOR_COUNT = 10

#: GDI sampling period: one reading every 5 minutes.
GDI_SAMPLE_PERIOD_MINUTES = 5.0

#: July has 31 days.
GDI_DURATION_DAYS = 31


@dataclass
class GDITraceConfig:
    """Knobs of the synthetic GDI deployment.

    Defaults reproduce the paper's setup: 10 motes, 5-minute sampling,
    31 days, moderate loss ("about a hundred sensor readings in average"
    per 12-sample window of 10 motes implies roughly 15 % loss).
    """

    n_sensors: int = GDI_SENSOR_COUNT
    n_days: int = GDI_DURATION_DAYS
    sample_period_minutes: float = GDI_SAMPLE_PERIOD_MINUTES
    noise_std: float = 0.35
    loss_probability: float = 0.12
    corruption_probability: float = 0.01
    seed: int = 2003

    def __post_init__(self) -> None:
        # Checked here so neither generator runs on a value it would
        # either reject deep inside NumPy or turn into a silent
        # empty trace (a NaN noise draws no deliverable reading).
        for name in ("n_sensors", "n_days"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value <= 0:
                raise ValueError(f"{name} must be a positive integer")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not (
            math.isfinite(self.sample_period_minutes)
            and self.sample_period_minutes > 0
        ):
            raise ValueError("sample_period_minutes must be finite and positive")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError("noise_std must be finite and non-negative")
        # The object generator's RadioLink rejects these too; checking
        # here keeps the columnar generator from running on them.
        for name in ("loss_probability", "corruption_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def duration_minutes(self) -> float:
        """Total simulated time."""
        return self.n_days * float(MINUTES_PER_DAY)


def build_environment(config: Optional[GDITraceConfig] = None) -> GDIDiurnalEnvironment:
    """The calibrated July GDI environment for a given configuration."""
    config = config or GDITraceConfig()
    return GDIDiurnalEnvironment(n_days=config.n_days, seed=config.seed)


def generate_gdi_trace(
    config: Optional[GDITraceConfig] = None,
    corruption: Optional[CorruptionStage] = None,
) -> Trace:
    """Generate one synthetic GDI month as a :class:`Trace`.

    Parameters
    ----------
    config:
        Generator knobs; defaults reproduce the paper's setup.
    corruption:
        Optional fault/attack stage (see :mod:`repro.faults.injector`)
        applied to each report before the radio.  This is how the
        experiments plant the paper's faulty sensors 6/7 and the injected
        attacks.

    Returns
    -------
    Trace
        All reports the collector successfully parsed, plus delivery
        statistics in ``trace.metadata``.
    """
    # The object-path substrate: only this oracle runs it, so it is
    # imported here rather than with the module (DESIGN.md §12.4).
    from ..sensornet.collector import CollectorNode
    from ..sensornet.network import StarNetwork
    from ..sensornet.sensor import Mote
    from ..sensornet.simulator import NetworkSimulator

    config = config or GDITraceConfig()
    environment = build_environment(config)
    motes = [
        Mote(
            sensor_id=i,
            environment=environment,
            noise_std=config.noise_std,
            seed=config.seed,
        )
        for i in range(config.n_sensors)
    ]
    network = StarNetwork.homogeneous(
        sensor_ids=range(config.n_sensors),
        loss_probability=config.loss_probability,
        corruption_probability=config.corruption_probability,
        seed=config.seed,
    )
    collector = CollectorNode(window_minutes=config.duration_minutes)
    simulator = NetworkSimulator(
        environment=environment,
        motes=motes,
        network=network,
        collector=collector,
        sample_period_minutes=config.sample_period_minutes,
        corruption=corruption,
    )

    delivered: List[SensorMessage] = []
    report = simulator.run(config.duration_minutes)
    for window in report.windows:
        delivered.extend(window.messages)
    final = collector.flush()
    if final is not None:
        delivered.extend(final.messages)

    trace = Trace(
        records=[TraceRecord.from_message(m) for m in delivered],
        attribute_names=environment.attribute_names,
    )
    trace.metadata.update(
        {
            "n_sensors": float(config.n_sensors),
            "n_days": float(config.n_days),
            "seed": float(config.seed),
            "accepted": float(collector.stats.accepted),
            "malformed": float(collector.stats.malformed),
            "lost": float(collector.stats.lost),
        }
    )
    return trace
