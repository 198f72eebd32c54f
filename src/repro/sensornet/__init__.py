"""Sensor-network simulation substrate.

Provides everything the paper's evaluation substrate provided in
hardware: a ground-truth environment Θ(t), noisy multimodal motes, lossy
radio links, and a collector node that builds the Eq.-1 observation
windows consumed by the detection pipeline.
"""

from .._lazy import lazy_exports
from .collector import (
    CollectorNode,
    DeliveryStats,
    ObservationWindow,
    windows_from_messages,
)
from .environment import (
    MINUTES_PER_DAY,
    ConstantEnvironment,
    EnvironmentModel,
    GDIDiurnalEnvironment,
    PiecewiseRegimeEnvironment,
)
from .messages import DeliveryRecord, MalformedMessage, SensorMessage

# The object-path radio simulator loads on first use: columnar
# generation never runs it (DESIGN.md §12.4).
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "network": ("GilbertElliottLoss", "RadioLink", "StarNetwork"),
        "sensor": ("BatteryModel", "Mote"),
        "simulator": ("NetworkSimulator", "SimulationReport"),
        "topology": ("Deployment", "MotePlacement"),
    },
)

__all__ = [
    "BatteryModel",
    "CollectorNode",
    "ConstantEnvironment",
    "DeliveryRecord",
    "DeliveryStats",
    "Deployment",
    "EnvironmentModel",
    "GDIDiurnalEnvironment",
    "GilbertElliottLoss",
    "MINUTES_PER_DAY",
    "MalformedMessage",
    "Mote",
    "MotePlacement",
    "NetworkSimulator",
    "ObservationWindow",
    "PiecewiseRegimeEnvironment",
    "RadioLink",
    "SensorMessage",
    "SimulationReport",
    "StarNetwork",
    "windows_from_messages",
]
