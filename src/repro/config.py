"""Pipeline configuration (paper Table 1 defaults).

Table 1 of the paper lists the experimental setup: K=10 sensors, M=6
initial model states, w=12 samples per observation window, α=0.10,
β=0.90, γ=0.90.  :class:`PipelineConfig` carries those values plus the
knobs the paper mentions without numbering (clustering spawn/merge
thresholds, alarm-filter parameters, classifier tolerances), with the
defaults recorded in DESIGN.md §6.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from .core.classification import ClassifierConfig
from .core.filtering import AlarmFilter, CUSUMFilter, KOfNFilter, SPRTFilter

#: Supported alarm-filter kinds.
FILTER_KINDS = ("k_of_n", "sprt", "cusum")

#: Supported runtime invariant-supervisor modes.
SUPERVISOR_MODES = ("off", "warn", "repair", "raise")

#: Fields older releases wrote into pipeline checkpoints;
#: :meth:`PipelineConfig.from_json_dict` drops them so those payloads
#: still restore.
LEGACY_FIELDS = (
    "backend",
    "n_jobs",
    "drop_non_finite",
    "checkpoint_every_windows",
)


def _positive(value: float) -> bool:
    """True for a finite value above zero (NaN and inf are not)."""
    return math.isfinite(value) and value > 0


@dataclass
class PipelineConfig:
    """All knobs of the detection pipeline.

    The first block reproduces Table 1; the rest are implementation
    parameters the paper leaves unnumbered.
    """

    # --- Table 1 -------------------------------------------------------
    #: K — number of sensors in the deployment.
    n_sensors: int = 10
    #: M — number of initial model states.
    n_initial_states: int = 6
    #: w — observation window size, in samples.
    window_samples: int = 12
    #: Sampling period of the motes, in minutes (GDI: 5 minutes).
    sample_period_minutes: float = 5.0
    #: α — learning factor for model-state estimation (Eq. 6).
    alpha: float = 0.10
    #: β — learning factor for the transition distribution A (§3.2).
    beta: float = 0.90
    #: γ — learning factor for the emission distribution B (§3.2).
    gamma: float = 0.90

    # --- clustering ------------------------------------------------------
    #: Observations farther than this from every state spawn a new state.
    #: Tuned so GDI data yields 4-6 main states ~13 units apart, matching
    #: the Fig. 7 state spacing (see DESIGN.md §6).
    spawn_threshold: float = 10.0
    #: States closer than this merge into one.
    merge_threshold: float = 5.0
    #: Hard cap on the number of model states.
    max_states: int = 24

    # --- alarm filtering ---------------------------------------------------
    #: One of :data:`FILTER_KINDS`.
    filter_kind: str = "k_of_n"
    #: k-of-n: filtered alarm after k raw alarms in the last n windows.
    filter_k: int = 3
    filter_n: int = 5
    #: SPRT: healthy / anomalous alarm probabilities and error targets.
    #: The operating point is tuned so roughly three raw alarms within a
    #: few windows are needed to accept H1, matching the k-of-n default
    #: (isolated boundary alarms on healthy sensors must not open tracks).
    sprt_p0: float = 0.05
    sprt_p1: float = 0.5
    sprt_alpha: float = 0.001
    sprt_beta: float = 0.01
    #: CUSUM: drift and decision threshold.
    cusum_drift: float = 0.25
    cusum_threshold: float = 2.0

    # --- classification -------------------------------------------------
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    # --- model extraction --------------------------------------------------
    #: States visited less than this fraction of windows are pruned from
    #: the user-facing Markov models (Fig. 7's spurious-state handling).
    prune_visit_fraction: float = 0.02

    # --- runtime supervision ---------------------------------------------
    #: Invariant supervisor mode (see repro.resilience.supervisor).
    #: ``off`` disables supervision entirely — the pipeline is then
    #: bit-identical to the unsupervised implementation; ``warn``
    #: records violations and emits InvariantWarning; ``repair``
    #: additionally applies bounded self-healing actions; ``raise``
    #: raises InvariantViolationError on the first violation.
    supervisor_mode: str = "off"
    #: k — consecutive windows on which the majority assumption is
    #: violated (the correct-state cluster holds at most half of the
    #: reporting sensors) before the ModelUnderAttack meta-alarm raises
    #: and the β/γ forgetting updates freeze.
    supervisor_majority_windows: int = 3
    #: Consecutive healthy-majority windows required to clear the
    #: meta-alarm and resume learning.
    supervisor_recovery_windows: int = 3

    def __post_init__(self) -> None:
        if self.n_sensors <= 0:
            raise ValueError("n_sensors must be positive")
        if self.n_initial_states <= 0:
            raise ValueError("n_initial_states must be positive")
        # A NaN window length yields no windows (a silent clean
        # verdict), an infinite one never closes a window.
        if not _positive(self.window_samples):
            raise ValueError("window_samples must be positive")
        if not _positive(self.sample_period_minutes):
            raise ValueError("sample_period_minutes must be positive")
        # The clusterer and the k-of-n filter check these too, but only
        # once the first window arrives; fail here, with their messages.
        if not (_positive(self.spawn_threshold) and _positive(self.merge_threshold)):
            raise ValueError("thresholds must be positive")
        if self.merge_threshold >= self.spawn_threshold:
            raise ValueError("merge_threshold must be below spawn_threshold")
        if self.max_states < 2:
            raise ValueError("max_states must be at least 2")
        if not 1 <= self.filter_k <= self.filter_n:
            raise ValueError("need 1 <= k <= n")
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.filter_kind not in FILTER_KINDS:
            raise ValueError(f"filter_kind must be one of {FILTER_KINDS}")
        if self.supervisor_mode not in SUPERVISOR_MODES:
            raise ValueError(
                f"supervisor_mode must be one of {SUPERVISOR_MODES}"
            )
        if self.supervisor_majority_windows < 1:
            raise ValueError("supervisor_majority_windows must be positive")
        if self.supervisor_recovery_windows < 1:
            raise ValueError("supervisor_recovery_windows must be positive")

    @property
    def window_minutes(self) -> float:
        """Window duration ``w`` expressed in minutes."""
        return self.window_samples * self.sample_period_minutes

    def filter_factory(self) -> Callable[[], AlarmFilter]:
        """Factory building one per-sensor alarm filter of the configured kind."""
        if self.filter_kind == "k_of_n":
            k, n = self.filter_k, self.filter_n
            return lambda: KOfNFilter(k=k, n=n)
        if self.filter_kind == "sprt":
            p0, p1 = self.sprt_p0, self.sprt_p1
            a, b = self.sprt_alpha, self.sprt_beta
            return lambda: SPRTFilter(p0=p0, p1=p1, alpha=a, beta=b)
        drift, threshold = self.cusum_drift, self.cusum_threshold
        return lambda: CUSUMFilter(drift=drift, threshold=threshold)

    def table1_rows(self) -> List[Tuple[str, str, str]]:
        """The (parameter, description, value) rows of the paper's Table 1."""
        return [
            ("K", "Number of sensors", str(self.n_sensors)),
            ("M", "Number of initial model states", str(self.n_initial_states)),
            ("w", "Observation window size", str(self.window_samples)),
            (
                "alpha",
                "Learning factor used to estimate model states",
                f"{self.alpha:.2f}",
            ),
            (
                "beta",
                "Learning factor used to estimate state transition probability A",
                f"{self.beta:.2f}",
            ),
            (
                "gamma",
                "Learning factor used to estimate observation symbol probability B",
                f"{self.gamma:.2f}",
            ),
        ]

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view used by sweep harnesses."""
        return {
            "n_sensors": self.n_sensors,
            "n_initial_states": self.n_initial_states,
            "window_samples": self.window_samples,
            "sample_period_minutes": self.sample_period_minutes,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "spawn_threshold": self.spawn_threshold,
            "merge_threshold": self.merge_threshold,
        }

    # -- checkpointing ----------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """Complete, lossless JSON view (checkpoint round-trips need it).

        Unlike :meth:`as_dict` (a flat summary for sweep harnesses) this
        captures *every* field, including the nested classifier
        configuration, so :meth:`from_json_dict` rebuilds an identical
        configuration.
        """
        return dataclasses.asdict(self)  # recurses into classifier

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "PipelineConfig":
        """Inverse of :meth:`to_json_dict`.

        The :data:`LEGACY_FIELDS` of older payloads are dropped; any
        other unknown key raises ``ValueError``.
        """
        fields = dict(payload)
        classifier = fields.pop("classifier", None)
        for name in LEGACY_FIELDS:
            fields.pop(name, None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(fields) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        config = cls(**fields)
        if classifier is not None:
            config.classifier = ClassifierConfig(**classifier)
        return config
