"""Runtime invariant supervisor and the majority-assumption meta-alarm.

The pipeline's per-sensor alarms answer *"is sensor j misbehaving?"*;
this module answers the meta-question *"can the pipeline still be
trusted to answer that?"*.  Two mechanisms, both driven from every
window step of :class:`DetectionPipeline` (fused or oracle):

**Invariant supervision.**  After every window the registry of
:mod:`~repro.resilience.invariants` is checked against the live state.
The configured mode (``PipelineConfig.supervisor_mode``) decides the
response:

* ``off`` — no supervisor is constructed at all; the pipeline is
  bit-identical to the unsupervised implementation,
* ``warn`` — violations are recorded and an :class:`InvariantWarning`
  is emitted,
* ``repair`` — bounded self-healing actions run (see the invariant
  table in DESIGN.md §10); a repair that does not restore the invariant
  escalates to :class:`InvariantViolationError`,
* ``raise`` — the first violation raises
  :class:`InvariantViolationError`.

**Majority-assumption monitoring.**  The paper's correct-state
derivation (Eq. 4) is only meaningful while correct sensors form a
majority.  When the correct-state cluster holds at most half of the
reporting sensors for ``supervisor_majority_windows`` consecutive
windows, the supervisor raises a :class:`ModelUnderAttack` meta-alarm
and *freezes learning*: the β/γ forgetting updates of ``M_CO`` and
every track ``M_CE``, and the ``c_i``/``o_i`` sequence appends behind
``M_C``/``M_O``, are suspended so a coordinated compromise cannot poison
the learned models (alarm generation, filtering, and track open/close
keep running — detection continues, only model adaptation stops).
After ``supervisor_recovery_windows`` consecutive healthy-majority
windows the alarm clears and learning resumes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .invariants import (
    Invariant,
    InvariantViolationError,
    InvariantWarning,
    Violation,
    default_invariants,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.identification import WindowIdentification
    from ..core.pipeline import DetectionPipeline

#: Supervisor modes that actually construct a supervisor.
ACTIVE_MODES = ("warn", "repair", "raise")


@dataclass
class ModelUnderAttack:
    """Meta-alarm: the majority assumption has broken down.

    Unlike the per-sensor alarms this does not accuse any sensor — it
    flags that the pipeline's *own* soundness precondition failed, so
    everything derived while it is active is suspect and learning is
    frozen.

    Attributes
    ----------
    raised_window:
        Window index at which the alarm was raised.
    cleared_window:
        Window index at which the majority recovered (None while
        active).
    """

    raised_window: int
    cleared_window: Optional[int] = None

    @property
    def is_active(self) -> bool:
        """True until the majority assumption recovers."""
        return self.cleared_window is None


class PipelineSupervisor:
    """Per-pipeline runtime supervisor (one per supervised pipeline).

    Parameters
    ----------
    mode:
        One of ``warn | repair | raise`` (``off`` never constructs one).
    majority_windows:
        k — consecutive majority-violated windows before the
        :class:`ModelUnderAttack` meta-alarm raises.
    recovery_windows:
        Consecutive healthy windows before the alarm clears.
    invariants:
        Override of the checked registry (defaults to
        :func:`~repro.resilience.invariants.default_invariants`).
    """

    def __init__(
        self,
        mode: str = "warn",
        majority_windows: int = 3,
        recovery_windows: int = 3,
        invariants: Optional[Sequence[Invariant]] = None,
    ):
        if mode not in ACTIVE_MODES:
            raise ValueError(f"mode must be one of {ACTIVE_MODES}")
        if majority_windows < 1 or recovery_windows < 1:
            raise ValueError("window thresholds must be positive")
        self.mode = mode
        self.majority_windows = majority_windows
        self.recovery_windows = recovery_windows
        self.invariants = tuple(
            invariants if invariants is not None else default_invariants()
        )
        self.violations: List[Violation] = []
        self.meta_alarms: List[ModelUnderAttack] = []
        self._bad_streak = 0
        self._good_streak = 0
        self._frozen = False

    @classmethod
    def from_config(cls, config) -> "PipelineSupervisor":
        """Build a supervisor from a :class:`PipelineConfig`."""
        return cls(
            mode=config.supervisor_mode,
            majority_windows=config.supervisor_majority_windows,
            recovery_windows=config.supervisor_recovery_windows,
        )

    # -- majority-assumption monitor --------------------------------------

    @property
    def learning_frozen(self) -> bool:
        """True while a :class:`ModelUnderAttack` alarm is active."""
        return self._frozen

    @property
    def active_meta_alarm(self) -> Optional[ModelUnderAttack]:
        """The currently active meta-alarm, if any."""
        if self.meta_alarms and self.meta_alarms[-1].is_active:
            return self.meta_alarms[-1]
        return None

    def observe_identification(
        self, window_index: int, identification: "WindowIdentification"
    ) -> bool:
        """Feed one window's Eq. 4 outcome; returns whether learning is
        frozen *for this window* (the pipeline consults this before the
        β/γ updates, so the window that trips the threshold is already
        excluded from learning)."""
        majority_holds = (
            identification.majority_size * 2 > identification.n_sensors
        )
        if majority_holds:
            self._good_streak += 1
            self._bad_streak = 0
        else:
            self._bad_streak += 1
            self._good_streak = 0
        if self._frozen:
            if majority_holds and self._good_streak >= self.recovery_windows:
                self._frozen = False
                self.meta_alarms[-1].cleared_window = window_index
        elif not majority_holds and self._bad_streak >= self.majority_windows:
            self._frozen = True
            self.meta_alarms.append(ModelUnderAttack(raised_window=window_index))
        return self._frozen

    # -- invariant supervision --------------------------------------------

    def after_window(self, pipeline: "DetectionPipeline") -> List[Violation]:
        """Check every invariant; respond per the configured mode.

        Returns the violations recorded for this window (empty when the
        state is healthy).  In ``repair`` mode each violated invariant's
        repair runs and is re-checked; an invariant still violated after
        its repair (or lacking one) escalates to
        :class:`InvariantViolationError` — self-healing must never fail
        silently.
        """
        window_index = pipeline.n_windows
        recorded: List[Violation] = []
        for invariant in self.invariants:
            details = invariant.check(pipeline)
            if not details:
                continue
            if self.mode == "raise":
                raise InvariantViolationError(
                    [
                        Violation(invariant.name, d, window_index)
                        for d in details
                    ]
                )
            action = ""
            if self.mode == "repair":
                actions = (
                    invariant.repair(pipeline)
                    if invariant.repair is not None
                    else []
                )
                remaining = invariant.check(pipeline)
                if remaining:
                    raise InvariantViolationError(
                        [
                            Violation(
                                invariant.name,
                                f"unrepaired: {d}",
                                window_index,
                                action="; ".join(actions),
                            )
                            for d in remaining
                        ]
                    )
                action = "; ".join(actions)
            else:  # warn
                warnings.warn(
                    f"pipeline invariant {invariant.name!r} violated at "
                    f"window {window_index}: {details[0]}",
                    InvariantWarning,
                    stacklevel=3,
                )
            recorded.extend(
                Violation(invariant.name, d, window_index, action=action)
                for d in details
            )
        self.violations.extend(recorded)
        return recorded

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of the monitor state and history.

        The mode and thresholds live in the pipeline configuration (the
        checkpoint embeds that separately), so only mutable state is
        stored here — a checkpoint taken while learning is frozen
        restores frozen, mid-streak, with the alarm still active.
        """
        return {
            "bad_streak": self._bad_streak,
            "good_streak": self._good_streak,
            "frozen": self._frozen,
            "meta_alarms": [
                [alarm.raised_window, alarm.cleared_window]
                for alarm in self.meta_alarms
            ],
            "violations": [
                [v.invariant, v.detail, v.window_index, v.action]
                for v in self.violations
            ],
        }

    def load_state_dict(self, payload: Dict[str, object]) -> None:
        """Restore monitor state from :meth:`state_dict` output."""
        self._bad_streak = int(payload["bad_streak"])
        self._good_streak = int(payload["good_streak"])
        self._frozen = bool(payload["frozen"])
        self.meta_alarms = [
            ModelUnderAttack(
                raised_window=int(raised),
                cleared_window=None if cleared is None else int(cleared),
            )
            for raised, cleared in payload["meta_alarms"]
        ]
        self.violations = [
            Violation(str(name), str(detail), int(window), str(action))
            for name, detail, window, action in payload["violations"]
        ]

    def digest_payload(self) -> Dict[str, object]:
        """What the pipeline digest records about supervision."""
        return {
            "frozen": self._frozen,
            "bad_streak": self._bad_streak,
            "good_streak": self._good_streak,
            "meta_alarms": [
                [alarm.raised_window, alarm.cleared_window]
                for alarm in self.meta_alarms
            ],
            "n_violations": len(self.violations),
        }
