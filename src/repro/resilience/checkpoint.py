"""Pipeline checkpoint/restore (versioned JSON).

A collector node running the detection pipeline accumulates weeks of
irreplaceable statistical state: clusterer centroids and visit counts,
the global online HMM ``M_CO``, one ``M_CE`` per error/attack track,
per-sensor alarm-filter state, and the ``c_i``/``o_i`` sequences behind
``M_C``/``M_O``.  :func:`snapshot` captures *all* of it into a
JSON-serializable document and :func:`restore` rebuilds a pipeline that
continues the run exactly where the snapshot was taken: feeding the same
remaining windows to the restored pipeline yields identical diagnoses,
alarm counts, and ``B`` matrices (within float round-off of one JSON
encode/decode).

The per-window :class:`~repro.core.pipeline.WindowResult` log is a
derived artifact (nothing downstream of ``process_window`` reads it) and
is deliberately *not* checkpointed; ``n_windows`` and every piece of
statistical state are.

The document is versioned independently of the report format in
:mod:`repro.analysis.serialization`; bump
:data:`CHECKPOINT_FORMAT_VERSION` whenever a component's ``state_dict``
layout changes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..config import PipelineConfig
from ..core.alarms import AlarmGenerator
from ..core.clustering import OnlineStateClusterer
from ..core.online_hmm import OnlineHMM
from ..core.pipeline import DetectionPipeline
from ..core.tracks import TrackManager

PathLike = Union[str, Path]

#: Format version stamped into every checkpoint document.
#: v2: supervisor state (invariant violations, meta-alarms, learning
#: freeze) joined the document alongside the new supervisor config keys.
CHECKPOINT_FORMAT_VERSION = 2


class CheckpointVersionError(ValueError):
    """A checkpoint's schema version is missing or unsupported.

    Raised with a message naming the found and expected versions so a
    payload written by an older (or newer) release fails loudly and
    actionably instead of with a raw ``KeyError`` deep in a
    ``from_state_dict``.
    """

    def __init__(self, found: object, expected: int):
        self.found = found
        self.expected = expected
        super().__init__(
            "unsupported checkpoint format version: found "
            f"{found!r}, expected {expected} — this checkpoint was "
            "written by a different release and cannot be restored"
        )


def snapshot(pipeline: DetectionPipeline) -> Dict[str, object]:
    """Capture the full pipeline state as a JSON-ready document.

    The document survives ``json.dumps``/``json.loads`` round-trips
    losslessly (all keys are strings, all values JSON scalars/lists).
    """
    return {
        "checkpoint_format_version": CHECKPOINT_FORMAT_VERSION,
        "config": pipeline.config.to_json_dict(),
        "n_windows": pipeline.n_windows,
        "initial_states": (
            None
            if pipeline._initial_states is None
            else [[float(x) for x in vector] for vector in pipeline._initial_states]
        ),
        "clusterer": (
            None if pipeline.clusterer is None else pipeline.clusterer.state_dict()
        ),
        "alarm_generator": pipeline.alarm_generator.state_dict(),
        "filter_bank": pipeline.filter_bank.state_dict(),
        "tracks": pipeline.tracks.state_dict(),
        "m_co": pipeline.m_co.state_dict(),
        "correct_sequence": list(pipeline.correct_sequence),
        "observable_sequence": list(pipeline.observable_sequence),
        "supervisor": (
            None
            if pipeline.supervisor is None
            else pipeline.supervisor.state_dict()
        ),
    }


def restore(
    payload: Dict[str, object], config: Optional[PipelineConfig] = None
) -> DetectionPipeline:
    """Rebuild a pipeline from a :func:`snapshot` document.

    Parameters
    ----------
    payload:
        A snapshot document (possibly round-tripped through JSON).
    config:
        Optional configuration override; when omitted the configuration
        embedded in the snapshot is reconstructed, so a checkpoint is
        fully self-contained.

    Raises
    ------
    CheckpointVersionError
        For a missing or unsupported checkpoint format version (e.g. a
        payload written by an older release).
    """
    version = payload.get("checkpoint_format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointVersionError(version, CHECKPOINT_FORMAT_VERSION)
    if config is None:
        config = PipelineConfig.from_json_dict(payload["config"])

    initial = payload.get("initial_states")
    pipeline = DetectionPipeline(
        config,
        initial_states=(
            None
            if initial is None
            else [np.asarray(vector, dtype=float) for vector in initial]
        ),
    )
    clusterer_state = payload.get("clusterer")
    pipeline.clusterer = (
        None
        if clusterer_state is None
        else OnlineStateClusterer.from_state_dict(clusterer_state)
    )
    pipeline.alarm_generator = AlarmGenerator.from_state_dict(
        payload["alarm_generator"]
    )
    pipeline.filter_bank.load_state_dict(payload["filter_bank"])
    pipeline.tracks = TrackManager.from_state_dict(payload["tracks"])
    pipeline.m_co = OnlineHMM.from_state_dict(payload["m_co"])
    pipeline.correct_sequence = [int(s) for s in payload["correct_sequence"]]
    pipeline.observable_sequence = [int(s) for s in payload["observable_sequence"]]
    pipeline._n_windows = int(payload["n_windows"])
    supervisor_state = payload.get("supervisor")
    if pipeline.supervisor is not None and supervisor_state is not None:
        # A checkpoint taken mid-degradation restores degraded: the
        # meta-alarm stays active and learning stays frozen.
        pipeline.supervisor.load_state_dict(supervisor_state)
    return pipeline


def save_checkpoint(pipeline: DetectionPipeline, path: PathLike) -> None:
    """Write a pipeline checkpoint to ``path`` as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(snapshot(pipeline), handle, sort_keys=True)


def load_checkpoint(
    path: PathLike, config: Optional[PipelineConfig] = None
) -> DetectionPipeline:
    """Read a JSON checkpoint and rebuild the pipeline it captured."""
    path = Path(path)
    with path.open("r") as handle:
        payload = json.load(handle)
    return restore(payload, config=config)
