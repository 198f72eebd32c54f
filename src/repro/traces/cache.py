"""Content-addressed scenario trace cache.

Campaign runs spend almost all their time re-simulating deployments
whose inputs have not changed.  The cache stores each generated trace's
*delivered arrays* (flat timestamps / sensor ids / values — exactly what
the columnar windower consumes) as one ``.npz`` under a cache directory,
keyed by a SHA-256 over the canonical JSON of the generating spec.

Invalidation rules (see DESIGN.md):

* the spec dict embeds :data:`repro.traces.columnar.GENERATOR_VERSION`;
  any behavioural change to trace generation bumps it and retires every
  old entry by key;
* scenario entries also embed the scenario name, day count, and seed —
  the full input surface of the standard builders;
* entries additionally store the campaign ground truth and trace
  metadata, so a cache hit never needs to rebuild the campaign (whose
  attack anchors would require a clean reference run).

Writes are atomic (temp file + ``os.replace``), so concurrent workers
racing on a miss at worst regenerate the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .columnar import GENERATOR_VERSION

#: On-disk payload layout version (bump on incompatible .npz changes).
CACHE_SCHEMA_VERSION = 1


def canonical_spec_hash(spec: Mapping[str, object]) -> str:
    """SHA-256 of the canonical JSON encoding of ``spec``."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def scenario_spec(name: str, n_days: int, seed: int) -> Dict[str, object]:
    """The cache spec for one standard scenario run.

    Everything that determines the generated trace must appear here;
    the generator version retires all entries when generation changes.
    """
    return {
        "kind": "scenario-trace",
        "scenario": str(name),
        "n_days": int(n_days),
        "seed": int(seed),
        "generator_version": GENERATOR_VERSION,
    }


#: Member names of a cache entry, in stored order.
_ARRAY_MEMBERS = ("timestamps", "sensor_ids", "values")


def _read_entry(
    path: Path,
) -> "Tuple[Dict[str, object], Dict[str, np.ndarray]]":
    """Read one entry's header and arrays through ``np.load``."""
    with np.load(path, allow_pickle=False) as payload:
        header = json.loads(str(payload["header"]))
        arrays = {name: payload[name] for name in _ARRAY_MEMBERS}
    return header, arrays


@dataclass
class CachedTrace:
    """One cache entry: delivered arrays plus scenario provenance."""

    timestamps: np.ndarray
    sensor_ids: np.ndarray
    values: np.ndarray
    attribute_names: Tuple[str, ...]
    metadata: Dict[str, float]
    #: sensor id -> planted corruption kind (empty for clean runs).
    ground_truth: Dict[int, str]
    #: The scenario run's report label (may differ from the registry
    #: key, e.g. builder key ``stuck_at`` vs run label ``stuck-at``).
    label: str = ""


@dataclass
class TraceCache:
    """Filesystem cache of generated scenario traces.

    Parameters
    ----------
    root:
        Cache directory; created on first use.  Safe to share between
        processes — entries are immutable once written and writes are
        atomic.
    """

    root: Path
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    #: Corrupted/truncated entries moved aside by :meth:`load`.
    quarantined: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, spec: Mapping[str, object]) -> Path:
        """Entry path for ``spec`` (exists only after a store)."""
        return self.root / f"{canonical_spec_hash(spec)}.npz"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupted entry to a ``quarantine/`` sibling directory.

        Keeps the bad bytes around for post-mortem while guaranteeing
        the next :meth:`load` of the same spec is a clean miss (and the
        subsequent :meth:`store` does not fight a broken file).
        """
        target_dir = self.root / "quarantine"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            # Quarantining is best-effort: if the move itself fails
            # (permissions, races), fall back to deleting the entry so
            # the cache still self-heals.
            try:
                os.unlink(path)
            except OSError:
                pass
        self.quarantined += 1

    def load(self, spec: Mapping[str, object]) -> Optional[CachedTrace]:
        """Return the cached trace for ``spec``, or None (counted).

        Every entry, stored or legacy-compressed, is read through
        ``np.load``; the returned arrays are marked read-only.

        A corrupted or truncated entry (unreadable zip, missing arrays,
        undecodable header) is treated as a miss rather than poisoning
        the whole campaign: the bad file is moved to a ``quarantine/``
        sibling, counted in :attr:`quarantined`, and ``None`` is
        returned so the caller regenerates and re-stores the trace.
        """
        path = self.path_for(spec)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            header, arrays = _read_entry(path)
            if header.get("cache_schema") != CACHE_SCHEMA_VERSION:
                self.misses += 1
                return None
            entry = CachedTrace(
                timestamps=arrays["timestamps"],
                sensor_ids=arrays["sensor_ids"],
                values=arrays["values"],
                attribute_names=tuple(header["attribute_names"]),
                metadata={
                    key: float(value)
                    for key, value in header["metadata"].items()
                },
                ground_truth={
                    int(key): str(value)
                    for key, value in header["ground_truth"].items()
                },
                label=str(header.get("label", "")),
            )
        except Exception:  # zipfile/JSON/key/shape corruption
            self._quarantine(path)
            self.misses += 1
            return None
        for array in (entry.timestamps, entry.sensor_ids, entry.values):
            array.flags.writeable = False
        self.hits += 1
        return entry

    def store(
        self,
        spec: Mapping[str, object],
        timestamps: np.ndarray,
        sensor_ids: np.ndarray,
        values: np.ndarray,
        attribute_names: Tuple[str, ...],
        metadata: Mapping[str, float],
        ground_truth: Mapping[int, str],
        label: str = "",
    ) -> Path:
        """Write one entry atomically; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        header = json.dumps(
            {
                "cache_schema": CACHE_SCHEMA_VERSION,
                "spec": dict(spec),
                "attribute_names": list(attribute_names),
                "metadata": {k: float(v) for k, v in metadata.items()},
                "ground_truth": {
                    str(k): str(v) for k, v in ground_truth.items()
                },
                "label": str(label),
            },
            sort_keys=True,
        )
        # The temp name embeds the writer's process and thread ids on
        # top of mkstemp's own uniqueness: concurrent workers racing on
        # the same miss each write their own temp file and the atomic
        # os.replace below publishes whichever finishes last — the
        # bytes are identical by construction (same spec, same seed),
        # so the entry is intact either way.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root,
            prefix=f".tmp-{os.getpid()}-{threading.get_ident()}-",
            suffix=".npz",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                # Uncompressed on purpose: a hot replay then reads each
                # array straight off disk instead of paying inflate on
                # every load (legacy compressed entries still load).
                np.savez(
                    handle,
                    header=np.asarray(header),
                    timestamps=np.asarray(timestamps, dtype=float),
                    sensor_ids=np.asarray(sensor_ids, dtype=np.int64),
                    values=np.asarray(values, dtype=float),
                )
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def stats_line(self) -> str:
        """Human-readable hit/miss/quarantine counters for CLI output."""
        line = f"cache: hits={self.hits} misses={self.misses}"
        if self.quarantined:
            line += f" quarantined={self.quarantined}"
        return line
