"""Content-addressed checkpoint store for wear-out experiments.

Checkpoints live in one directory, named by the owning run's *warm
key* — a content hash of everything that determines the simulated
trajectory (device, scale, filesystem, workload parameters, resolved
seed) but **not** of the stop condition (``until_level``) or display
label.  Two campaign points that differ only in how deep they wear the
device therefore share a key and a trajectory: any checkpoint written
by one is, at matching step count, exactly the state the other would
have reached — which is what makes warm-starting sound (DESIGN.md §10).

Two kinds of file exist per key:

* ``<key>-s<steps>.npz`` — saved at each indicator crossing.  Because a
  run with ``until_level=L`` stops at the step where level ``L`` is
  first reached, the crossing snapshot *is* the end state of every
  shallower run, and deeper runs can restore it and continue.
* ``<key>-wip.npz`` — a rolling work-in-progress snapshot saved every
  ``interval_steps`` for mid-point resume of killed runs.  One file per
  key; saves replace it atomically.

Concurrent campaign workers may write the same key's files; saves are
atomic (temp file + rename) and corrupt or version-mismatched files are
skipped on read, so the worst case is a cold start, never a bad state.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.state.snapshot import (
    STATE_FORMAT_VERSION,
    load_meta,
    load_state,
    save_state,
    snapshot_experiment,
)

#: What reading a torn or corrupt ``.npz`` may raise: a damaged zip
#: directory, a bad CRC, a broken deflate stream, or garbled metadata.
_UNREADABLE = (
    OSError, ValueError, KeyError, zipfile.BadZipFile, json.JSONDecodeError, zlib.error,
)

#: PointSpec fields excluded from the warm key: they select how far the
#: trajectory is followed (or how it is labelled), not the trajectory.
WARM_KEY_EXCLUDED_FIELDS = ("until_level", "label", "seed")


def warm_start_key(spec_fields: Dict[str, Any], seed: int) -> str:
    """Warm-start cache key for a wear-out point.

    ``spec_fields`` is the point's canonical dict form
    (:meth:`repro.campaign.spec.PointSpec.to_dict`); ``seed`` is the
    *resolved* seed the point actually runs with.  The explicit ``seed``
    field is dropped in favour of the resolved value so that a pinned
    seed and a base-seed derivation that happen to agree share a key.
    """
    data = {
        key: value
        for key, value in spec_fields.items()
        if key not in WARM_KEY_EXCLUDED_FIELDS
    }
    data["resolved_seed"] = int(seed)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class CheckpointManager:
    """Directory of wear-state checkpoints, keyed by warm-start key.

    Args:
        root: Checkpoint directory; created on first use.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- writing -------------------------------------------------------

    def path_for(self, key: str, steps: int, kind: str = "interval") -> Path:
        if kind == "crossing":
            return self.root / f"{key}-s{steps:09d}.npz"
        return self.root / f"{key}-wip.npz"

    def save(
        self,
        experiment,
        key: str,
        kind: str = "interval",
        extra_meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Snapshot ``experiment`` under ``key``; returns the file path."""
        state = snapshot_experiment(experiment)
        state["checkpoint"] = {"key": key, "kind": kind, **(extra_meta or {})}
        return save_state(self.path_for(key, experiment.steps_completed, kind), state)

    # -- reading -------------------------------------------------------

    def candidates(self, key: str) -> List[Path]:
        return sorted(self.root.glob(f"{key}-*.npz"))

    def best(self, key: str, until_level: int) -> Optional[Dict[str, Any]]:
        """Deepest compatible checkpoint state for a run to
        ``until_level``, or None for a cold start.

        Compatible means: readable, current format version, and no
        indicator already at ``until_level`` — a run would have
        terminated at or before such a state, so restoring it would skip
        past the stop condition.  Candidates are tried deepest-first;
        unreadable files fall through to the next one.
        """
        ranked: List[Tuple[int, Path]] = []
        for path in self.candidates(key):
            try:
                meta = load_meta(path)
            except _UNREADABLE:
                continue
            if meta.get("version") != STATE_FORMAT_VERSION:
                continue
            levels = meta.get("last_levels") or {}
            if not levels or max(levels.values()) >= until_level:
                continue
            ranked.append((int(meta.get("steps_completed", 0)), path))
        for _, path in sorted(ranked, reverse=True):
            try:
                return load_state(path)
            except _UNREADABLE:
                continue
        return None


__all__ = ["CheckpointManager", "WARM_KEY_EXCLUDED_FIELDS", "warm_start_key"]
