"""The unified model registry: named/versioned models, hot swap, retrain lineage.

Earlier revisions of this reproduction grew *two* unrelated classes called
``ModelRegistry``: :mod:`repro.serving` had a named/versioned registry with
hot-swap promotion and rollback (what an online server needs), and
:mod:`repro.integration.lifecycle` had a single-lineage list of retrained
versions with their training provenance (what the retrain loop needs).  Every
deployment needs *both* views of the same storage — the version the server
answers with right now, and the history of how that version came to be — so
this module merges them into one subsystem:

* :class:`ModelVersion` — one registered model under a name, carrying both
  registry coordinates (name, version, registration time, source file) and
  retrain lineage (training-record count, validation MAPE, the reason the
  version was created);
* :class:`ModelRegistry` — thread-safe storage of named, versioned models
  with exactly one *active* version per name, promotion and rollback, file
  persistence via :mod:`repro.core.serialization`, and per-name lineage
  queries (:meth:`ModelRegistry.history`, :meth:`ModelRegistry.latest`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.serialization import load_model, read_model_header, save_model
from repro.exceptions import NotFittedError, ServingError, UnknownModelError

__all__ = ["ModelVersion", "ModelRegistry"]


@dataclass
class ModelVersion:
    """One registered model under a name, with its provenance.

    Attributes
    ----------
    name / version:
        Registry coordinates; versions start at 1 and only grow.
    model:
        The predictor object itself.
    registered_at:
        Wall-clock registration time (seconds since the epoch).
    source_path:
        File the model was loaded from, when it came from disk.
    n_training_records:
        How many query-log records the version was trained on (retrain
        lineage; ``None`` when the caller did not say).
    validation_mape:
        MAPE on held-out validation workloads measured at training time
        (``None`` when no validation split was possible).
    reason:
        Why the version was created (``"bootstrap"``, ``"scheduled"``,
        ``"drift"``, ...); ``None`` for plain registrations.
    """

    name: str
    version: int
    model: Any
    registered_at: float = field(default_factory=time.time)
    source_path: Path | None = None
    n_training_records: int | None = None
    validation_mape: float | None = None
    reason: str | None = None

    @property
    def model_class(self) -> str:
        """Class name of the stored model object (for describe/CLI output)."""
        return type(self.model).__name__


class ModelRegistry:
    """Thread-safe registry of named, versioned models with one active version.

    All mutating operations (register, promote, rollback) take the registry
    lock, so concurrent serving threads always observe a consistent active
    version — this is what makes promotion a *hot swap* rather than a
    restart.  Every version additionally carries its retrain lineage
    (:attr:`ModelVersion.n_training_records` / ``validation_mape`` /
    ``reason``), so the registry is also the record of how each name's
    deployed model came to be — what :mod:`repro.integration.lifecycle` used
    to keep in a separate class.

    Example::

        registry = ModelRegistry()
        registry.register("tpcds", model_v1)                 # v1, auto-promoted
        registry.register("tpcds", model_v2, promote=True)   # hot swap to v2
        registry.active("tpcds") is model_v2                 # what a server resolves
        registry.rollback("tpcds")                           # back to v1
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._versions: dict[str, dict[int, ModelVersion]] = {}
        self._active: dict[str, int] = {}
        self._history: dict[str, list[int]] = {}

    # -- registration -------------------------------------------------------------

    def register(
        self,
        name: str,
        model: Any,
        *,
        promote: bool = False,
        version: int | None = None,
        n_training_records: int | None = None,
        validation_mape: float | None = None,
        reason: str | None = None,
    ) -> int:
        """Add ``model`` under ``name`` and return its new version number.

        The first version registered under a name is promoted automatically
        (a service with exactly one model should serve it); later versions
        stay passive unless ``promote=True``.  ``version`` pins an explicit
        version number; re-registering an existing version is rejected, and
        the number must not fall below the next automatic one (versions only
        grow).  The keyword-only lineage fields are stored verbatim on the
        resulting :class:`ModelVersion`.
        """
        if not name:
            raise ServingError("model name must be non-empty")
        with self._lock:
            versions = self._versions.setdefault(name, {})
            next_version = max(versions, default=0) + 1
            if version is None:
                version = next_version
            elif version in versions:
                raise ServingError(
                    f"model {name!r} already has a version {version}; "
                    f"versions are immutable once registered"
                )
            elif version < next_version:
                raise ServingError(
                    f"model {name!r} version numbers only grow; "
                    f"requested {version}, next is {next_version}"
                )
            versions[version] = ModelVersion(
                name=name,
                version=version,
                model=model,
                n_training_records=n_training_records,
                validation_mape=validation_mape,
                reason=reason,
            )
            if promote or name not in self._active:
                self._promote_locked(name, version)
            return version

    def load(
        self,
        name: str,
        path: str | Path,
        *,
        promote: bool = False,
        expected_class: str | None = None,
    ) -> int:
        """Register a model from a file written by ``save_model``.

        ``expected_class`` rejects files holding the wrong model type with a
        clear :class:`~repro.exceptions.SerializationError` before anything
        is unpickled (header-only check for versioned files).
        """
        model = load_model(path, expected_class=expected_class)
        with self._lock:
            version = self.register(name, model, promote=promote)
            self._versions[name][version].source_path = Path(path)
            return version

    def save(self, name: str, path: str | Path, *, version: int | None = None) -> Path:
        """Persist a registered version (default: the active one) to ``path``."""
        entry = self.get(name, version)
        return save_model(entry.model, path)

    # -- promotion / rollback -----------------------------------------------------

    def _promote_locked(self, name: str, version: int) -> None:
        previous = self._active.get(name)
        if previous is not None and previous != version:
            self._history.setdefault(name, []).append(previous)
        self._active[name] = version

    def promote(self, name: str, version: int) -> None:
        """Make ``version`` the active model for ``name`` (hot swap)."""
        with self._lock:
            self._require(name, version)
            self._promote_locked(name, version)

    def rollback(self, name: str) -> int:
        """Re-activate the previously active version and return its number."""
        with self._lock:
            self._require_name(name)
            history = self._history.get(name, [])
            if not history:
                raise ServingError(f"model {name!r} has no previous version to roll back to")
            version = history.pop()
            self._active[name] = version
            return version

    # -- lookup -------------------------------------------------------------------

    def _require_name(self, name: str) -> dict[int, ModelVersion]:
        versions = self._versions.get(name)
        if not versions:
            raise UnknownModelError(
                f"unknown model {name!r}; registered: {sorted(self._versions) or 'none'}"
            )
        return versions

    def _require(self, name: str, version: int) -> ModelVersion:
        versions = self._require_name(name)
        entry = versions.get(version)
        if entry is None:
            raise UnknownModelError(
                f"model {name!r} has no version {version}; available: {sorted(versions)}"
            )
        return entry

    def get(self, name: str, version: int | None = None) -> ModelVersion:
        """The :class:`ModelVersion` for ``name`` (active one when unspecified)."""
        with self._lock:
            if version is None:
                self._require_name(name)
                version = self._active[name]
            return self._require(name, version)

    def active(self, name: str) -> Any:
        """The active model object for ``name`` (the hot path of the server)."""
        return self.get(name).model

    def active_version(self, name: str) -> int:
        """The version number currently active for ``name``."""
        with self._lock:
            self._require_name(name)
            return self._active[name]

    def names(self) -> list[str]:
        """Every registered model name, sorted."""
        with self._lock:
            return sorted(self._versions)

    def versions(self, name: str) -> list[int]:
        """Every registered version number under ``name``, ascending."""
        with self._lock:
            return sorted(self._require_name(name))

    def __len__(self) -> int:
        """Total number of registered versions across every name."""
        with self._lock:
            return sum(len(versions) for versions in self._versions.values())

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._versions

    # -- lineage ------------------------------------------------------------------

    def history(self, name: str) -> list[ModelVersion]:
        """Every version registered under ``name``, oldest first.

        This is the retrain lineage the old lifecycle registry tracked: the
        bootstrap version first, each retrained version after it, with their
        training provenance on the entries.  Unknown names return an empty
        list (a lineage that has not started yet is not an error).
        """
        with self._lock:
            versions = self._versions.get(name, {})
            return [versions[v] for v in sorted(versions)]

    def latest(self, name: str) -> ModelVersion:
        """The most recently registered version under ``name``.

        Raises :class:`~repro.exceptions.NotFittedError` when the lineage is
        empty, mirroring the old lifecycle registry's ``current`` property
        (the caller is expected to bootstrap a model first).
        """
        with self._lock:
            versions = self._versions.get(name)
            if not versions:
                raise NotFittedError(
                    f"no versions registered under {name!r}; bootstrap a model first"
                )
            return versions[max(versions)]

    # -- introspection ------------------------------------------------------------

    def describe(self) -> dict[str, dict[str, Any]]:
        """A JSON-friendly snapshot used by the CLI and telemetry output."""
        with self._lock:
            return {
                name: {
                    "active_version": self._active[name],
                    "versions": {
                        version: {
                            "model_class": entry.model_class,
                            "registered_at": entry.registered_at,
                            "source_path": str(entry.source_path) if entry.source_path else None,
                            "n_training_records": entry.n_training_records,
                            "validation_mape": entry.validation_mape,
                            "reason": entry.reason,
                        }
                        for version, entry in sorted(versions.items())
                    },
                }
                for name, versions in self._versions.items()
            }

    @staticmethod
    def inspect_file(path: str | Path) -> dict[str, Any] | None:
        """The serialization header of a model file (no unpickling)."""
        return read_model_header(path)
