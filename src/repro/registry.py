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

For deployments whose model population outgrows one registry process, the
module also provides the sharded tier: :class:`ConsistentHashRing` (hash-ring
placement with configurable virtual nodes) and :class:`ShardedModelRegistry`
(N shard registries behind one registry-shaped front, names placed on the
ring so shard add/remove moves only the names that route to the changed
shard).  See ``docs/SERVING.md`` for the routing diagram.
"""

from __future__ import annotations

import hashlib
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.core.serialization import load_model, read_model_header, save_model
from repro.exceptions import (
    InvalidParameterError,
    NotFittedError,
    ServingError,
    UnknownModelError,
)

__all__ = [
    "ModelVersion",
    "ModelRegistry",
    "ConsistentHashRing",
    "ShardedModelRegistry",
]


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

    # -- shard support (used by ShardedModelRegistry) -------------------------------

    def _export_name(self, name: str) -> tuple[dict[int, ModelVersion], int, list[int]]:
        """Snapshot one name's full state: (versions, active version, history)."""
        with self._lock:
            versions = dict(self._require_name(name))
            return versions, self._active[name], list(self._history.get(name, []))

    def _adopt_name(
        self,
        name: str,
        versions: dict[int, ModelVersion],
        active: int,
        history: list[int],
    ) -> None:
        """Install a name's exported state verbatim (shard rebalancing)."""
        with self._lock:
            if name in self._versions:
                raise ServingError(f"cannot adopt {name!r}: already registered here")
            self._versions[name] = dict(versions)
            self._active[name] = active
            self._history[name] = list(history)

    def _drop_name(self, name: str) -> None:
        """Forget a name entirely (its state moved to another shard)."""
        with self._lock:
            self._versions.pop(name, None)
            self._active.pop(name, None)
            self._history.pop(name, None)


class ConsistentHashRing:
    """Consistent-hash placement of string keys onto named nodes.

    Each node is projected onto ``virtual_nodes`` pseudo-random points of a
    hash circle; a key routes to the owner of the first point at or after
    the key's own hash (wrapping around).  The property this buys — and
    what plain ``hash(key) % n_nodes`` cannot — is *minimal movement*:
    adding a node only claims the keys that now route to it (expected
    ``K/N`` of ``K`` keys on ``N`` nodes), and removing a node only
    reassigns the keys it owned; every other key keeps its placement.
    Virtual nodes trade ring size for balance: more points per node
    smooth out the share each node owns.

    Hashing is BLAKE2b over the key text, so placement is deterministic
    across processes and Python versions (no ``PYTHONHASHSEED`` leakage).

    Example::

        ring = ConsistentHashRing(["shard-0", "shard-1"], virtual_nodes=64)
        owner = ring.route("tpcds-model")      # -> "shard-0" or "shard-1"
        ring.add("shard-2")                    # moves ~1/3 of keys, all to shard-2
    """

    def __init__(self, nodes: Iterable[str] = (), *, virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise InvalidParameterError("virtual_nodes must be >= 1")
        self.virtual_nodes = int(virtual_nodes)
        self._lock = threading.Lock()
        self._points: list[tuple[int, str]] = []  # sorted (hash, node)
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")

    def add(self, node: str) -> None:
        """Insert ``node``'s virtual points; re-adding is an error."""
        if not node:
            raise InvalidParameterError("ring node name must be non-empty")
        with self._lock:
            if node in self._nodes:
                raise ServingError(f"ring already contains node {node!r}")
            self._nodes.add(node)
            for replica in range(self.virtual_nodes):
                self._points.append((self._hash(f"{node}#{replica}"), node))
            self._points.sort()

    def remove(self, node: str) -> None:
        """Remove ``node`` and all of its virtual points."""
        with self._lock:
            if node not in self._nodes:
                raise ServingError(f"ring does not contain node {node!r}")
            self._nodes.discard(node)
            self._points = [point for point in self._points if point[1] != node]

    def route(self, key: str) -> str:
        """The node owning ``key``: first ring point at or after the key's hash."""
        with self._lock:
            if not self._points:
                raise ServingError("cannot route on an empty hash ring; add a node first")
            position = bisect_right(self._points, (self._hash(key), ""))
            if position == len(self._points):
                position = 0  # wrap around the circle
            return self._points[position][1]

    def nodes(self) -> list[str]:
        """The ring's member nodes, sorted."""
        with self._lock:
            return sorted(self._nodes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        with self._lock:
            return node in self._nodes


class ShardedModelRegistry:
    """N shard registries behind one registry-shaped front.

    Model names are placed on a :class:`ConsistentHashRing`; every
    name-addressed operation (register, promote, rollback, active, history,
    ...) is forwarded to the owning shard, so callers keep the exact
    :class:`ModelRegistry` calling convention while storage scales
    horizontally.  Shards can be added and removed at runtime with minimal
    key movement: only the names whose ring placement changed migrate
    (their whole state — versions, active pointer, promotion history —
    moves with them).

    Names registered with :meth:`register_replicated` live on *every*
    shard instead: that is the fan-out mode a
    :class:`~repro.serving.sharded.ShardedPredictionServer` uses to spread
    one hot model's request load over per-shard servers.  Mutations of a
    replicated name (register/promote/rollback) apply to all shards.

    Example::

        registry = ShardedModelRegistry(n_shards=2)
        registry.register("tpcds", model)            # lives on route("tpcds")
        registry.active("tpcds") is model            # forwarded transparently
        moved = registry.add_shard("shard-2")        # only re-routed names move
    """

    def __init__(
        self,
        n_shards: int = 2,
        *,
        virtual_nodes: int = 64,
        shard_ids: Iterable[str] | None = None,
    ) -> None:
        if shard_ids is None:
            if n_shards < 1:
                raise InvalidParameterError("n_shards must be >= 1")
            shard_ids = [f"shard-{index}" for index in range(n_shards)]
        shard_ids = list(shard_ids)
        if not shard_ids:
            raise InvalidParameterError("a sharded registry needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise InvalidParameterError(f"duplicate shard ids: {shard_ids}")
        self._lock = threading.RLock()
        self._ring = ConsistentHashRing(shard_ids, virtual_nodes=virtual_nodes)
        self._shards: dict[str, ModelRegistry] = {sid: ModelRegistry() for sid in shard_ids}
        self._replicated: set[str] = set()

    # -- placement ----------------------------------------------------------------

    @property
    def virtual_nodes(self) -> int:
        """Virtual nodes per shard on the placement ring."""
        return self._ring.virtual_nodes

    def route(self, name: str) -> str:
        """The shard id owning ``name`` (ring placement; replicated names too)."""
        return self._ring.route(name)

    def shard(self, shard_id: str) -> ModelRegistry:
        """The :class:`ModelRegistry` behind one shard id."""
        with self._lock:
            registry = self._shards.get(shard_id)
            if registry is None:
                raise ServingError(
                    f"unknown shard {shard_id!r}; shards: {sorted(self._shards)}"
                )
            return registry

    def shard_ids(self) -> list[str]:
        """The registry's shard ids, sorted."""
        with self._lock:
            return sorted(self._shards)

    def shard_map(self) -> dict[str, list[str]]:
        """Routing table: shard id -> sorted names currently stored there."""
        with self._lock:
            return {sid: registry.names() for sid, registry in sorted(self._shards.items())}

    def is_replicated(self, name: str) -> bool:
        """Whether ``name`` was registered on every shard (fan-out mode)."""
        with self._lock:
            return name in self._replicated

    def _owner(self, name: str) -> ModelRegistry:
        with self._lock:
            return self._shards[self._ring.route(name)]

    def _holders(self, name: str) -> list[ModelRegistry]:
        """Every shard registry a mutation of ``name`` must reach."""
        with self._lock:
            if name in self._replicated:
                return [self._shards[sid] for sid in sorted(self._shards)]
            return [self._owner(name)]

    # -- the ModelRegistry surface, forwarded by ring placement ---------------------

    def register(self, name: str, model: Any, **kwargs: Any) -> int:
        """Register on the owning shard (all shards for replicated names)."""
        with self._lock:
            versions = [holder.register(name, model, **kwargs) for holder in self._holders(name)]
            return versions[0]

    def register_replicated(self, name: str, model: Any, **kwargs: Any) -> int:
        """Register ``name`` on *every* shard (request fan-out mode).

        All shards hold identical version numbering for the name; the model
        object itself is shared, so model-side state (e.g. the plan-feature
        cache) stays one instance process-wide.
        """
        with self._lock:
            if name in self._replicated:
                return self.register(name, model, **kwargs)
            if any(name in registry for registry in self._shards.values()):
                raise ServingError(
                    f"model {name!r} is already shard-routed; it cannot become "
                    f"replicated after registration"
                )
            self._replicated.add(name)
            return self.register(name, model, **kwargs)

    def load(self, name: str, path: str | Path, **kwargs: Any) -> int:
        """Register a model file on the owning shard (all shards if replicated)."""
        with self._lock:
            versions = [holder.load(name, path, **kwargs) for holder in self._holders(name)]
            return versions[0]

    def save(self, name: str, path: str | Path, *, version: int | None = None) -> Path:
        """Persist a registered version from the owning shard to ``path``."""
        return self._owner(name).save(name, path, version=version)

    def promote(self, name: str, version: int) -> None:
        """Hot-swap the active version (on every shard for replicated names)."""
        with self._lock:
            for holder in self._holders(name):
                holder.promote(name, version)

    def rollback(self, name: str) -> int:
        """Re-activate the previous version (on every shard for replicated names)."""
        with self._lock:
            versions = [holder.rollback(name) for holder in self._holders(name)]
            return versions[0]

    def get(self, name: str, version: int | None = None) -> ModelVersion:
        """The :class:`ModelVersion` for ``name``, from the owning shard."""
        return self._owner(name).get(name, version)

    def active(self, name: str) -> Any:
        """The active model object for ``name``, from the owning shard."""
        return self._owner(name).active(name)

    def active_version(self, name: str) -> int:
        """The active version number for ``name``, from the owning shard."""
        return self._owner(name).active_version(name)

    def history(self, name: str) -> list[ModelVersion]:
        """The retrain lineage of ``name`` (oldest first), from the owning shard."""
        return self._owner(name).history(name)

    def latest(self, name: str) -> ModelVersion:
        """The most recently registered version of ``name``."""
        return self._owner(name).latest(name)

    def versions(self, name: str) -> list[int]:
        """Every registered version number under ``name``, ascending."""
        return self._owner(name).versions(name)

    def names(self) -> list[str]:
        """Every registered model name across all shards, sorted."""
        with self._lock:
            found: set[str] = set()
            for registry in self._shards.values():
                found.update(registry.names())
            return sorted(found)

    def describe(self) -> dict[str, dict[str, Any]]:
        """Per-name snapshot like :meth:`ModelRegistry.describe`, plus placement."""
        with self._lock:
            description: dict[str, dict[str, Any]] = {}
            for sid in sorted(self._shards):
                for name, entry in self._shards[sid].describe().items():
                    if name in description:  # replicated: one entry is enough
                        continue
                    entry["shard"] = "replicated" if name in self._replicated else sid
                    description[name] = entry
            return description

    def __len__(self) -> int:
        """Distinct registered versions (a replicated version counts once)."""
        with self._lock:
            total = 0
            for name in self.names():
                total += len(self._owner(name).versions(name))
            return total

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return any(name in registry for registry in self._shards.values())

    # -- shard add / remove with minimal key movement -------------------------------

    def add_shard(self, shard_id: str) -> list[str]:
        """Add an empty shard and migrate only the names that re-route to it.

        Returns the sorted names that moved.  Consistent hashing guarantees
        a name either keeps its shard or moves to the new one — no shuffling
        between the pre-existing shards — and the expected number of moved
        names is ``K/N`` for ``K`` names on ``N`` shards after the add.
        Replicated names are copied (shared :class:`ModelVersion` entries)
        onto the new shard instead of moved.
        """
        with self._lock:
            if shard_id in self._shards:
                raise ServingError(f"shard {shard_id!r} already exists")
            placement_before = {name: self._ring.route(name) for name in self.names()}
            self._ring.add(shard_id)
            self._shards[shard_id] = ModelRegistry()
            moved: list[str] = []
            for name, old_shard in placement_before.items():
                if name in self._replicated:
                    versions, active, history = self._shards[old_shard]._export_name(name)
                    self._shards[shard_id]._adopt_name(name, versions, active, history)
                    continue
                new_shard = self._ring.route(name)
                if new_shard != old_shard:
                    self._move(name, old_shard, new_shard)
                    moved.append(name)
            return sorted(moved)

    def remove_shard(self, shard_id: str) -> list[str]:
        """Drain ``shard_id`` and remove it; returns the names that moved.

        Only the removed shard's names migrate (each to the shard now owning
        its ring position); every other name keeps its placement.
        """
        with self._lock:
            if len(self._shards) == 1:
                raise ServingError("cannot remove the last shard of a sharded registry")
            departing = self.shard(shard_id)  # raises on unknown id
            orphaned = [
                name for name in departing.names() if name not in self._replicated
            ]
            self._ring.remove(shard_id)
            for name in orphaned:
                self._move(name, shard_id, self._ring.route(name))
            del self._shards[shard_id]
            return sorted(orphaned)

    def _move(self, name: str, source: str, destination: str) -> None:
        versions, active, history = self._shards[source]._export_name(name)
        self._shards[destination]._adopt_name(name, versions, active, history)
        self._shards[source]._drop_name(name)
