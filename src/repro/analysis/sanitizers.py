"""Runtime sanitizers: machine-checked invariants for live simulations.

A :class:`SanitizerContext` rides on a :class:`~repro.sim.engine.Simulator`
built with ``sanitize=True`` (or a ``--sanitize`` CLI run).  Components
discover it via ``sim.sanitizer`` and register themselves; the engine calls
:meth:`SanitizerContext.at_quiesce` once the event queue drains cleanly.

Five sanitizers ship:

* :class:`EventOrderSanitizer` — no event scheduled in the past, and the
  heap pops monotonically non-decreasing timestamps (catches components
  that poke ``sim._queue`` directly).
* :class:`ConservationSanitizer` — NoC byte conservation: every message
  sent is delivered by quiesce, and each link's traffic counters match an
  independently-kept shadow ledger.
* :class:`BufferLeakSanitizer` — every finite buffer is drained when the
  simulation ends.
* :class:`RaceSanitizer` (``sanitize="races"``) — shadows attribute
  access on simulated component state while events run, and flags any
  same-cycle pair of events whose write-write or read-write conflict on
  one ``(object, field)`` is ordered only by insertion ``seq``.
* :func:`check_determinism` — dual-runs a config and compares result
  digests, the invariant the exec-layer disk cache depends on.

Violations raise typed errors from :mod:`repro.errors`
(:class:`~repro.errors.EventOrderError`,
:class:`~repro.errors.ConservationError`,
:class:`~repro.errors.BufferLeakError`,
:class:`~repro.errors.OrderRaceError`,
:class:`~repro.errors.DeterminismError`), all subclasses of
:class:`~repro.errors.SanitizerError`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    BufferLeakError,
    ConservationError,
    DeterminismError,
    EventOrderError,
    OrderRaceError,
    SimulationError,
)

Coordinate = Tuple[int, int]
LinkKey = Tuple[Coordinate, Coordinate]


class EventOrderSanitizer:
    """Causality checks on the simulator's event heap."""

    __slots__ = ("last_popped", "events_checked", "schedules_checked")

    def __init__(self) -> None:
        self.last_popped = 0
        self.events_checked = 0
        self.schedules_checked = 0

    def on_schedule(self, time: int, now: int) -> None:
        """Called before every queue insert.

        Validates before counting: a rejected schedule must leave the
        sanitizer's state untouched (the engine also validates first, so
        a raise here is a second line of defence for direct callers).
        """
        if time < now:
            raise EventOrderError(
                f"event scheduled in the past: target cycle {time} < "
                f"current cycle {now}"
            )
        self.schedules_checked += 1

    def on_pop(self, time: int) -> None:
        """Called after every single-event pop, before the callback fires."""
        self.events_checked += 1
        self._check_monotonic(time)

    def on_batch_start(self, time: int) -> None:
        """Called once before a cycle slot is dispatched.

        All events in a batch share one timestamp, so one monotonicity
        check covers them; :meth:`on_batch_end` keeps the checked-event
        count identical to the per-event accounting.
        """
        self._check_monotonic(time)

    def on_batch_end(self, count: int) -> None:
        """Called once after a cycle slot drained ``count`` events."""
        self.events_checked += count

    def _check_monotonic(self, time: int) -> None:
        if time < self.last_popped:
            raise EventOrderError(
                f"event heap lost monotonicity: popped cycle {time} after "
                f"already processing cycle {self.last_popped} (was the heap "
                f"mutated without heapq?)"
            )
        self.last_popped = time


class ConservationSanitizer:
    """Shadow ledger for one mesh network's traffic accounting.

    The network reports every hop (:meth:`on_hop`) and send/delivery pair
    (:meth:`on_send` / :meth:`deliver`); :meth:`check` at quiesce asserts
    that nothing is still in flight and that each link's own byte counter
    matches the ledger — a drift means some code path bumped link counters
    out of band (the silent-miscount failure mode of traffic figures).
    """

    def __init__(self, network: Any) -> None:
        self.network = network
        self.shadow_link_bytes: Dict[LinkKey, int] = {}
        #: Serialisation cycles as the network actually charged them at
        #: transmit time.  Recomputing from bytes at quiesce would
        #: false-positive under fail-slow: a link's bandwidth factor can
        #: change between two messages, so only the charged value is true.
        self.shadow_link_busy: Dict[LinkKey, int] = {}
        self.sent = 0
        self.delivered = 0
        #: Messages intentionally destroyed by fault injection.  The
        #: network declares each drop (:meth:`on_drop`), so a fault-plan
        #: drop balances the ledger while an *accidental* lost message
        #: still trips the in-flight check.
        self.dropped = 0

    # -- recording hooks (hot path, called by MeshNetwork) -------------
    def on_send(self) -> None:
        self.sent += 1

    def on_drop(self) -> None:
        self.dropped += 1

    def on_hop(
        self, key: LinkKey, size_bytes: int, serialization_cycles: int = 0
    ) -> None:
        self.shadow_link_bytes[key] = (
            self.shadow_link_bytes.get(key, 0) + size_bytes
        )
        self.shadow_link_busy[key] = (
            self.shadow_link_busy.get(key, 0) + serialization_cycles
        )

    def deliver(self, handler: Callable[[Any], None], message: Any) -> None:
        """Delivery shim: count the arrival, then run the real handler."""
        self.delivered += 1
        handler(message)

    # -- quiesce check -------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self.sent - self.delivered - self.dropped

    def check(self) -> None:
        if self.in_flight != 0:
            raise ConservationError(
                f"{self.network.name}: {self.in_flight} message(s) still in "
                f"flight at quiesce ({self.sent} sent, "
                f"{self.delivered} delivered, "
                f"{self.dropped} dropped by fault injection)"
            )
        for key, link in self.network._links.items():
            expected = self.shadow_link_bytes.get(key, 0)
            if link.bytes_carried != expected:
                raise ConservationError(
                    f"{self.network.name}: link {key[0]}->{key[1]} carries "
                    f"{link.bytes_carried} bytes but the shadow ledger "
                    f"injected {expected} — link accounting drifted"
                )
            expected_busy = self.shadow_link_busy.get(key, 0)
            if link.busy_cycles != expected_busy:
                raise ConservationError(
                    f"{self.network.name}: link {key[0]}->{key[1]} charged "
                    f"{link.busy_cycles} busy cycles but the shadow ledger "
                    f"saw {expected_busy} — serialisation accounting "
                    f"drifted (mid-transfer bandwidth change?)"
                )
        # Every ledger entry must have a matching link object.
        missing = set(self.shadow_link_bytes) - set(self.network._links)
        if missing:
            raise ConservationError(
                f"{self.network.name}: ledger has traffic on links the "
                f"network never created: {sorted(missing)}"
            )


class BufferLeakSanitizer:
    """Asserts all watched finite buffers are empty at quiesce."""

    def __init__(self) -> None:
        self._buffers: List[Any] = []

    def watch(self, buffer: Any) -> None:
        self._buffers.append(buffer)

    @property
    def watched(self) -> int:
        return len(self._buffers)

    def check(self) -> None:
        leaked = [
            (buffer.name, len(buffer))
            for buffer in self._buffers
            if len(buffer) > 0
        ]
        if leaked:
            detail = ", ".join(f"{name} holds {count}" for name, count in leaked)
            raise BufferLeakError(
                f"{len(leaked)} buffer(s) not drained at quiesce: {detail}"
            )


# ----------------------------------------------------------------------
# Same-cycle race detection (the dynamic half of repro.analysis.races)
# ----------------------------------------------------------------------
#: Known-benign racy fields: ``(class name, field)`` → justification.
#: Same-cycle conflicts on these are counted but never reported.  Every
#: entry must explain why seq-order independence holds (commutative
#: update, idempotent lazy construction) or why the seq order *is* the
#: modelled semantics (arbitration points that any alternative scheduler
#: must replicate, scripted fault-timeline application).  The registry
#: doubles as the work-list for parallel in-cycle dispatch: the
#: "arbitration" entries are exactly the serialisation points a parallel
#: scheduler would have to re-serialise.
_COMMUTATIVE = "commutative += counter; any same-cycle order sums the same"
_ARBITRATION = (
    "arbitration clock: insertion seq is the modelled same-cycle "
    "arrival order (FCFS); an alternative scheduler must replicate it"
)
_LAZY_INIT = (
    "written only by deterministic lazy construction on first touch; "
    "every construction order yields an identical object"
)
_TIMELINE = (
    "written by scripted fault-timeline events; their in-cycle position "
    "is part of the plan semantics (documented in docs/ROBUSTNESS.md)"
)
BENIGN_RACE_FIELDS: Dict[Tuple[str, str], str] = {
    # -- commutative counters -----------------------------------------
    ("MeshNetwork", "messages_sent"): _COMMUTATIVE,
    ("MeshNetwork", "messages_routed"): _COMMUTATIVE,
    ("MeshNetwork", "total_hops"): _COMMUTATIVE,
    ("Link", "bytes_carried"): _COMMUTATIVE,
    ("Link", "translation_bytes"): _COMMUTATIVE,
    ("Link", "messages_carried"): _COMMUTATIVE,
    ("Link", "busy_cycles"): _COMMUTATIVE,
    ("Link", "total_wait_cycles"): _COMMUTATIVE,
    ("WalkerPool", "completed"): _COMMUTATIVE,
    ("WalkerPool", "total_queue_delay"): _COMMUTATIVE,
    ("WalkerPool", "total_service_time"): _COMMUTATIVE,
    ("SetAssociativeTLB", "hits"): _COMMUTATIVE,
    ("SetAssociativeTLB", "misses"): _COMMUTATIVE,
    ("SetAssociativeTLB", "evictions"): _COMMUTATIVE,
    ("IOMMU", "prefetch_pushed"): _COMMUTATIVE,
    ("GPM", "rtt_sum"): _COMMUTATIVE,
    ("GPM", "rtt_count"): _COMMUTATIVE,
    ("FiniteBuffer", "_area"): (
        "occupancy-time integral; same-cycle segments have zero width, "
        "so any in-cycle push/pop order integrates identically"
    ),
    # -- arbitration points (seq order is the model) -------------------
    ("Link", "busy_until"): _ARBITRATION,
    ("Link", "last_serialization"): _ARBITRATION,
    ("GPM", "_probe_port_busy"): _ARBITRATION,
    ("WalkerPool", "busy_walkers"): _ARBITRATION,
    ("WalkerPool", "_queue"): _ARBITRATION,
    ("FiniteBuffer", "peak_occupancy"): _ARBITRATION,
    ("FiniteBuffer", "_last_change"): _ARBITRATION,
    ("MigrationEngine", "_next_pfn"): (
        "single-engine frame allocation; seq is the modelled request "
        "order, identical to the serial migration queue"
    ),
    ("MigrationEngine", "_cooldown_until"): _ARBITRATION,
    ("MigrationEngine", "_walks"): _ARBITRATION,
    # -- deterministic lazy construction / memoization -----------------
    ("Link", "latency"): _LAZY_INIT,
    ("Link", "_ser_cache"): (
        "pure memo cache: same size -> same serialisation cycles, so "
        "populate order cannot change any computed value"
    ),
    ("MigrationEngine", "config"): _LAZY_INIT,
    ("MigrationEngine", "wafer"): _LAZY_INIT,
    ("MigrationEngine", "stats"): _LAZY_INIT,
    ("MigrationEngine", "migration_stats"): _LAZY_INIT,
    ("RecoveryManager", "_migration"): _LAZY_INIT,
    # -- scripted fault-timeline application ---------------------------
    ("FaultState", "topology_epoch"): _TIMELINE,
    ("FaultState", "live_gpm_ids"): _TIMELINE,
    ("Link", "_bandwidth_factor"): _TIMELINE,
}

#: Callbacks whose *reads* never constitute a race: read-only observers
#: (metric samplers) whose outputs land in ``RunResult.extras`` only,
#: never in determinism digests.  Matched against the callback qualname.
OBSERVER_CALLBACKS = frozenset({
    "PeriodicSampler._tick",
})

#: The single armed RaceSanitizer; the patched ``__getattribute__`` /
#: ``__setattr__`` hooks below read it once per access.  Class-level
#: patching is process-global, so at most one sanitizer can be armed.
_ACTIVE_RACES: Optional["RaceSanitizer"] = None

#: Per-class cache of attribute names the read hook ignores: methods,
#: properties and dunders (state never lives there), plus the ``sim`` /
#: ``name`` wiring attributes, which are written once at construction.
_SKIP_ATTR_CACHE: Dict[type, frozenset] = {}


def _skipped_attrs(cls: type) -> frozenset:
    names = {"sim", "name"}
    for klass in cls.__mro__:
        for attr, value in vars(klass).items():
            if (
                attr.startswith("__")
                or callable(value)
                or isinstance(value, (property, classmethod, staticmethod))
            ):
                names.add(attr)
    skip = frozenset(names)
    _SKIP_ATTR_CACHE[cls] = skip
    return skip


def _race_getattribute(self: Any, name: str) -> Any:
    value = object.__getattribute__(self, name)
    races = _ACTIVE_RACES
    if races is not None and races._event is not None:
        cls = type(self)
        skip = _SKIP_ATTR_CACHE.get(cls)
        if skip is None:
            skip = _skipped_attrs(cls)
        if name not in skip:
            races._note(self, name, False)
    return value


def _race_setattr(self: Any, name: str, value: Any) -> None:
    races = _ACTIVE_RACES
    if races is not None and races._event is not None:
        races._note(self, name, True)
    object.__setattr__(self, name, value)


def _shadowed_classes() -> Tuple[type, ...]:
    """The class roots whose instances carry simulated per-cycle state.

    ``Component`` covers GPMs, the IOMMU and its walker pools, finite
    buffers, the mesh network, the migration engine and the recovery
    manager; the rest are hot plain classes reachable from them.
    """
    from repro.faults.state import FaultState
    from repro.noc.link import Link
    from repro.sim.component import Component
    from repro.tlb.hierarchy import TranslationHierarchy
    from repro.tlb.mshr import MSHRFile
    from repro.tlb.tlb import SetAssociativeTLB

    return (
        Component,
        Link,
        SetAssociativeTLB,
        MSHRFile,
        TranslationHierarchy,
        FaultState,
    )


class RaceSanitizer:
    """Detects same-cycle order-dependent state conflicts between events.

    While armed, every attribute read/write on a shadowed object that
    happens *inside a dispatched event* is recorded into a per-cycle
    access log keyed ``(object, field)``.  At cycle close the log is
    scanned: a field written by two distinct events (write-write), or
    written by one and read by another (read-write), is a conflict —
    the events share a timestamp, so their relative order is fixed only
    by the scheduler's insertion ``seq``, and any alternative in-cycle
    dispatch order could change the outcome.

    In raise mode (the default) the first conflict raises
    :class:`~repro.errors.OrderRaceError` with both events' provenance;
    in report mode findings are deduplicated by ``(class, field, kind,
    provenance)`` and accumulated for the JSON sanitizer report.
    """

    def __init__(self, report_mode: bool = False) -> None:
        self.report_mode = report_mode
        self.benign: Dict[Tuple[str, str], str] = dict(BENIGN_RACE_FIELDS)
        self.observers = frozenset(OBSERVER_CALLBACKS)
        self.armed = False
        self._saved: List[Tuple[type, Any, Any]] = []
        self._cycle: Optional[int] = None
        #: Index of the event currently executing, or None between events.
        self._event: Optional[int] = None
        #: Callback objects dispatched this cycle, in seq order.
        self._events: List[Any] = []
        #: ``(id(obj), field) -> (obj, field, readers, writers)`` where
        #: readers/writers are insertion-ordered dicts of event indices.
        self._log: Dict[
            Tuple[int, str], Tuple[Any, str, Dict[int, None], Dict[int, None]]
        ] = {}
        self.cycles_checked = 0
        self.accesses_recorded = 0
        self.conflicts_found = 0
        self.benign_suppressed = 0
        self.findings: List[Dict[str, Any]] = []
        self._finding_keys: set = set()

    # -- arming (class-level attribute hooks) --------------------------
    def arm(self) -> None:
        """Install the attribute hooks on the shadowed class roots."""
        global _ACTIVE_RACES
        if self.armed:
            return
        if _ACTIVE_RACES is not None:
            raise SimulationError(
                "another RaceSanitizer is already armed; the attribute "
                "hooks are process-global, so only one simulator may run "
                "with sanitize='races' at a time"
            )
        self._saved = []
        for cls in _shadowed_classes():
            self._saved.append((
                cls,
                cls.__dict__.get("__getattribute__"),
                cls.__dict__.get("__setattr__"),
            ))
            cls.__getattribute__ = _race_getattribute  # type: ignore[method-assign, assignment]
            cls.__setattr__ = _race_setattr  # type: ignore[method-assign, assignment]
        _ACTIVE_RACES = self
        self.armed = True

    def disarm(self) -> None:
        """Restore the original class attributes.  Never raises."""
        global _ACTIVE_RACES
        if not self.armed:
            return
        for cls, saved_get, saved_set in self._saved:
            if saved_get is None:
                del cls.__getattribute__
            else:  # pragma: no cover - no shadowed class defines its own
                cls.__getattribute__ = saved_get  # type: ignore[method-assign]
            if saved_set is None:
                del cls.__setattr__
            else:  # pragma: no cover - no shadowed class defines its own
                cls.__setattr__ = saved_set  # type: ignore[method-assign]
        self._saved = []
        self._event = None
        self.armed = False
        _ACTIVE_RACES = None

    # -- recording hooks (called by the engine dispatch loop) ----------
    def begin_cycle(self, time: int) -> None:
        """Open ``time``; closes (and analyzes) a different pending cycle."""
        if self._cycle is not None and time != self._cycle:
            self._analyze()
        self._cycle = time

    def begin_event(self, callback: Any) -> None:
        self._events.append(callback)
        self._event = len(self._events) - 1

    def end_event(self) -> None:
        self._event = None

    def end_cycle(self) -> None:
        """Close the current cycle: scan the log, then reset it."""
        if self._cycle is not None:
            self._analyze()
            self._cycle = None

    def flush(self) -> None:
        """Analyze any pending cycle (the step-mode tail); may raise."""
        self.end_cycle()

    def _note(self, obj: Any, name: str, is_write: bool) -> None:
        key = (id(obj), name)
        entry = self._log.get(key)
        if entry is None:
            entry = self._log[key] = (obj, name, {}, {})
        entry[3 if is_write else 2][self._event] = None  # type: ignore[index]
        self.accesses_recorded += 1

    # -- analysis ------------------------------------------------------
    def _label(self, index: int) -> str:
        callback = self._events[index]
        label = getattr(callback, "__qualname__", None)
        if not label:
            label = type(callback).__name__
        return str(label)

    def _analyze(self) -> None:
        self.cycles_checked += 1
        log = self._log
        try:
            for obj, field, readers, writers in log.values():
                if not writers:
                    continue
                if len(writers) > 1:
                    kind = "write-write"
                    first, second = tuple(writers)[:2]
                else:
                    writer = next(iter(writers))
                    other = [
                        index for index in readers
                        if index != writer
                        and self._label(index) not in self.observers
                    ]
                    if not other:
                        if any(i != writer for i in readers):
                            # Only read-only observers saw the write race;
                            # their outputs never enter determinism digests.
                            self.benign_suppressed += 1
                        continue
                    kind = "read-write"
                    first, second = writer, other[0]
                class_name = type(obj).__name__
                reason = self.benign.get((class_name, field))
                if reason is not None:
                    self.benign_suppressed += 1
                    continue
                self._report_conflict(obj, field, kind, first, second)
        finally:
            log.clear()
            del self._events[:]
            self._event = None

    def _report_conflict(
        self, obj: Any, field: str, kind: str, first: int, second: int
    ) -> None:
        class_name = type(obj).__name__
        try:
            object_name = str(object.__getattribute__(obj, "name"))
        except AttributeError:
            object_name = class_name
        label_first = self._label(first)
        label_second = self._label(second)
        self.conflicts_found += 1
        key = (class_name, field, kind, label_first, label_second)
        if self.report_mode:
            if key not in self._finding_keys:
                self._finding_keys.add(key)
                self.findings.append({
                    "class": class_name,
                    "object": object_name,
                    "field": field,
                    "kind": kind,
                    "cycle": self._cycle,
                    "events": [
                        {"seq": first, "callback": label_first},
                        {"seq": second, "callback": label_second},
                    ],
                })
            return
        verb = "both wrote" if kind == "write-write" else (
            "one wrote while the other read"
        )
        raise OrderRaceError(
            f"same-cycle {kind} race on {class_name}({object_name})."
            f"{field} at cycle {self._cycle}: event #{first} "
            f"({label_first}) and event #{second} ({label_second}) — "
            f"{verb}; their relative order is fixed only by insertion "
            f"seq, so any alternative in-cycle dispatch could change the "
            f"result.  Fix the callbacks, or justify the pair in "
            f"BENIGN_RACE_FIELDS / the race baseline."
        )

    def report(self) -> Dict[str, object]:
        return {
            "report_mode": self.report_mode,
            "cycles_checked": self.cycles_checked,
            "accesses_recorded": self.accesses_recorded,
            "conflicts": self.conflicts_found,
            "benign_suppressed": self.benign_suppressed,
            "findings": list(self.findings),
        }


class SanitizerContext:
    """The per-simulator bundle of sanitizers and their quiesce report."""

    def __init__(self, races: Optional[str] = None) -> None:
        self.event_order = EventOrderSanitizer()
        self.buffer_leak = BufferLeakSanitizer()
        self.conservation: List[ConservationSanitizer] = []
        #: Armed only for ``sanitize="races"`` runs: ``races`` is None
        #: (off), ``"raise"`` or ``"report"``.
        self.races: Optional[RaceSanitizer] = None
        if races is not None:
            self.races = RaceSanitizer(report_mode=(races == "report"))
        self.quiesce_checks_run = 0

    # -- registration (called by components at construction) -----------
    def watch_buffer(self, buffer: Any) -> None:
        self.buffer_leak.watch(buffer)

    def watch_network(self, network: Any) -> ConservationSanitizer:
        sanitizer = ConservationSanitizer(network)
        self.conservation.append(sanitizer)
        return sanitizer

    # -- quiesce -------------------------------------------------------
    def at_quiesce(self) -> None:
        """Run end-of-simulation checks; raises on the first violation."""
        self.quiesce_checks_run += 1
        if self.races is not None:
            self.races.flush()
        for sanitizer in self.conservation:
            sanitizer.check()
        self.buffer_leak.check()

    def report(self) -> Dict[str, object]:
        """Machine-readable summary: what was checked, all clean."""
        races_report = (
            self.races.report() if self.races is not None else None
        )
        return {
            "events_checked": self.event_order.events_checked,
            "schedules_checked": self.event_order.schedules_checked,
            "buffers_watched": self.buffer_leak.watched,
            "networks_watched": len(self.conservation),
            "messages_delivered": sum(
                s.delivered for s in self.conservation
            ),
            "messages_dropped": sum(
                s.dropped for s in self.conservation
            ),
            "quiesce_checks_run": self.quiesce_checks_run,
            "races": races_report,
            # A raise-mode violation raises; reaching here means clean
            # apart from report-mode race findings, counted explicitly.
            "violations": (
                len(races_report["findings"]) if races_report else 0  # type: ignore[arg-type]
            ),
        }


# ----------------------------------------------------------------------
# Determinism: dual-run digest comparison
# ----------------------------------------------------------------------
def result_digest(result: Any) -> str:
    """Canonical sha256 over a RunResult (or plain dict) summary.

    Uses sorted-key JSON of ``to_dict()`` so the digest is byte-stable
    across processes — the same canonical form the exec-layer disk cache
    serialises.
    """
    data = result.to_dict() if hasattr(result, "to_dict") else result
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_determinism(
    config: Any,
    workload: str,
    scale: float = 0.05,
    seed: Optional[int] = None,
    max_cycles: Optional[int] = None,
    run_fn: Optional[Callable[..., Any]] = None,
) -> str:
    """Run ``workload`` on ``config`` twice; return the common digest.

    Raises :class:`~repro.errors.DeterminismError` when the two runs'
    digests differ — the invariant that lets "same config + seed" results
    be served from the content-addressed disk cache.  ``run_fn`` is
    injectable for tests; it defaults to
    :func:`repro.system.runner.run_benchmark`.
    """
    if run_fn is None:
        from repro.system.runner import run_benchmark

        run_fn = run_benchmark
    digests = []
    for _attempt in range(2):
        result = run_fn(
            config, workload, scale=scale, seed=seed, max_cycles=max_cycles
        )
        digests.append(result_digest(result))
    if digests[0] != digests[1]:
        raise DeterminismError(
            f"two runs of {workload!r} with the same config and seed "
            f"diverged: {digests[0][:16]}... vs {digests[1][:16]}..."
        )
    return digests[0]
