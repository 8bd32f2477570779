"""Seeded, deterministic fault injection.

A corpus of a million files *will* contain inputs that crash a parser,
disks *will* fill mid-write, and sockets *will* reset mid-request.  None
of those conditions appear in a clean CI box, so every failure path in
this repository is exercised through this harness instead: production
code declares **injection sites** (one :func:`FaultInjector.check` call
with a stable name), and tests arm a :class:`FaultPlan` describing which
sites misbehave, how often, and how.

Design constraints:

* **Deterministic.** Whether a given (site, key) pair trips is a pure
  function of the plan's seed — a "10% of files fail to parse" plan
  faults the *same* files on every run, so tests can assert exact
  quarantine contents.
* **Free when disarmed.** The common case is no plan armed; a check is
  one attribute load and a ``None`` test (``tests/test_resilience.py``
  holds it under 5% of a warm ``detect_many`` pass).
* **Serializable.** Plans round-trip through JSON so the CLI can arm
  them (``--fault-plan``) for end-to-end drills.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FAULTS",
    "armed_plan_json",
    "fault_check",
    "sync_armed_plan",
]


class InjectedFault(RuntimeError):
    """The error raised by a tripped ``error``-kind fault."""

    def __init__(self, site: str, key: str = "") -> None:
        suffix = f" (key={key!r})" if key else ""
        super().__init__(f"injected fault at {site}{suffix}")
        self.site = site
        self.key = key


#: Exception classes a spec may raise, by name (JSON-safe).
_RAISES = {
    "fault": InjectedFault,
    "os": OSError,
    "value": ValueError,
    "timeout": TimeoutError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One rule of a fault plan.

    Attributes:
        site: Injection-site name this spec applies to (exact match).
        rate: Fraction of distinct keys that trip, decided by a seeded
            hash of (seed, site, key) — 1.0 trips every check.
        max_trips: Stop tripping after this many firings (``None`` =
            unlimited).  ``max_trips=1`` models a transient blip.
        match: Only keys containing this substring are eligible.
        delay: Seconds to sleep when tripped (latency fault) before
            raising — or instead of raising when ``raises`` is None.
        raises: Exception kind ("fault", "os", "value", "timeout") or
            ``None`` for a delay-only fault.
    """

    site: str
    rate: float = 1.0
    max_trips: int | None = None
    match: str | None = None
    delay: float = 0.0
    raises: str | None = "fault"

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "rate": self.rate,
            "max_trips": self.max_trips,
            "match": self.match,
            "delay": self.delay,
            "raises": self.raises,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultSpec":
        return cls(
            site=data["site"],
            rate=data.get("rate", 1.0),
            max_trips=data.get("max_trips"),
            match=data.get("match"),
            delay=data.get("delay", 0.0),
            raises=data.get("raises", "fault"),
        )


def _hash_fraction(seed: int, site: str, key: str) -> float:
    """Stable point in [0, 1) for a (seed, site, key) triple."""
    digest = hashlib.sha256(f"{seed}:{site}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultPlan:
    """A set of :class:`FaultSpec` rules plus the seed deciding them."""

    def __init__(self, specs: list[FaultSpec] | None = None, seed: int = 0) -> None:
        self.seed = seed
        self.specs: list[FaultSpec] = list(specs or [])
        self._lock = threading.Lock()
        self._trips: dict[int, int] = {}
        self._by_site: dict[str, list[tuple[int, FaultSpec]]] = {}
        for i, spec in enumerate(self.specs):
            self._by_site.setdefault(spec.site, []).append((i, spec))

    # ------------------------------------------------------------------

    def would_trip(self, site: str, key: str = "") -> bool:
        """Whether a check at (site, key) trips, ignoring trip budgets —
        the pure seeded decision, usable by tests to predict outcomes."""
        for _, spec in self._by_site.get(site, ()):
            if spec.match is not None and spec.match not in key:
                continue
            if spec.rate >= 1.0 or _hash_fraction(self.seed, site, key) < spec.rate:
                return True
        return False

    def fire(self, site: str, key: str = "") -> None:
        """Apply the first matching spec: count the trip, sleep the
        delay, raise the configured exception."""
        for index, spec in self._by_site.get(site, ()):
            if spec.match is not None and spec.match not in key:
                continue
            if spec.rate < 1.0 and _hash_fraction(self.seed, site, key) >= spec.rate:
                continue
            with self._lock:
                if spec.max_trips is not None and self._trips.get(index, 0) >= spec.max_trips:
                    continue
                self._trips[index] = self._trips.get(index, 0) + 1
            if spec.delay > 0:
                time.sleep(spec.delay)
            if spec.raises is not None:
                exc_type = _RAISES.get(spec.raises, InjectedFault)
                if exc_type is InjectedFault:
                    raise InjectedFault(site, key)
                raise exc_type(f"injected {spec.raises} fault at {site} (key={key!r})")
            return

    @property
    def total_trips(self) -> int:
        with self._lock:
            return sum(self._trips.values())

    def trips_for(self, site: str) -> int:
        with self._lock:
            return sum(
                self._trips.get(i, 0) for i, _ in self._by_site.get(site, ())
            )

    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"seed": self.seed, "specs": [s.to_json() for s in self.specs]}

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        return cls(
            specs=[FaultSpec.from_json(s) for s in data.get("specs", [])],
            seed=data.get("seed", 0),
        )

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(json.loads(Path(path).read_text()))


class FaultInjector:
    """Holder for the armed plan; every injection site checks it.

    Disarmed (the production state) a check costs one attribute read —
    the plan reference is the only state, swapped atomically under the
    GIL, so checks are lock-free.
    """

    def __init__(self) -> None:
        self._plan: FaultPlan | None = None

    @property
    def plan(self) -> FaultPlan | None:
        return self._plan

    def arm(self, plan: FaultPlan) -> None:
        self._plan = plan

    def disarm(self) -> None:
        self._plan = None

    @contextmanager
    def armed(self, plan: FaultPlan) -> Iterator[FaultPlan]:
        """Arm ``plan`` for the duration of a ``with`` block (tests)."""
        previous = self._plan
        self._plan = plan
        try:
            yield plan
        finally:
            self._plan = previous

    def check(self, site: str, key: str = "") -> None:
        """The injection-site hook; no-op unless a plan is armed."""
        plan = self._plan
        if plan is not None:
            plan.fire(site, key)


#: The process-wide injector all production sites consult.
FAULTS = FaultInjector()

#: Bound method alias: sites call ``fault_check("site.name", key=...)``.
fault_check = FAULTS.check


def armed_plan_json() -> dict | None:
    """The armed plan as JSON (``None`` when disarmed): what a shard
    task carries so :func:`sync_armed_plan` can reproduce it in
    whichever process runs the task."""
    plan = FAULTS.plan
    return plan.to_json() if plan is not None else None


def sync_armed_plan(plan_json: dict | None) -> None:
    """Arm, re-arm or disarm this process's injector to match
    ``plan_json``, the plan that was armed when the task was built.

    Inline tasks and fork-inherited workers usually agree already and
    change nothing; spawned workers, and pools outliving an
    ``armed()`` block, are brought in line.  Seeded (site, key)
    decisions are then identical in and out of process; only
    ``max_trips`` budgets, which are per process, are out of scope.
    """
    current = FAULTS.plan
    if plan_json is None:
        if current is not None:
            FAULTS.disarm()
    elif current is None or current.to_json() != plan_json:
        FAULTS.arm(FaultPlan.from_json(plan_json))
