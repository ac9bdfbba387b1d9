"""SLO accounting: per-op latency objectives and error-budget burn.

A latency histogram says what latencies *were*; an SLO says what they
were *supposed to be*.  :class:`SLORecorder` turns every served request
into budget arithmetic against a per-op objective:

* a request **breaches** when it errors or exceeds its op's latency
  objective;
* with an availability target of ``target`` (default 99%), the error
  budget is the ``1 - target`` fraction of requests allowed to breach;
* the **burn rate** is the observed breach fraction divided by that
  budget — ``1.0`` means breaching exactly as fast as the budget
  allows, ``> 1`` means the budget runs out early.

Everything is exported through the shared registry
(``slo_requests_total`` / ``slo_breaches_total`` counters and
``slo_burn_rate`` / ``slo_objective_seconds`` gauges, all labeled by
``op``), so SLO state rides the same scrape/merge path as every other
metric and ``repro fleet-status`` can show per-shard burn.  The serve
layer calls :meth:`record` once per request, where
``LineProtocolServer`` dispatches it, which covers the plain server,
shard workers and the coordinator alike; ops without an
objective (``health``, ``metrics``...) are ignored.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .metrics import MetricsRegistry

__all__ = ["DEFAULT_OBJECTIVES", "SLORecorder", "default_objectives"]

#: Default per-op latency objectives, in seconds.  Query ops get tight
#: objectives (they are the product); maintenance ops get lenient ones.
DEFAULT_OBJECTIVES: Mapping[str, float] = {
    "nwc": 0.25,
    "knwc": 1.0,
    "knwc_pool": 1.0,
    "insert": 0.25,
    "delete": 0.25,
    "snapshot": 5.0,
    "checkpoint": 5.0,
}

#: Objective applied to latency-tracked ops absent from the defaults.
_FALLBACK_OBJECTIVE_S = 1.0


def default_objectives(ops: Iterable[str]) -> dict[str, float]:
    """Objectives for ``ops``, from :data:`DEFAULT_OBJECTIVES` with a
    1-second fallback for unlisted ops."""
    return {op: DEFAULT_OBJECTIVES.get(op, _FALLBACK_OBJECTIVE_S) for op in ops}


class SLORecorder:
    """Tracks per-op request/breach counts and burn rate.

    Args:
        registry: Shared metrics registry the counters live in.
        objectives: Mapping of op name to latency objective in seconds;
            ops outside this mapping are not accounted.
        target: Availability target in ``(0, 1)``; the error budget is
            ``1 - target``.
    """

    def __init__(self, registry: MetricsRegistry,
                 objectives: Mapping[str, float],
                 target: float = 0.99) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError("SLO target must be in (0, 1)")
        for op, objective in objectives.items():
            if objective <= 0:
                raise ValueError(f"objective for {op!r} must be positive")
        self.target = target
        self.budget = 1.0 - target
        self.objectives = dict(objectives)
        self._requests = {}
        self._breaches = {}
        self._burn = {}
        for op, objective in self.objectives.items():
            labels = {"op": op}
            self._requests[op] = registry.counter(
                "slo_requests_total", "Requests accounted against an SLO",
                labels)
            self._breaches[op] = registry.counter(
                "slo_breaches_total",
                "Requests that errored or missed their latency objective",
                labels)
            self._burn[op] = registry.gauge(
                "slo_burn_rate",
                "Breach fraction divided by the error budget (1.0 = on budget)",
                labels)
            registry.gauge(
                "slo_objective_seconds", "Per-op latency objective",
                labels).set(objective)

    def record(self, op: str, seconds: float, error: bool = False) -> None:
        """Account one request; ops without an objective are ignored."""
        objective = self.objectives.get(op)
        if objective is None:
            return
        requests = self._requests[op]
        requests.inc()
        breaches = self._breaches[op]
        if error or seconds > objective:
            breaches.inc()
        self._burn[op].set(
            (breaches.value / requests.value) / self.budget)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-op ``{objective_s, requests, breaches, burn_rate}``."""
        out = {}
        for op, objective in sorted(self.objectives.items()):
            requests = self._requests[op].value
            breaches = self._breaches[op].value
            out[op] = {
                "objective_s": objective,
                "requests": requests,
                "breaches": breaches,
                "burn_rate": self._burn[op].value,
            }
        return out
