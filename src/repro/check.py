"""What a correct served answer and a correct pushed frame are.

An NWC or kNWC answer depends only on the object set and the query
(the paper's Definitions 1-2, ranked by the one answer order), so every
response a server sends can be checked against a :class:`Twin`: an
engine the caller builds the way the server builds its own, to which
exactly the acknowledged updates are applied.  The twin keys its
answers by the dataset version each ack carries, never by a counter of
its own: a torn fleet write moves the coordinator's version without an
ack, and a frame at such a version matches nothing.

The rules, each stated once here:

* a served ``result`` equals the twin's serialized answer; its node
  accesses equal the twin's only on an uncached answer from a single
  engine (a cache hit searched nothing, a fleet sums its shards'
  searches);
* a ``subscribe`` ack carries the twin's answer;
* a delete the server reports as not found is not an object the twin
  holds;
* a pushed frame has revision = previous + 1, a result different from
  the previous one, and a result equal to the twin's answer at the
  frame's ``version``;
* at the end, either the frames were exactly the answer changes (a run
  without injected faults), or at least the last frame is the final
  answer (a run whose faults may coalesce pushes).

A broken rule is counted in :attr:`Twin.faults` under its name and the
first few are kept in :attr:`Twin.examples`; nothing raises, so a load
run reports every fault it saw.  ``bench/verify.py`` is the
benchmark's own twin and deliberately does not use this module: it must
stay independent of the program it measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .core import KNWCQuery
from .serve import protocol

__all__ = ["VOLATILE", "Standing", "Twin"]

#: Response fields that say how an answer was served, not what it is
#: (a cache hit, the version read, the correlation id, a fleet's shard
#: metadata).  No twin predicts them; a fault example carries them.
VOLATILE = ("cached", "version", "id", "shards")

#: The frame rules, and the end-of-run delivery rules.
_SPURIOUS = ("unknown", "revision", "repeat", "version", "extra")
_MISSED = ("missed", "unconverged")

#: Fault examples kept verbatim; later faults are only counted.
MAX_EXAMPLES = 10


@dataclass(slots=True)
class Standing:
    """One subscription as the twin follows it: the fresh ``answers``
    at every acked version since registration, the latest ``answer``
    and the ``revision`` it reached (the ack's, plus one per change),
    beside the last revision and result the server ``delivered``."""

    query: Any
    answers: dict[int, dict[str, Any]]
    answer: dict[str, Any]
    revision: int
    delivered_revision: int
    delivered: dict[str, Any]

    def observe(self, version: int, answer: dict[str, Any]) -> None:
        self.answers[version] = answer
        if answer != self.answer:
            self.answer = answer
            self.revision += 1


@dataclass
class Twin:
    """A reference ``engine`` replaying the acknowledged updates, the
    served answers it ``checked``, the ``faults`` it found and the
    subscriptions it follows (``subs``)."""

    engine: Any
    checked: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    examples: list[dict[str, Any]] = field(default_factory=list)
    subs: dict[str, Standing] = field(default_factory=dict)

    @property
    def mismatches(self) -> int:
        return sum(self.faults.values())

    @property
    def spurious(self) -> int:
        return sum(self.faults.get(rule, 0) for rule in _SPURIOUS)

    @property
    def missed(self) -> int:
        return sum(self.faults.get(rule, 0) for rule in _MISSED)

    def _fault(self, rule: str, count: int = 1, **detail: Any) -> bool:
        self.faults[rule] = self.faults.get(rule, 0) + count
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append({"rule": rule, **detail})
        return False

    def answer(self, query: Any) -> tuple[dict[str, Any], int]:
        """The serialized answer to ``query`` and its node accesses."""
        if isinstance(query, KNWCQuery):
            result = self.engine.knwc(query)
            return protocol.serialize_knwc(result), result.node_accesses
        result = self.engine.nwc(query)
        return protocol.serialize_nwc(result), result.node_accesses

    def check_answer(self, query: Any, response: dict[str, Any]) -> bool:
        """A served answer to ``query``."""
        self.checked += 1
        expected, accesses = self.answer(query)
        served = {key: response.get(key) for key in VOLATILE}
        if response.get("result") != expected:
            return self._fault("result", query=repr(query), **served,
                               served_result=response.get("result"),
                               expected=expected)
        if response.get("cached") or "shards" in response:
            return True
        node_accesses = response.get("stats", {}).get("node_accesses")
        if node_accesses != accesses:
            return self._fault("node_accesses", query=repr(query), **served,
                               node_accesses=[node_accesses, accesses])
        return True

    def apply(self, op: str, obj: Any, version: int) -> bool:
        """Apply an update that left the dataset at ``version`` and
        follow every subscription there; returns whether the twin held
        ``obj`` (an insert always does)."""
        if op == "insert":
            self.engine.insert(obj)
            held = True
        else:
            held = bool(self.engine.delete(obj))
        for standing in self.subs.values():
            standing.observe(version, self.answer(standing.query)[0])
        return held

    def check_update(self, op: str, obj: Any, ack: dict[str, Any]) -> bool:
        """An acknowledged ``insert``/``delete``, applied at the version
        its ``ack`` carries."""
        held = self.apply(op, obj, ack["version"])
        if op == "delete" and held and not ack.get("deleted"):
            return self._fault("delete", oid=obj.oid,
                               detail="not found, but the twin held it")
        return True

    def subscribe(self, sub_id: str, query: Any, version: int,
                  revision: int = 1) -> Standing:
        """Follow ``sub_id`` from dataset ``version``, where it stands at
        ``revision`` with the twin's answer."""
        answer = self.answer(query)[0]
        self.subs[sub_id] = Standing(query, {version: answer}, answer,
                                     revision, revision, answer)
        return self.subs[sub_id]

    def check_subscribe(self, query: Any, ack: dict[str, Any]) -> bool:
        """Follow the subscription a ``subscribe`` ack registered."""
        standing = self.subscribe(ack["sub"], query, ack["version"],
                                  ack["revision"])
        standing.delivered = ack["result"]
        if ack["result"] != standing.answer:
            return self._fault("ack", sub=ack["sub"],
                               served_result=ack["result"],
                               expected=standing.answer)
        return True

    def check_frame(self, frame: dict[str, Any]) -> bool:
        """One pushed ``notify`` frame."""
        sub_id, revision, result, version = (
            frame.get("sub"), frame.get("revision"), frame.get("result"),
            frame.get("version"))
        standing = self.subs.get(sub_id)
        if standing is None:
            return self._fault("unknown", sub=sub_id, frame=frame)
        previous_revision, previous = (standing.delivered_revision,
                                       standing.delivered)
        standing.delivered_revision, standing.delivered = revision, result
        if revision != previous_revision + 1:
            return self._fault("revision", sub=sub_id, revision=revision,
                               expected_revision=previous_revision + 1)
        if result == previous:
            return self._fault("repeat", sub=sub_id, revision=revision)
        if version not in standing.answers or result != standing.answers[version]:
            return self._fault("version", sub=sub_id, version=version,
                               served_result=result,
                               expected=standing.answers.get(version))
        return True

    def pending(self) -> int:
        """Answer changes not delivered yet."""
        return sum(max(0, s.revision - s.delivered_revision)
                   for s in self.subs.values())

    def check_delivery(self, exact: bool) -> bool:
        """The end of a run: with ``exact``, one frame per answer change;
        either way, every last delivered result is the final answer."""
        ok = True
        for sub_id, standing in self.subs.items():
            owed = standing.revision - standing.delivered_revision
            detail = {"sub": sub_id, "revision": standing.revision,
                      "delivered_revision": standing.delivered_revision}
            if exact and owed > 0:
                ok = self._fault("missed", owed, **detail)
            elif exact and owed < 0:
                ok = self._fault("extra", -owed, **detail)
            elif standing.delivered != standing.answer:
                ok = self._fault("unconverged", **detail)
        return ok

    def check_objects(self, objects: Iterable[Any]) -> bool:
        """A served tree holds exactly the twin's objects."""
        served = sorted((p.oid, p.x, p.y) for p in objects)
        held = sorted((p.oid, p.x, p.y)
                      for p in self.engine.tree.iter_objects())
        if served != held:
            return self._fault("objects", served=len(served), held=len(held))
        return True
