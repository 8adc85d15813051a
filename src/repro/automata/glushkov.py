"""Glushkov position automaton and subset-construction DFA.

Construction follows the classic ``nullable`` / ``first`` / ``last`` /
``follow`` scheme (Aho, Sethi, Ullman — the paper's reference [2]): each
symbol occurrence becomes a numbered *position*; ``follow`` links give the
NFA transitions; subset construction keyed by a caller-supplied key
function yields the DFA used for matching and for the determinism check.

NFA shape (states = positions plus a start state ``q0``):

* ``q0 --a--> q``  iff ``q ∈ first``  and ``key(q) = a``,
* ``p  --a--> q``  iff ``q ∈ follow(p)`` and ``key(q) = a``,
* accepting: ``q0`` iff the regex is nullable, and every ``q ∈ last``.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError
from repro.automata.rex import (
    Alternation,
    Empty,
    Epsilon,
    Regex,
    Repetition,
    Sequence,
    Symbol,
    UNBOUNDED,
    check_budget,
)

KeyFunction = Callable[[Any], Hashable]

_START = -1  # the q0 pseudo-position


class DfaBuildError(ReproError):
    """The regex could not be turned into a DFA."""


class NondeterminismError(DfaBuildError):
    """Two competing particles match the same key from one state.

    For XML this violates the deterministic-content-model rule of DTDs
    and the Unique Particle Attribution constraint of XML Schema.
    """


@dataclass
class _Facts:
    nullable: bool
    first: frozenset[int]
    last: frozenset[int]


class _Analysis:
    """One pass computing positions and the Glushkov functions."""

    def __init__(self) -> None:
        self.payloads: list[Any] = []
        self.follow: dict[int, set[int]] = {}

    def new_position(self, payload: Any) -> int:
        position = len(self.payloads)
        self.payloads.append(payload)
        self.follow[position] = set()
        return position

    def analyze(self, regex: Regex) -> _Facts:
        if isinstance(regex, Empty):
            return _Facts(False, frozenset(), frozenset())
        if isinstance(regex, Epsilon):
            return _Facts(True, frozenset(), frozenset())
        if isinstance(regex, Symbol):
            position = self.new_position(regex.payload)
            singleton = frozenset({position})
            return _Facts(False, singleton, singleton)
        if isinstance(regex, Sequence):
            facts = _Facts(True, frozenset(), frozenset())
            for part in regex.parts:
                part_facts = self.analyze(part)
                for last_position in facts.last:
                    self.follow[last_position] |= part_facts.first
                first = (
                    facts.first | part_facts.first if facts.nullable else facts.first
                )
                last = (
                    facts.last | part_facts.last
                    if part_facts.nullable
                    else part_facts.last
                )
                facts = _Facts(facts.nullable and part_facts.nullable, first, last)
            return facts
        if isinstance(regex, Alternation):
            nullable = False
            first: frozenset[int] = frozenset()
            last: frozenset[int] = frozenset()
            for alternative in regex.alternatives:
                alt_facts = self.analyze(alternative)
                nullable = nullable or alt_facts.nullable
                first |= alt_facts.first
                last |= alt_facts.last
            return _Facts(nullable, first, last)
        if isinstance(regex, Repetition):
            # Regex.expanded() leaves only {0,1} and {0|1, UNBOUNDED} here.
            child_facts = self.analyze(regex.child)
            if regex.max_occurs == UNBOUNDED:
                for last_position in child_facts.last:
                    self.follow[last_position] |= child_facts.first
                nullable = regex.min_occurs == 0 or child_facts.nullable
                return _Facts(nullable, child_facts.first, child_facts.last)
            return _Facts(True, child_facts.first, child_facts.last)
        raise DfaBuildError(f"unknown regex node {type(regex).__name__}")


class Dfa:
    """Deterministic automaton over keys, retaining symbol payloads.

    ``transitions[state][key] -> (next_state, payload)``; the payload is
    the particle (element declaration, V-DOM interface, ...) that consumed
    the key, letting validators attribute children to particles.
    """

    def __init__(
        self,
        transitions: list[dict[Hashable, tuple[int, Any]]],
        accepting: frozenset[int],
    ):
        self.transitions = transitions
        self.accepting = accepting
        self._expected: dict[int, list[Hashable]] = {}

    @property
    def start_state(self) -> int:
        return 0

    def matcher(self) -> Matcher:
        return Matcher(self)

    def accepts(self, keys: list[Hashable]) -> bool:
        """Full-word match convenience."""
        matcher = self.matcher()
        for key in keys:
            if matcher.step(key) is None:
                return False
        return matcher.at_accepting_state()

    def state_count(self) -> int:
        return len(self.transitions)

    def is_accepting(self, state: int) -> bool:
        return state in self.accepting

    def expected_keys(self, state: int) -> list[Hashable]:
        # Sorting the alphabet by repr on every call sat on the checker's
        # expected-names error path; the transition map is immutable after
        # construction, so memoize the sorted listing per state.
        cached = self._expected.get(state)
        if cached is None:
            cached = sorted(self.transitions[state], key=repr)
            self._expected[state] = cached
        return cached


class Matcher:
    """Stateful single-word runner over a :class:`Dfa`."""

    def __init__(self, dfa: Dfa):
        self._dfa = dfa
        self.state = dfa.start_state

    def step(self, key: Hashable) -> Any | None:
        """Consume *key*; return the matched payload or ``None`` on failure.

        A failed step leaves the state unchanged so the caller can still
        ask :meth:`expected` what would have been acceptable.
        """
        entry = self._dfa.transitions[self.state].get(key)
        if entry is None:
            return None
        self.state, payload = entry
        return payload

    def at_accepting_state(self) -> bool:
        return self.state in self._dfa.accepting

    def expected(self) -> list[Hashable]:
        """Keys acceptable in the current state (for error messages)."""
        return self._dfa.expected_keys(self.state)

    def reset(self) -> None:
        self.state = self._dfa.start_state


def build_dfa(
    regex: Regex,
    key: KeyFunction = lambda payload: payload,
    require_deterministic: bool = False,
    position_budget: int = 4096,
) -> Dfa:
    """Compile *regex* to a :class:`Dfa`.

    With ``require_deterministic`` the builder raises
    :class:`NondeterminismError` whenever two *distinct* positions compete
    for the same key out of one state — the UPA / deterministic content
    model check.  Without it, subset construction resolves the ambiguity
    (the lowest position's payload wins attribution).
    """
    expanded = regex.expanded()
    check_budget(expanded, position_budget)
    analysis = _Analysis()
    facts = analysis.analyze(expanded)
    payloads = analysis.payloads
    first = facts.first
    follow = analysis.follow
    last = facts.last

    def successors(position: int) -> frozenset[int]:
        if position == _START:
            return first
        return frozenset(follow[position])

    def accepts(subset: frozenset[int]) -> bool:
        if _START in subset and facts.nullable:
            return True
        return bool(subset & last)

    start_subset = frozenset({_START})
    state_ids: dict[frozenset[int], int] = {start_subset: 0}
    transitions: list[dict[Hashable, tuple[int, Any]]] = [{}]
    accepting: set[int] = set()
    if accepts(start_subset):
        accepting.add(0)

    worklist = [start_subset]
    while worklist:
        subset = worklist.pop()
        subset_id = state_ids[subset]
        # Candidate next positions, grouped by key.
        by_key: dict[Hashable, set[int]] = {}
        for position in subset:
            for candidate in successors(position):
                by_key.setdefault(key(payloads[candidate]), set()).add(candidate)
        for key_value, candidates in by_key.items():
            if require_deterministic and len(candidates) > 1:
                raise NondeterminismError(
                    f"content model is not deterministic: {key_value!r} is "
                    f"matched by {len(candidates)} competing particles"
                )
            target = frozenset(candidates)
            if target not in state_ids:
                state_ids[target] = len(transitions)
                transitions.append({})
                if accepts(target):
                    accepting.add(state_ids[target])
                worklist.append(target)
            transitions[subset_id][key_value] = (
                state_ids[target],
                payloads[min(candidates)],
            )

    return Dfa(transitions, frozenset(accepting))
