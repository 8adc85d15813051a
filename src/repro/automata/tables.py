"""Flat integer transition tables compiled from :class:`~repro.automata.glushkov.Dfa`.

The object DFA keeps ``transitions[state][key] -> (next_state, payload)``
— one dict per state, one tuple per edge.  That shape is ideal for
construction and for error reporting, but a hot loop that steps it pays
a method call, a dict probe, and a tuple unpack per event.

:class:`DfaTable` re-compiles the same automaton *down to data*:

* a per-DFA **interned symbol table** mapping element QNames to dense
  integer ids (``symbol_ids``),
* an ``array('i')`` **next-state matrix** of shape (states × symbols)
  where ``-1`` means "no transition", and
* a parallel ``array('i')`` **payload matrix** indexing into a tuple of
  the distinct payload objects (element declarations).

The inner loop of a consumer becomes one dict probe (symbol → id) and
two array indexings — no per-step allocation, no method dispatch::

    sym = table.symbol_ids.get(name)
    if sym is not None:
        cell = state * table.n_symbols + sym
        target = table.nxt[cell]          # -1 = rejected
        payload = table.payloads[table.pay[cell]]

State numbering, acceptance, attribution (which payload consumes which
key) and the *order* of expected-key error listings are all identical to
the source DFA — ``tests/automata/test_tables.py`` holds every table to
its object twin over the schema corpus — so an integer state produced by
one (e.g. the turbo build's ``_content_state``) can be resumed by the
other.

Tables pickle compactly (the paper's "preparation time" artifact): the
persistent compilation cache stores them prewarmed next to the object
DFAs, so a warm start pays neither Glushkov construction nor table
flattening.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.automata.glushkov import Dfa


class DfaTable:
    """One content-model DFA flattened to integer arrays."""

    __slots__ = (
        "symbols",
        "symbol_ids",
        "n_symbols",
        "nxt",
        "pay",
        "payloads",
        "accepting",
        "_expected",
    )

    #: state numbering is inherited from the source DFA, so the start
    #: state is always subset-construction state 0
    start_state = 0

    def __init__(
        self,
        symbols: tuple[Hashable, ...],
        nxt: array,
        pay: array,
        payloads: tuple[Any, ...],
        accepting: bytes,
    ):
        self.symbols = symbols
        self.symbol_ids = {symbol: index for index, symbol in enumerate(symbols)}
        self.n_symbols = len(symbols)
        self.nxt = nxt
        self.pay = pay
        self.payloads = payloads
        self.accepting = accepting
        self._expected: dict[int, list[Hashable]] = {}

    @classmethod
    def from_dfa(cls, dfa: "Dfa") -> "DfaTable":
        """Flatten *dfa* (state numbering and attribution preserved)."""
        symbols: list[Hashable] = []
        symbol_ids: dict[Hashable, int] = {}
        for state_transitions in dfa.transitions:
            for key in state_transitions:
                if key not in symbol_ids:
                    symbol_ids[key] = len(symbols)
                    symbols.append(key)
        n_states = len(dfa.transitions)
        n_symbols = len(symbols)
        nxt = array("i", [-1]) * (n_states * n_symbols)
        pay = array("i", [0]) * (n_states * n_symbols)
        payloads: list[Any] = []
        payload_ids: dict[int, int] = {}
        for state, transitions in enumerate(dfa.transitions):
            base = state * n_symbols
            for key, (target, payload) in transitions.items():
                cell = base + symbol_ids[key]
                nxt[cell] = target
                payload_id = payload_ids.get(id(payload))
                if payload_id is None:
                    payload_id = len(payloads)
                    payload_ids[id(payload)] = payload_id
                    payloads.append(payload)
                pay[cell] = payload_id
        accepting = bytes(
            1 if state in dfa.accepting else 0 for state in range(n_states)
        )
        return cls(tuple(symbols), nxt, pay, tuple(payloads), accepting)

    # -- stepping ---------------------------------------------------------------

    def state_count(self) -> int:
        return len(self.accepting)

    def step(self, state: int, key: Hashable) -> tuple[int, Any] | None:
        """One transition: ``(next_state, payload)`` or ``None``."""
        sym = self.symbol_ids.get(key)
        if sym is None:
            return None
        cell = state * self.n_symbols + sym
        target = self.nxt[cell]
        if target < 0:
            return None
        return target, self.payloads[self.pay[cell]]

    def is_accepting(self, state: int) -> bool:
        return self.accepting[state] == 1

    def expected_keys(self, state: int) -> list[Hashable]:
        """Keys with a transition out of *state*, in the exact order
        ``Dfa.expected_keys`` reports them (sorted by ``repr``), memoized
        per state — this sits on every content-model error path."""
        cached = self._expected.get(state)
        if cached is None:
            base = state * self.n_symbols
            nxt = self.nxt
            cached = sorted(
                (
                    self.symbols[sym]
                    for sym in range(self.n_symbols)
                    if nxt[base + sym] >= 0
                ),
                key=repr,
            )
            self._expected[state] = cached
        return cached

    def accepts(self, keys: list[Hashable]) -> bool:
        """Full-word match convenience (mirrors ``Dfa.accepts``)."""
        state = 0
        for key in keys:
            entry = self.step(state, key)
            if entry is None:
                return False
            state = entry[0]
        return self.accepting[state] == 1

    # -- pickling -------------------------------------------------------------

    def __reduce__(self):
        # The memoized expected-key lists are derived data; rebuilding
        # the symbol-id dict from the symbol tuple keeps the artifact
        # minimal and the load path a plain __init__.
        return (
            DfaTable,
            (self.symbols, self.nxt, self.pay, self.payloads, self.accepting),
        )
