"""Flat transition tables against their object-DFA twins.

Every :class:`DfaTable` is compiled *from* a :class:`Dfa` and must be
observationally identical to it: same state numbering, same acceptance,
same payload attribution, and the same expected-key ordering on error
paths.  The parity here is exhaustive over both synthetic regexes and
every content model of the bundled schemas.
"""

import pickle

import pytest

from repro.automata import (
    Alternation,
    DfaTable,
    Repetition,
    Sequence,
    Symbol,
    build_dfa,
)
from repro.core import bind
from repro.schemas import PURCHASE_ORDER_SCHEMA, XHTML_SUBSET_SCHEMA
from repro.xsd.components import ComplexType, ContentType

REGEXES = {
    "sequence": Sequence([Symbol("a"), Symbol("b"), Symbol("c")]),
    "alternation": Alternation([Symbol("a"), Symbol("b")]),
    "star": Symbol("a").star(),
    "plus-in-seq": Sequence([Symbol("a").plus(), Symbol("b")]),
    "optional": Sequence([Repetition(Symbol("a"), 0, 1), Symbol("b")]),
    "nested": Sequence(
        [
            Alternation([Symbol("a"), Symbol("b")]).star(),
            Symbol("c"),
            Repetition(Symbol("d"), 0, 1),
        ]
    ),
}

WORDS = [
    [],
    ["a"],
    ["b"],
    ["c"],
    ["a", "b"],
    ["a", "b", "c"],
    ["a", "a", "b"],
    ["b", "a"],
    ["a", "b", "c", "d"],
    ["c"],
    ["c", "d"],
    ["d"],
    ["a", "x"],
    ["x"],
]


def _assert_twin(dfa, table):
    """Exhaustive observational parity between a Dfa and its table."""
    assert table.state_count() == len(dfa.transitions)
    alphabet = set(table.symbols) | {"x"}
    for state in range(len(dfa.transitions)):
        assert table.is_accepting(state) == (state in dfa.accepting)
        assert table.expected_keys(state) == dfa.expected_keys(state)
        for key in alphabet:
            expected = dfa.transitions[state].get(key)
            stepped = table.step(state, key)
            if expected is None:
                assert stepped is None
            else:
                target, payload = expected
                assert stepped is not None
                assert stepped[0] == target
                assert stepped[1] is payload


class TestSyntheticParity:
    @pytest.mark.parametrize("name", sorted(REGEXES))
    def test_twin_of_object_dfa(self, name):
        dfa = build_dfa(REGEXES[name])
        _assert_twin(dfa, DfaTable.from_dfa(dfa))

    @pytest.mark.parametrize("name", sorted(REGEXES))
    def test_accepts_agrees(self, name):
        dfa = build_dfa(REGEXES[name])
        table = DfaTable.from_dfa(dfa)
        for word in WORDS:
            assert table.accepts(word) == dfa.accepts(word), word


class TestSchemaParity:
    """Every content model of the bundled schemas, table vs object."""

    @pytest.mark.parametrize(
        "schema_text", [PURCHASE_ORDER_SCHEMA, XHTML_SUBSET_SCHEMA],
        ids=["purchase-order", "xhtml-subset"],
    )
    def test_every_content_model(self, schema_text):
        schema = bind(schema_text).schema
        checked = 0
        for type_definition in schema.types.values():
            if not isinstance(type_definition, ComplexType):
                continue
            if type_definition.content_type not in (
                ContentType.ELEMENT_ONLY,
                ContentType.MIXED,
            ):
                continue
            _assert_twin(
                schema.content_dfa(type_definition),
                schema.content_table(type_definition),
            )
            checked += 1
        assert checked, "schema exposed no structured content models"

    def test_table_is_cached(self):
        schema = bind(PURCHASE_ORDER_SCHEMA).schema
        for type_definition in schema.types.values():
            if (
                isinstance(type_definition, ComplexType)
                and type_definition.content_type is ContentType.ELEMENT_ONLY
            ):
                first = schema.content_table(type_definition)
                assert schema.content_table(type_definition) is first
                return
        pytest.fail("no element-only type found")


class TestPickling:
    def test_round_trip_preserves_behaviour(self):
        dfa = build_dfa(REGEXES["nested"])
        table = DfaTable.from_dfa(dfa)
        clone = pickle.loads(pickle.dumps(table))
        assert clone.symbols == table.symbols
        assert clone.nxt == table.nxt
        assert clone.pay == table.pay
        assert clone.accepting == table.accepting
        for word in WORDS:
            assert clone.accepts(word) == table.accepts(word)
        for state in range(table.state_count()):
            assert clone.expected_keys(state) == table.expected_keys(state)

    def test_memoized_expected_keys_not_pickled(self):
        table = DfaTable.from_dfa(build_dfa(REGEXES["sequence"]))
        table.expected_keys(0)  # populate the memo
        clone = pickle.loads(pickle.dumps(table))
        assert clone._expected == {}
