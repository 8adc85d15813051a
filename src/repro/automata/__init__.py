"""Finite automata over content models.

The paper's preprocessor builds its grammar "using an algorithm of [2]
(Aho/Sethi/Ullman), which constructs deterministic finite automata from
regular expressions" (Sect. 6).  This package is that algorithm, shared by
every consumer in the stack:

* the DTD validator (content models are classic regexes),
* the XML Schema validator (particles with occurrence bounds),
* V-DOM's construction-time enforcement,
* the P-XML static checker (holes are matched as typed symbols).

Terminals are arbitrary *symbol* objects; matching happens over a *key*
derived from each symbol (usually an element name), so one automaton can
carry rich symbols (e.g. element declarations) while the matcher runs on
plain names.
"""

from repro.automata.rex import (
    Alternation,
    Empty,
    Epsilon,
    Regex,
    Repetition,
    Sequence,
    Symbol,
    UNBOUNDED,
)
from repro.automata.glushkov import (
    Dfa,
    DfaBuildError,
    Matcher,
    NondeterminismError,
    build_dfa,
)
from repro.automata.tables import DfaTable

__all__ = [
    "Alternation",
    "Dfa",
    "DfaBuildError",
    "DfaTable",
    "Empty",
    "Epsilon",
    "Matcher",
    "NondeterminismError",
    "Regex",
    "Repetition",
    "Sequence",
    "Symbol",
    "UNBOUNDED",
    "build_dfa",
]
