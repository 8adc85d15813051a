"""P-XML — Parametric XML (paper, Sect. 4).

XML *constructors* are document fragments with ``$variable$`` parameter
holes, written in plain markup instead of nested factory calls — "a more
page oriented programming technique".  The pipeline is the paper's
Fig. 9:

* :mod:`repro.pxml.parser` parses constructor text (an XML fragment
  grammar extended with holes),
* :mod:`repro.pxml.checker` validates it **statically** against the
  schema, typing every hole (the generated preprocessor's job),
* :mod:`repro.pxml.compiler` replaces the constructor by V-DOM factory
  calls — the Fig. 11 output — and compiles them to a render function,
* :mod:`repro.pxml.segments` partitions a checked template into static
  markup and typed slots, and renders straight to text by interpreting
  that segment program (no generated code),
* :mod:`repro.pxml.runtime` is the interpreted alternative (ablation),
* :mod:`repro.pxml.preprocessor` rewrites whole Python modules,
  replacing ``pxml("...")`` call sites by generated builder functions.

A template that passes the static check cannot produce an invalid
document: hole values are type-checked on insertion and text holes are
parsed by the simple type of their position at render time.
"""

from repro.pxml.parser import parse_template
from repro.pxml.checker import CheckedTemplate, check_template
from repro.pxml.compiler import compile_template
from repro.pxml.segments import SegmentProgram, compile_segments
from repro.pxml.template import Template
from repro.pxml.runtime import render_interpreted, render_text_interpreted
from repro.pxml.preprocessor import preprocess_module

__all__ = [
    "CheckedTemplate",
    "SegmentProgram",
    "Template",
    "check_template",
    "compile_segments",
    "compile_template",
    "parse_template",
    "preprocess_module",
    "render_interpreted",
    "render_text_interpreted",
]
