#!/usr/bin/env python3
"""Segment-compiled rendering: the serving hot path without a DOM.

The paper establishes validity at *preparation* time; this demo shows
the runtime consequence.  A checked template is partitioned into
precomputed static markup segments plus dynamic holes, so
``render_text(**values)`` emits the final string directly — no
``TypedElement`` tree, no serializer walk — while staying byte-identical
to ``serialize(render(...))`` and keeping every runtime check the typed
constructors would have made.

Run:  python examples/render_text_demo.py
"""

from repro import bind, serialize
from repro.errors import VdomTypeError
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_SCHEMA, XHTML_SUBSET_SCHEMA

#: Templates shared with the equivalence tests (tests/pxml) — each entry
#: is (schema, template source, example hole values).
DEMO_TEMPLATES = [
    (
        PURCHASE_ORDER_SCHEMA,
        """<shipTo country="US">
              <name>$n$</name>
              <street>123 Maple Street</street>
              <city>Mill Valley</city>
              <state>CA</state>
              <zip>90952</zip>
           </shipTo>""",
        {"n": "Alice Smith"},
    ),
    (
        PURCHASE_ORDER_SCHEMA,
        '<item partNum="$pn$"><productName>$p$</productName>'
        "<quantity>$q$</quantity><USPrice>$price$</USPrice></item>",
        {"pn": "872-AA", "p": "Lawnmower <electric>", "q": 1,
         "price": "148.95"},
    ),
    (
        XHTML_SUBSET_SCHEMA,
        "<p>updated: <b>$when:text$</b> &amp; saved</p>",
        {"when": "just now"},
    ),
]


def main() -> None:
    for schema, source, values in DEMO_TEMPLATES:
        binding = bind(schema)
        template = Template(binding, source)
        fast = template.render_text(**values)
        slow = serialize(template.render(**values))
        assert fast == slow, "fast path must match render+serialize"
        print(fast)
        print()

    # The segment program is the reviewable artifact: render_text
    # interprets it directly, with no generated code.
    binding = bind(PURCHASE_ORDER_SCHEMA)
    template = Template(
        binding,
        '<item partNum="$pn$"><productName>$p$</productName>'
        "<quantity>1</quantity><USPrice>9.99</USPrice></item>",
    )
    program = template._segments
    print(f"segment program ({program.static_ratio():.0%} static):")
    for segment in program.segments:
        if isinstance(segment, str):
            print(f"  static  {segment!r}")
        else:
            holes = [name for kind, name in segment.parts if kind == "hole"]
            checked = "checked" if segment.checker is not None else "unchecked"
            print(f"  dynamic {segment.escape} run of {holes} ({checked})")
    print()

    # Validation still happens — at the holes, where it is still needed:
    try:
        template.render_text(pn="999-ZZ", p=object())
    except VdomTypeError as error:
        print(f"rejected: {error}")


if __name__ == "__main__":
    main()
