"""The segment route interprets its program: no code is generated.

``render_text`` and ``stream_text`` run a closure built over the
segment program, on fresh templates and on templates rehydrated from a
memory or directory cache alike.  These tests pin that nothing on that
route compiles source, that a large page stays byte-identical to the
DOM route, and that hole-name errors keep the wording a keyword-only
``render_text(*, ...)`` signature gives them.
"""

import builtins

import pytest

from repro.cache import ReproCache
from repro.dom import serialize
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_SCHEMA

#: The served 150-item page: three holes per item (attribute, integer
#: and decimal content), 450 in all.
HEAVY_ITEMS = 150
HEAVY_TEMPLATE = "<items>{}</items>".format(
    "".join(
        f'<item partNum="$p{i}$"><productName>Widget {i}</productName>'
        f"<quantity>$q{i}$</quantity><USPrice>$u{i}$</USPrice></item>"
        for i in range(HEAVY_ITEMS)
    )
)

ITEM = (
    '<item partNum="$p$"><productName>$name$</productName>'
    "<quantity>$q$</quantity><USPrice>$u$</USPrice></item>"
)
ITEM_VALUES = {"p": "926-AA", "name": "Baby <Monitor> & co", "q": 2, "u": "39.98"}


def _heavy_values(key: int) -> dict[str, str]:
    values = {}
    for i in range(HEAVY_ITEMS):
        values[f"p{i}"] = (
            f"{100 + (key * 31 + i * 7) % 900}-"
            f"{chr(65 + (key + i) % 26)}{chr(65 + i % 26)}"
        )
        values[f"q{i}"] = str(1 + (key + i * 13) % 99)
        values[f"u{i}"] = f"{(key * 17 + i) % 1000}.{(key + i) % 100:02d}"
    return values


def _origins(source, tmp_path):
    """A fresh, a memory-warm and a disk-warm template of *source*."""
    memory = ReproCache()
    memory_binding = memory.bind(PURCHASE_ORDER_SCHEMA)
    fresh = Template(memory_binding, source, cache=memory)
    memory_warm = Template(memory_binding, source, cache=memory)

    directory = tmp_path / "cache"
    disk = ReproCache(directory)
    Template(disk.bind(PURCHASE_ORDER_SCHEMA), source, cache=disk)
    reopened = ReproCache(directory)
    disk_warm = Template(
        reopened.bind(PURCHASE_ORDER_SCHEMA), source, cache=reopened
    )

    assert fresh.checked is not None
    assert memory_warm.checked is None and disk_warm.checked is None
    return {"fresh": fresh, "memory-warm": memory_warm, "disk-warm": disk_warm}


def _refuse(*args, **kwargs):
    raise AssertionError("the segment route compiled code")


def test_segment_route_never_compiles(tmp_path, monkeypatch):
    expected = Template(
        ReproCache().bind(PURCHASE_ORDER_SCHEMA), ITEM
    ).render_text(**ITEM_VALUES)
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "compile", _refuse)
        patch.setattr(builtins, "exec", _refuse)
        templates = _origins(ITEM, tmp_path)
        for origin, template in templates.items():
            assert template.render_text(**ITEM_VALUES) == expected, origin
            pieces = template.stream_text(**ITEM_VALUES)
            assert "".join(pieces) == expected, origin
    # The DOM route may compile its renderer on first use.
    for origin, template in templates.items():
        assert serialize(template.render(**ITEM_VALUES)) == expected, origin


def test_heavy_page_byte_identical_fresh_and_rehydrated(tmp_path):
    templates = _origins(HEAVY_TEMPLATE, tmp_path)
    for key in (0, 1, 7):
        values = _heavy_values(key)
        for origin in ("fresh", "disk-warm"):
            template = templates[origin]
            expected = serialize(template.render(**values))
            assert template.render_text(**values) == expected, (origin, key)
            assert "".join(template.stream_text(**values)) == expected, (
                origin,
                key,
            )


def _type_error(call, **values) -> str:
    with pytest.raises(TypeError) as error:
        call(**values)
    return str(error.value)


def _signature_error(signature, **values) -> str:
    """What CPython says when *signature* is called with *values*."""
    message = _type_error(signature, **values)
    # A nested function's qualname carries its enclosing scope.
    return "render_text() " + message.partition("() ")[2]


@pytest.mark.parametrize(
    "values",
    [
        {},
        {"p": "926-AA"},
        {"p": "926-AA", "name": "x"},
        {"p": "926-AA", "name": "x", "q": 1, "u": "1.00", "extra": "y"},
        {"extra": "y", "p": "926-AA", "other": "z"},
    ],
    ids=["none", "three-missing", "two-missing", "unknown", "unknown-first"],
)
def test_hole_name_errors_match_keyword_only_signature(tmp_path, values):
    def render_text(*, name, p, q, u):  # the template's hole signature
        raise AssertionError("unreachable")

    expected = _signature_error(render_text, **values)
    for origin, template in _origins(ITEM, tmp_path).items():
        assert _type_error(template.render_text, **values) == expected, origin
        assert _type_error(template.stream_text, **values) == expected, origin


def test_single_hole_fast_path_errors_match(tmp_path):
    def render_text(*, c):
        raise AssertionError("unreachable")

    for values in ({}, {"d": 1}, {"c": "x", "d": 1}):
        expected = _signature_error(render_text, **values)
        for origin, template in _origins(
            "<comment>$c$</comment>", tmp_path / str(len(values))
        ).items():
            assert _type_error(template.render_text, **values) == expected, (
                origin
            )
