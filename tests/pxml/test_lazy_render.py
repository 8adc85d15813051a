"""The DOM render function is compiled by the first ``render()`` call.

``__init__`` generates the render source (it is cached with the
template), but only ``render()`` needs the compiled function; the
segment route never does.
"""

import pytest

from repro.cache import ReproCache
from repro.dom import serialize
from repro.pxml import Template
from repro.schemas import PURCHASE_ORDER_SCHEMA

ITEM = (
    '<item partNum="$p$"><productName>$name$</productName>'
    "<quantity>$q$</quantity><USPrice>$u$</USPrice></item>"
)
VALUES = {"p": "926-AA", "name": "Baby Monitor", "q": 2, "u": "39.98"}


def _templates(tmp_path):
    """A fresh, a memory-warm and a disk-warm template of ``ITEM``."""
    memory = ReproCache()
    memory_binding = memory.bind(PURCHASE_ORDER_SCHEMA)
    fresh = Template(memory_binding, ITEM, cache=memory)
    memory_warm = Template(memory_binding, ITEM, cache=memory)

    directory = tmp_path / "cache"
    disk = ReproCache(directory)
    Template(disk.bind(PURCHASE_ORDER_SCHEMA), ITEM, cache=disk)
    reopened = ReproCache(directory)
    disk_warm = Template(reopened.bind(PURCHASE_ORDER_SCHEMA), ITEM, cache=reopened)

    assert fresh.checked is not None
    assert memory_warm.checked is None and disk_warm.checked is None
    return {"fresh": fresh, "memory-warm": memory_warm, "disk-warm": disk_warm}


def test_no_render_function_until_first_render(tmp_path):
    for origin, template in _templates(tmp_path).items():
        assert template._render is None, origin
        assert template.generated_source, origin
        template.render_text(**VALUES)
        assert template._render is None, origin

        template.render(**VALUES)
        compiled = template._render
        assert compiled is not None, origin
        template.render(**VALUES)
        assert template._render is compiled, origin


def test_render_is_byte_identical_across_origins(tmp_path):
    templates = _templates(tmp_path)
    outputs = {
        origin: serialize(template.render(**VALUES))
        for origin, template in templates.items()
    }
    assert len(set(outputs.values())) == 1, outputs
    assert outputs["fresh"] == templates["fresh"].render_text(**VALUES)


def test_invalid_hole_value_is_rejected_by_the_lazy_renderer(tmp_path):
    from repro.errors import VdomTypeError

    for origin, template in _templates(tmp_path).items():
        with pytest.raises(VdomTypeError):
            template.render(**dict(VALUES, q=100))


def test_interpreted_template_stays_interpreted(po_binding):
    template = Template(po_binding, ITEM, compiled=False)
    assert template.generated_source is None
    assert "interpreted" in repr(template)
    serialize(template.render(**VALUES))
    assert template._render is None


def test_compiled_template_reports_compiled_before_any_render(po_binding):
    template = Template(po_binding, ITEM)
    assert "compiled" in repr(template)
    assert "interpreted" not in repr(template)
    assert template.generated_source.startswith("def render(factory")
    assert template._render is None
