"""Program preparation shared by the workloads: schemas, bindings,
templates, the query and the transform programs.

Every call goes through the program's public API.  With a decomposing
tracer, a bind is spelled out as its public steps (``parse_schema`` →
``normalize`` → ``generate_interfaces`` → ``Binding``) so each step gets
its own span; otherwise it is one ``ReproCache.bind``.
"""

from __future__ import annotations

import glob
import os

from repro import ReproCache, Template, parse_schema
from repro.core import Binding, ChoiceStrategy, generate_interfaces, normalize
from repro.query import Query, Rule, TransformProgram
from repro.schemas import PURCHASE_ORDER_SCHEMA, WML_SCHEMA
from repro.schemas.xhtml import XHTML_SUBSET_SCHEMA

import gen

#: the three namespaced gauntlet families, each a schema/main.xsd with
#: xsd:include/xsd:import siblings and labelled valid-*/invalid-* instances
FAMILIES = ("secreport", "techdoc", "cmdb")
CORPUS = os.path.join("tests", "integration", "corpus")

OPTION_TEMPLATE = '<option value="p">$name:text$</option>'
SKU_TEMPLATE = "<option>$sku:text$</option>"
LINK_TEMPLATE = '<a href="$h$">go</a>'
HEADING_TEMPLATE = "<p>$t:text$</p>"


def family_schema(family: str) -> tuple[str, str]:
    """(text, absolute location) of a gauntlet family's main schema."""
    location = os.path.abspath(os.path.join(CORPUS, family, "schema", "main.xsd"))
    with open(location, encoding="utf-8") as handle:
        return handle.read(), location


def family_instances(family: str) -> list[tuple[str, str, bool]]:
    """(name, text, expected verdict) for each labelled gauntlet instance."""
    out = []
    pattern = os.path.join(CORPUS, family, "instances", "*.xml")
    for path in sorted(glob.glob(pattern)):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as handle:
            out.append((name, handle.read(), name.startswith("valid-")))
    if not out:
        raise RuntimeError(f"no gauntlet instances under {pattern}")
    return out


def bind_schema(cache, text: str, location: str | None, tracer, decompose: bool):
    if not decompose:
        with tracer.span("cache.bind"):
            return cache.bind(text, location=location)
    with tracer.span("core.bind"):
        with tracer.span("xsd.parse_schema"):
            schema = parse_schema(text, location=location)
        with tracer.span("core.normalize"):
            normalize(schema)
        with tracer.span("core.generate"):
            model = generate_interfaces(schema, ChoiceStrategy.INHERITANCE)
        return Binding(schema, model)


def compile_template(binding, source: str, cache, tracer) -> Template:
    with tracer.span("pxml.template_compile"):
        return Template(binding, source, cache=cache)


class Prepared:
    """Bindings and compiled artifacts for one set of schemas."""

    def __init__(self):
        self.bindings: dict[str, object] = {}
        self.queries: dict[str, Query] = {}
        self.programs: dict[str, TransformProgram] = {}
        self.templates: dict[str, Template] = {}
        self.validators: dict[str, object] = {}


def prepare(
    tracer,
    *,
    schemas: tuple[str, ...],
    cache: ReproCache | None = None,
    decompose: bool = False,
    queries: bool = False,
    templates: bool = False,
) -> Prepared:
    """Bind *schemas* (``po``, ``xhtml``, ``wml`` or a gauntlet family)
    into a fresh in-memory cache (or *cache*), and compile what the
    workload needs on top."""
    cache = cache if cache is not None else ReproCache()
    out = Prepared()
    builtin = {
        "po": PURCHASE_ORDER_SCHEMA,
        "xhtml": XHTML_SUBSET_SCHEMA,
        "wml": WML_SCHEMA,
    }
    for name in schemas:
        if name in builtin:
            text, location = builtin[name], None
        else:
            text, location = family_schema(name)
        out.bindings[name] = bind_schema(cache, text, location, tracer, decompose)
    b = out.bindings
    if queries:
        with tracer.span("query.compile"):
            out.queries["po"] = Query(b["po"], "purchaseOrder", "//USPrice")
            out.queries["xhtml"] = Query(b["xhtml"], "html", "//a")
        with tracer.span("query.transform_compile"):
            out.programs["po"] = TransformProgram(
                b["po"],
                b["wml"],
                "purchaseOrder",
                [
                    Rule("items/item/productName", OPTION_TEMPLATE, "name"),
                    Rule("items/item/@partNum", SKU_TEMPLATE, "sku"),
                ],
                cache=cache,
            )
            out.programs["xhtml"] = TransformProgram(
                b["xhtml"],
                b["wml"],
                "html",
                [
                    Rule("//a/@href", LINK_TEMPLATE, "h"),
                    Rule("body/h1", HEADING_TEMPLATE, "t"),
                ],
                cache=cache,
            )
    if templates:
        out.templates["small"] = compile_template(
            b["po"], gen.SMALL_TEMPLATE, cache, tracer
        )
        out.templates["heavy"] = compile_template(
            b["po"], gen.HEAVY_TEMPLATE, cache, tracer
        )
    return out
