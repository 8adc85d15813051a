"""Seeded input generator with known answers.

Every document is built from a :class:`random.Random` seeded on the
command line, and the generator records, next to the text, everything
the output checks compare against: the verdict, the element path of the
first fault for labelled mutations, the transform view the program must
produce, and the page body a served route must return.  Nothing here
imports the code under test; escaping, paths and expected strings are
derived independently.

Sizes are stratified: ``n`` documents take the ``(i + 0.5) / n``
quantiles of a log-uniform distribution, each nudged by a small seeded
jitter.  Seeds then change content but not the size profile, so
latency percentiles compare across seeds.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from urllib.parse import quote

WORDS = (
    "alpha bravo cedar delta ember falcon garnet harbor iris juniper kestrel "
    "lumen maple nickel onyx pine quartz raven sable tundra umber vale "
    "willow xenon yarrow zephyr copper basalt meadow orbit signal"
).split()

#: values whose markup needs escaping, so the escape path runs too
SPECIAL = ("R&D", "A<B", "x>y", "Smith & Sons", "Q&A <draft>")

SECREPORT_NS = "http://example.org/secreport"
COMMON_NS = "http://example.org/common"
TECHDOC_NS = "http://example.org/techdoc"
CMDB_NS = "http://example.org/cmdb"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"

#: mutation kinds per document family (wrong_namespace only applies
#: where the schema has a namespace to get wrong)
PLAIN_MUTATIONS = ("reorder", "drop", "duplicate", "bad_facet", "stray_text")
FAMILY_MUTATIONS = {
    "secreport": ("drop", "bad_facet", "wrong_namespace"),
    "techdoc": (
        "reorder",
        "drop",
        "duplicate",
        "bad_facet",
        "stray_text",
        "wrong_namespace",
    ),
    "cmdb": (
        "reorder",
        "drop",
        "duplicate",
        "bad_facet",
        "stray_text",
        "wrong_namespace",
    ),
}


def esc_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def esc_attr(value: str) -> str:
    return esc_text(value).replace('"', "&quot;")


def clark(namespace: str | None, local: str) -> str:
    return f"{{{namespace}}}{local}" if namespace else local


def path_of(*steps: str) -> str:
    return "/" + "/".join(steps)


@dataclass
class Doc:
    """One generated document and its known answers."""

    family: str  #: "po", "xhtml", "secreport", "techdoc" or "cmdb"
    text: str
    valid: bool = True
    mutation: str | None = None  #: mutation kind for invalid documents
    fault_path: str | None = None  #: element path of the first error
    fault_element: str | None = None  #: local name the fault is reported on
    query_hits: int = 0  #: hits of the family's query
    view: str = ""  #: expected transform view (valid po/xhtml only)
    nbytes: int = 0

    def __post_init__(self):
        self.nbytes = len(self.text.encode("utf-8"))


def stratified_sizes(rng: random.Random, n: int, low: float, high: float) -> list[int]:
    """``n`` sizes on the log-uniform quantiles of ``[low, high]`` bytes."""
    ratio = math.log(high / low)
    sizes = []
    for i in range(n):
        u = (i + 0.5 + rng.uniform(-0.05, 0.05)) / n
        sizes.append(int(low * math.exp(ratio * u)))
    return sizes


def _phrase(rng: random.Random, words: int = 3, special: float = 0.1) -> str:
    if rng.random() < special:
        return rng.choice(SPECIAL)
    return " ".join(rng.choice(WORDS) for _ in range(words)).capitalize()


def _token(rng: random.Random) -> str:
    return f"{rng.choice(WORDS)}{rng.randrange(100)}"


# -- purchase orders ----------------------------------------------------------


def _sku(rng: random.Random) -> str:
    letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"
    return f"{rng.randrange(100, 1000)}-{rng.choice(letters)}{rng.choice(letters)}"


def _address(rng: random.Random, tag: str) -> str:
    return (
        f'<{tag} country="US"><name>{esc_text(_phrase(rng, 2, 0.3))}</name>'
        f"<street>{rng.randrange(1, 999)} {esc_text(_phrase(rng, 2, 0))} Street</street>"
        f"<city>{esc_text(_phrase(rng, 1, 0))}</city><state>CA</state>"
        f"<zip>{rng.randrange(10000, 99999)}</zip></{tag}>"
    )


def po_document(
    rng: random.Random, target: int, mutation: str | None = None
) -> Doc:
    """A purchase order of about *target* bytes, optionally mutated."""
    head = (
        f'<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<purchaseOrder orderDate="2026-{rng.randrange(1, 13):02d}-'
        f'{rng.randrange(1, 29):02d}">\n  {_address(rng, "shipTo")}\n  '
        f'{_address(rng, "billTo")}\n'
    )
    if rng.random() < 0.5:
        head += f"  <comment>{esc_text(_phrase(rng, 6, 0.3))}</comment>\n"
    head += "  <items>\n"
    tail = "  </items>\n</purchaseOrder>\n"
    items: list[str] = []
    names: list[str] = []
    skus: list[str] = []
    size = len(head) + len(tail)
    while size < target or not items:
        sku = _sku(rng)
        name = _phrase(rng, 3, 0.15)
        parts = [
            f"<productName>{esc_text(name)}</productName>",
            f"<quantity>{rng.randrange(1, 100)}</quantity>",
            f"<USPrice>{rng.randrange(1, 1000)}.{rng.randrange(100):02d}</USPrice>",
        ]
        if rng.random() < 0.1:
            parts.append(f"<comment>{esc_text(_phrase(rng, 5, 0.3))}</comment>")
        if rng.random() < 0.2:
            parts.append(
                f"<shipDate>2026-{rng.randrange(1, 13):02d}-"
                f"{rng.randrange(1, 29):02d}</shipDate>"
            )
        item = f'    <item partNum="{sku}">{"".join(parts)}</item>\n'
        items.append(item)
        names.append(name)
        skus.append(sku)
        size += len(item)
    doc = Doc("po", "")
    if mutation is not None:
        j = len(items) // 2
        doc.valid = False
        doc.mutation = mutation
        doc.fault_path = path_of("purchaseOrder", "items", "item")
        doc.fault_element = "item"
        item = items[j]
        start = item.index("<productName>")
        end = item.index("</quantity>") + len("</quantity>")
        name_part = item[start : item.index("</productName>") + len("</productName>")]
        qty_part = item[item.index("<quantity>") : end]
        if mutation == "reorder":
            item = item[:start] + qty_part + name_part + item[end:]
        elif mutation == "drop":
            item = item.replace(name_part, "", 1)
        elif mutation == "duplicate":
            item = item.replace(qty_part, qty_part + qty_part, 1)
        elif mutation == "bad_facet":
            bad = rng.choice(("x20", "0", "100", "250", "-3"))
            item = item.replace(qty_part, f"<quantity>{bad}</quantity>", 1)
            doc.fault_path = path_of("purchaseOrder", "items", "item", "quantity")
            doc.fault_element = "quantity"
        elif mutation == "stray_text":
            item = item[:start] + "stray words" + item[start:]
        else:
            raise ValueError(f"no {mutation!r} mutation for purchase orders")
        items[j] = item
    doc.text = head + "".join(items) + tail
    doc.nbytes = len(doc.text.encode("utf-8"))
    doc.query_hits = len(items)
    if doc.valid:
        doc.view = "".join(
            f'<option value="p">{esc_text(name)}</option>' for name in names
        ) + "".join(f"<option>{sku}</option>" for sku in skus)
    return doc


# -- XHTML pages --------------------------------------------------------------


def _href(rng: random.Random) -> str:
    return f"http://example.org/{rng.choice(WORDS)}/{rng.randrange(10000)}.html"


def _inline(rng: random.Random, hrefs: list[str], depth: int = 0) -> str:
    """Mixed content for InlineType; records every <a href> it emits."""
    out = []
    for _ in range(rng.randrange(2, 6)):
        roll = rng.random()
        if roll < 0.45 or depth >= 2:
            out.append(esc_text(_phrase(rng, rng.randrange(2, 9), 0.1)) + " ")
        elif roll < 0.6:
            out.append(f"<b>{_inline(rng, hrefs, depth + 1)}</b>")
        elif roll < 0.72:
            out.append(f"<i>{_inline(rng, hrefs, depth + 1)}</i>")
        elif roll < 0.92:
            href = _href(rng)
            hrefs.append(href)
            out.append(f'<a href="{esc_attr(href)}">{esc_text(_phrase(rng, 2, 0.1))}</a>')
        else:
            out.append("<br/>")
    return "".join(out)


def xhtml_document(
    rng: random.Random,
    target: int,
    mutation: str | None = None,
    hazard: bool = False,
) -> Doc:
    """An XHTML-subset page of about *target* bytes, optionally mutated;
    with *hazard*, one attribute value holds a literal ``>``."""
    title = f"<title>{esc_text(_phrase(rng, 4, 0.2))}</title>"
    metas = [
        f'<meta name="{_token(rng)}" content="{esc_attr(_phrase(rng, 3, 0))}"/>'
        for _ in range(rng.randrange(1, 4))
    ]
    if hazard:
        # '>' inside an attribute value: legal XML the turbo scanner
        # hands to its restart route
        metas[-1] = metas[-1].replace('content="', 'content="x>y ', 1)
    blocks: list[str] = []
    hrefs: list[str] = []
    headings: list[str] = []
    size = 200
    has_list = False
    while size < target or not has_list:
        roll = rng.random()
        if roll < 0.12:
            text = _phrase(rng, 4, 0.2)
            headings.append(text)
            block = f"<h1>{esc_text(text)}</h1>"
        elif roll < 0.22:
            block = f"<h2>{esc_text(_phrase(rng, 4, 0.2))}</h2>"
        elif roll < 0.62:
            block = f"<p>{_inline(rng, hrefs)}</p>"
        elif roll < 0.82 or not has_list:
            lis = "".join(
                f"<li>{_inline(rng, hrefs, 1)}</li>"
                for _ in range(rng.randrange(1, 6))
            )
            block = f"<ul>{lis}</ul>"
            has_list = True
        else:
            rows = "".join(
                "<tr>"
                + "".join(
                    f"<td>{_inline(rng, hrefs, 1)}</td>"
                    for _ in range(rng.randrange(1, 4))
                )
                + "</tr>"
                for _ in range(rng.randrange(1, 4))
            )
            block = f"<table>{rows}</table>"
        blocks.append(block + "\n")
        size += len(block) + 1
    doc = Doc("xhtml", "")
    if mutation is not None:
        doc.valid = False
        doc.mutation = mutation
        doc.fault_path = path_of("html", "head")
        doc.fault_element = "head"
        if mutation == "reorder":
            metas = [metas[0], title] + metas[1:]
            title = ""
        elif mutation == "drop":
            title = ""
        elif mutation == "duplicate":
            title = title + title
        elif mutation == "bad_facet":
            metas[0] = f'<meta name="two words" content="x"/>'
            doc.fault_path = path_of("html", "head", "meta")
            doc.fault_element = "meta"
        elif mutation == "stray_text":
            j = next(i for i, block in enumerate(blocks) if block.startswith("<ul>"))
            blocks[j] = "<ul>stray words" + blocks[j][len("<ul>") :]
            doc.fault_path = path_of("html", "body", "ul")
            doc.fault_element = "ul"
        else:
            raise ValueError(f"no {mutation!r} mutation for XHTML")
    doc.text = (
        "<html>\n<head>" + title + "".join(metas) + "</head>\n<body>\n"
        + "".join(blocks) + "</body>\n</html>\n"
    )
    doc.nbytes = len(doc.text.encode("utf-8"))
    doc.query_hits = len(hrefs)
    if doc.valid:
        doc.view = "".join(
            f'<a href="{esc_attr(href)}">go</a>' for href in hrefs
        ) + "".join(f"<p>{esc_text(text)}</p>" for text in headings)
    return doc


# -- namespaced families, scaled up from the gauntlet -------------------------


def secreport_document(
    rng: random.Random, target: int, mutation: str | None = None
) -> Doc:
    """A security report with many ``r:finding``s (xsd:import family)."""
    r, c = rng.choice((("r", "c"), ("sec", "shared"), ("rep", "cm")))
    local_common = rng.random() < 0.5  # declare the common ns per finding
    findings = []
    size = 200
    n = 0
    while size < target or not findings:
        n += 1
        decl = f' xmlns:{c}="{COMMON_NS}"' if local_common else ""
        severity = rng.choice(("low", "medium", "high"))
        notes = "".join(
            f"<{c}:note>{esc_text(_phrase(rng, rng.randrange(3, 12), 0.1))}</{c}:note>"
            for _ in range(rng.randrange(0, 4))
        )
        finding = (
            f'  <{r}:finding{decl} id="f{n}" {c}:severity="{severity}">'
            f"{notes}</{r}:finding>\n"
        )
        findings.append(finding)
        size += len(finding)
    doc = Doc("secreport", "")
    if mutation is not None:
        j = len(findings) // 2
        finding = findings[j]
        doc.valid = False
        doc.mutation = mutation
        doc.fault_path = path_of(clark(SECREPORT_NS, "report"), clark(SECREPORT_NS, "finding"))
        doc.fault_element = "finding"
        if mutation == "drop":
            finding = _drop_attribute(finding, f"{c}:severity")
        elif mutation == "bad_facet":
            finding = _set_attribute(finding, f"{c}:severity", "urgent")
        elif mutation == "wrong_namespace":
            finding = finding.replace(
                ">", f"><{r}:note>misfiled</{r}:note>", 1
            )
        else:
            raise ValueError(f"no {mutation!r} mutation for secreport")
        findings[j] = finding
    common_decl = "" if local_common else f' xmlns:{c}="{COMMON_NS}"'
    doc.text = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<{r}:report xmlns:{r}="{SECREPORT_NS}"{common_decl} '
        f'generated="nightly-{rng.randrange(1000)}">\n'
        + "".join(findings)
        + f"</{r}:report>\n"
    )
    doc.nbytes = len(doc.text.encode("utf-8"))
    return doc


def _drop_attribute(tag_text: str, name: str) -> str:
    start = tag_text.index(f" {name}=")
    end = tag_text.index('"', tag_text.index('"', start) + 1) + 1
    return tag_text[:start] + tag_text[end:]


def _set_attribute(tag_text: str, name: str, value: str) -> str:
    start = tag_text.index(f" {name}=")
    end = tag_text.index('"', tag_text.index('"', start) + 1) + 1
    return tag_text[:start] + f' {name}="{value}"' + tag_text[end:]


def techdoc_document(
    rng: random.Random, target: int, mutation: str | None = None
) -> Doc:
    """A technical manual with many para/warning blocks (chameleon include,
    substitution group)."""
    prefixed = rng.random() < 0.5
    p = "td:" if prefixed else ""
    decl = f'xmlns:td="{TECHDOC_NS}"' if prefixed else f'xmlns="{TECHDOC_NS}"'
    blocks = []
    size = 200
    while size < target or not blocks:
        texts = "".join(
            f"<{p}text>{esc_text(_phrase(rng, rng.randrange(3, 14), 0.1))}</{p}text>"
            for _ in range(rng.randrange(0, 4))
        )
        if rng.random() < 0.3:
            severity = rng.choice(("caution", "danger"))
            block = f'  <{p}warning severity="{severity}">{texts}</{p}warning>\n'
        else:
            block = f"  <{p}para>{texts}</{p}para>\n"
        blocks.append(block)
        size += len(block)
    title = f"  <{p}title>{esc_text(_phrase(rng, 4, 0.2))}</{p}title>\n"
    manual = clark(TECHDOC_NS, "manual")
    doc = Doc("techdoc", "")
    if mutation is not None:
        doc.valid = False
        doc.mutation = mutation
        doc.fault_path = path_of(manual)
        doc.fault_element = "manual"
        if mutation == "reorder":
            blocks.insert(1, title)
            title = ""
        elif mutation == "drop":
            j = _index_or_insert(
                blocks, f"<{p}warning", lambda: f'  <{p}warning severity="caution"/>\n', rng
            )
            blocks[j] = _drop_attribute(blocks[j], "severity")
            doc.fault_path = path_of(manual, clark(TECHDOC_NS, "warning"))
            doc.fault_element = "warning"
        elif mutation == "duplicate":
            title = title + title
        elif mutation == "bad_facet":
            j = _index_or_insert(
                blocks, f"<{p}warning", lambda: f'  <{p}warning severity="caution"/>\n', rng
            )
            blocks[j] = _set_attribute(blocks[j], "severity", "mild")
            doc.fault_path = path_of(manual, clark(TECHDOC_NS, "warning"))
            doc.fault_element = "warning"
        elif mutation == "stray_text":
            title = title + "  stray words\n"
        elif mutation == "wrong_namespace":
            j = _index_or_insert(blocks, f"<{p}para", lambda: f"  <{p}para/>\n", rng)
            para = blocks[j]
            if para.rstrip().endswith("/>"):
                para = para.replace("/>", f'><text xmlns="urn:example:other">misfiled</text></{p}para>', 1)
            else:
                para = para.replace(">", '><text xmlns="urn:example:other">misfiled</text>', 1)
            blocks[j] = para
            doc.fault_path = path_of(manual, clark(TECHDOC_NS, "para"))
            doc.fault_element = "para"
        else:
            raise ValueError(f"no {mutation!r} mutation for techdoc")
    doc.text = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<{p}manual {decl} lang="{rng.choice(("en", "de", "fr"))}">\n'
        + title
        + "".join(blocks)
        + f"</{p}manual>\n"
    )
    doc.nbytes = len(doc.text.encode("utf-8"))
    return doc


def _index_or_insert(blocks: list[str], prefix: str, make, rng: random.Random) -> int:
    for j, block in enumerate(blocks):
        if block.lstrip().startswith(prefix):
            return j
    blocks.insert(0, make())
    return 0


def cmdb_document(
    rng: random.Random, target: int, mutation: str | None = None
) -> Doc:
    """A configuration item with many relations (include cycle, xsi:type)."""
    software = rng.random() < 0.5 or mutation == "drop"
    relations = []
    size = 250
    while size < target or not relations:
        relation = (
            f'  <relation kind="{rng.choice(WORDS)}-{rng.randrange(100)}">'
            f"<target>{esc_text(_phrase(rng, 2, 0.1))}</target></relation>\n"
        )
        relations.append(relation)
        size += len(relation)
    name = f"  <name>{esc_text(_phrase(rng, 2, 0.2))}</name>\n"
    version = (
        f"  <version>{rng.randrange(1, 30)}.{rng.randrange(10)}</version>\n"
        if software
        else ""
    )
    item = clark(CMDB_NS, "item")
    doc = Doc("cmdb", "")
    if mutation is not None:
        doc.valid = False
        doc.mutation = mutation
        doc.fault_path = path_of(item)
        doc.fault_element = "item"
        j = len(relations) // 2
        if mutation == "reorder":
            relations.insert(j + 1, name)
            name = ""
        elif mutation == "drop":
            version = ""
        elif mutation == "duplicate":
            name = name + name
        elif mutation == "bad_facet":
            relations[j] = _set_attribute(relations[j], "kind", "not valid")
            doc.fault_path = path_of(item, "relation")
            doc.fault_element = "relation"
        elif mutation == "stray_text":
            relations[j] = relations[j].replace("<target>", "stray words<target>", 1)
            doc.fault_path = path_of(item, "relation")
            doc.fault_element = "relation"
        elif mutation == "wrong_namespace":
            name = name.replace("<name>", "<cm:name>").replace("</name>", "</cm:name>")
        else:
            raise ValueError(f"no {mutation!r} mutation for cmdb")
    xsi = (
        f' xmlns:xsi="{XSI_NS}" xsi:type="cm:SoftwareType"' if software else ""
    )
    doc.text = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<cm:item xmlns:cm="{CMDB_NS}"{xsi}>\n'
        + name
        + "".join(relations)
        + version
        + "</cm:item>\n"
    )
    doc.nbytes = len(doc.text.encode("utf-8"))
    return doc


MAKERS = {
    "po": po_document,
    "xhtml": xhtml_document,
    "secreport": secreport_document,
    "techdoc": techdoc_document,
    "cmdb": cmdb_document,
}


def corpus(
    rng: random.Random,
    families: list[tuple[str, float]],
    count: int,
    low: int,
    high: int,
    invalid_share: float,
) -> list[Doc]:
    """*count* documents over weighted *families*, sizes stratified per
    family, a stratified *invalid_share* of each family mutated, in
    :func:`balanced_order` of size."""
    docs: list[Doc] = []
    for family, weight in families:
        n = max(1, round(count * weight))
        sizes = stratified_sizes(rng, n, low, high)
        n_invalid = max(1, round(n * invalid_share)) if invalid_share else 0
        # spread the invalid documents evenly over the size strata
        invalid_at = {int((k + 0.5) * n / n_invalid) for k in range(n_invalid)}
        kinds = FAMILY_MUTATIONS.get(family, PLAIN_MUTATIONS)
        offset = rng.randrange(len(kinds))
        mutated = 0
        for i, size in enumerate(sizes):
            mutation = None
            if i in invalid_at:
                # every kind in turn, so each one is covered
                mutation = kinds[(offset + mutated) % len(kinds)]
                mutated += 1
            if family == "xhtml":
                # one page in eight, spread over the sizes, takes the
                # turbo scanner's restart route although it is valid
                doc = xhtml_document(rng, size, mutation, hazard=i % 8 == 3)
            else:
                doc = MAKERS[family](rng, size, mutation)
            docs.append(doc)
    docs.sort(key=lambda doc: doc.nbytes)
    return [docs[i] for i in balanced_order(len(docs))]


def balanced_order(n: int) -> list[int]:
    """``0..n-1`` in bit-reversed (van der Corput) order: every prefix
    samples the whole range evenly, so a run that stops part-way through
    a size-sorted corpus has still seen every size stratum."""
    bits = max(1, (n - 1).bit_length())
    order = []
    for i in range(1 << bits):
        j = int(format(i, f"0{bits}b")[::-1], 2)
        if j < n:
            order.append(j)
    return order


# -- served pages --------------------------------------------------------------

SMALL_TEMPLATE = (
    '<shipTo country="US"><name>$name$</name><street>$street$</street>'
    "<city>Mill Valley</city><state>CA</state><zip>$zip$</zip></shipTo>"
)
HEAVY_ITEMS = 150
HEAVY_TEMPLATE = "<items>{}</items>".format(
    "".join(
        f'<item partNum="$p{i}$"><productName>Widget {i}</productName>'
        f"<quantity>$q{i}$</quantity><USPrice>$u{i}$</USPrice></item>"
        for i in range(HEAVY_ITEMS)
    )
)


def small_values(key: int) -> dict[str, str]:
    rng = random.Random(key * 7919 + 1)
    return {
        "name": f"{_phrase(rng, 2, 0.3)} {key}",
        "street": f"{key % 997 + 1} {rng.choice(WORDS).capitalize()} Street",
        "zip": f"{10000 + key % 89999}",
    }


def heavy_values(key: int) -> dict[str, str]:
    values = {}
    for i in range(HEAVY_ITEMS):
        values[f"p{i}"] = f"{100 + (key * 31 + i * 7) % 900}-{chr(65 + (key + i) % 26)}{chr(65 + i % 26)}"
        values[f"q{i}"] = str(1 + (key + i * 13) % 99)
        values[f"u{i}"] = f"{(key * 17 + i) % 1000}.{(key + i) % 100:02d}"
    return values


def substitute(template: str, values: dict[str, str]) -> str:
    """The reference page body: escaped values pasted into the template."""
    out = []
    pos = 0
    while True:
        start = template.find("$", pos)
        if start < 0:
            out.append(template[pos:])
            return "".join(out)
        end = template.index("$", start + 1)
        out.append(template[pos:start])
        out.append(esc_text(values[template[start + 1 : end]]))
        pos = end + 1


def query_string(values: dict[str, str]) -> str:
    return "&".join(f"{k}={quote(v, safe='')}" for k, v in values.items())


class Zipf:
    """Seeded Zipf-like key draws over ``0..n-1`` (exponent *s*)."""

    def __init__(self, n: int, s: float):
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        total = sum(weights)
        acc = 0.0
        self.cdf = []
        for weight in weights:
            acc += weight / total
            self.cdf.append(acc)

    def draw(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self.cdf, rng.random()), len(self.cdf) - 1)


@dataclass
class Request:
    """One scheduled request and its expected answer."""

    due: float  #: seconds after the phase start
    kind: str  #: "small", "heavy" or "post"
    payload: bytes
    key: int = -1  #: hole-value key (GETs)
    doc: Doc | None = None  #: posted document (POSTs)
    phase: int = 0


def post_request(doc: Doc, due: float, phase: int) -> Request:
    body = doc.text.encode("utf-8")
    head = (
        "POST /-/validate HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/xml\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    return Request(due, "post", head + body, doc=doc, phase=phase)


def schedule(
    rng: random.Random,
    rate: float,
    duration: float,
    zipf: Zipf,
    heavy_share: float,
    phase: int = 0,
    start: float = 0.0,
) -> list[Request]:
    """Poisson page GETs at *rate* for *duration* seconds, *heavy_share*
    of them to the heavy page, hole values keyed by Zipf draws."""
    out: list[Request] = []
    t = start + rng.expovariate(rate)
    while t < start + duration:
        kind = "heavy" if rng.random() < heavy_share else "small"
        key = zipf.draw(rng)
        values = small_values(key) if kind == "small" else heavy_values(key)
        target = f"/{kind}?{query_string(values)}"
        payload = f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
        out.append(Request(t, kind, payload, key=key, phase=phase))
        t += rng.expovariate(rate)
    return out


#: the served site: page name -> template source
PAGES = {"small": SMALL_TEMPLATE, "heavy": HEAVY_TEMPLATE}


def expected_page(kind: str, key: int) -> str:
    """The reference body of page *kind* for hole-value key *key*."""
    values = small_values(key) if kind == "small" else heavy_values(key)
    return substitute(PAGES[kind], values)
