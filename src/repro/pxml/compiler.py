"""Compile checked templates to V-DOM factory-call code (Fig. 11).

The paper's preprocessor substitutes every XML constructor with "suitable
V-DOM code … V-DOM constructors and content setting method calls".  This
compiler does exactly that: a checked template becomes the source of a
Python function whose body is nested ``factory.create_*`` calls, hole
variables appearing as function parameters.  Compiling the source once
yields a render callable; the source itself is the reviewable artifact
(benchmarks compare it against the interpreted renderer).

Only the DOM route (``Template.render``) runs generated code.  The text
route (``render_text``/``stream_text``) interprets the segment program
of :mod:`repro.pxml.segments` and generates and compiles nothing.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.vdom import lexicalize
from repro.pxml.ast import (
    Hole,
    TemplateAttribute,
    TemplateElement,
    TemplateText,
)
from repro.pxml.checker import CheckedTemplate


def compile_template(
    checked: CheckedTemplate, function_name: str = "render"
) -> tuple[str, Callable[..., Any]]:
    """Return ``(source, callable)`` for *checked*.

    The callable's signature is ``render(factory, *, hole1, hole2, ...)``;
    it returns the constructed root element (a typed V-DOM object).
    """
    source = compile_template_source(checked, function_name)
    return source, load_render(source, checked.holes, function_name)


def load_render(
    source: str, hole_specs: dict[str, Any], function_name: str = "render"
) -> Callable[..., Any]:
    """Compile generated DOM-render *source* against *hole_specs*."""
    namespace: dict[str, Any] = {
        "_lex": lexicalize,
        "_hole_specs": hole_specs,
    }
    exec(compile(source, f"<pxml:{function_name}>", "exec"), namespace)
    return namespace[function_name]


def compile_template_source(
    checked: CheckedTemplate,
    function_name: str = "render",
    spec_prefix: str = "",
) -> str:
    """Just the generated source (for inspection and the preprocessor).

    ``spec_prefix`` namespaces the ``_hole_specs`` lookups so several
    generated functions can share one registry (the preprocessor case).
    """
    return _Compiler(checked).emit(function_name, spec_prefix)


class _Compiler:
    def __init__(self, checked: CheckedTemplate):
        self._checked = checked
        self._binding = checked.binding

    def emit(self, function_name: str, spec_prefix: str = "") -> str:
        holes = self._checked.hole_names()
        parameters = "".join(f", {name}" for name in holes)
        signature = f"def {function_name}(factory"
        if holes:
            signature += f", *{parameters}"
        signature += "):"
        lines = [signature]
        for name, spec in sorted(self._checked.holes.items()):
            if spec.kind == "element":
                lines.append(
                    f"    _hole_specs[{spec_prefix + name!r}].accepts({name})"
                )
        expression = self._element_expression(self._checked.root, depth=1)
        lines.append(f"    return {expression}")
        return "\n".join(lines) + "\n"

    # -- expressions -----------------------------------------------------------

    def _element_expression(self, node: TemplateElement, depth: int) -> str:
        cls = self._class_for(node)
        method = self._binding.factory_method_by_class[cls]
        indent = "    " * (depth + 1)
        arguments: list[str] = []
        for child in node.children:
            if isinstance(child, TemplateText):
                if child.data.strip() or child.cdata:
                    arguments.append(repr(child.data))
                # pure-whitespace literals between elements are layout
            elif isinstance(child, Hole):
                spec = self._checked.holes[child.name]
                if spec.kind == "element":
                    arguments.append(child.name)
                else:
                    arguments.append(f"_lex({child.name})")
            else:
                arguments.append(self._element_expression(child, depth + 1))
        attribute_items: list[str] = []
        for attribute in node.attributes:
            attribute_items.append(
                f"{attribute.name!r}: {self._attribute_expression(attribute)}"
            )
        if attribute_items:
            arguments.append("**{" + ", ".join(attribute_items) + "}")
        if not arguments:
            return f"factory.{method}()"
        joined = f",\n{indent}".join(arguments)
        closing_indent = "    " * depth
        return f"factory.{method}(\n{indent}{joined},\n{closing_indent})"

    def _attribute_expression(self, attribute: TemplateAttribute) -> str:
        pieces: list[str] = []
        for part in attribute.parts:
            if isinstance(part, str):
                pieces.append(repr(part))
            else:
                pieces.append(f"_lex({part.name})")
        if not pieces:
            return "''"
        if len(pieces) == 1:
            piece = pieces[0]
            return piece if piece.startswith("_lex") else piece
        return " + ".join(pieces)

    def _class_for(self, node: TemplateElement) -> type:
        """The class the checker proved for this element node."""
        return self._checked.class_of(node)
