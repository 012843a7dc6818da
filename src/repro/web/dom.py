"""A small DOM: document, elements, text nodes, canvas image data.

The example app in the paper's Fig. 2 needs exactly this much DOM: elements
addressable by id (buttons, a canvas, a result div), attributes, text
content, and tree mutation (the inference handler "adds the result text to
the DOM-tree to update the screen").  Canvas elements carry pixel data
(``image_data``) because the app's input image enters the DNN through
``canvas.getImageData()``.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Iterator, List, Optional

from repro.web.values import TypedArray


class DOMError(RuntimeError):
    """Raised on invalid tree operations or unknown element lookups."""


def _parent(node) -> Optional["Element"]:
    ref = node._parent_ref
    return ref() if ref is not None else None


def _set_parent(node, parent: Optional["Element"]) -> None:
    node._parent_ref = weakref.ref(parent) if parent is not None else None


#: A node's link to its parent is weak: a parent holds its children, a
#: child only finds its parent.  Strong links both ways would make every
#: tree a cycle, and a finished page's DOM (canvas pixels included) would
#: wait for the cyclic collector instead of going with its document.
_PARENT = property(_parent, _set_parent, doc="The parent element, or None.")


class TextNode:
    """A leaf holding text content."""

    __slots__ = ("text", "_parent_ref")

    def __init__(self, text: str):
        self.text = str(text)
        self._parent_ref: Optional[weakref.ref] = None

    parent = _PARENT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TextNode({self.text!r})"


class Element:
    """An element node: tag, attributes, children, optional image data."""

    def __init__(self, tag: str, element_id: str = "", **attributes: Any):
        self.tag = tag.lower()
        self.element_id = element_id
        self.attributes: Dict[str, Any] = dict(attributes)
        self.children: List[Any] = []  # Element | TextNode
        self._parent_ref: Optional[weakref.ref] = None
        #: canvas pixel buffer (set by drawImage-style operations)
        self.image_data: Optional[TypedArray] = None

    parent = _PARENT

    # -- tree operations -----------------------------------------------------
    def append_child(self, node) -> None:
        if not isinstance(node, (Element, TextNode)):
            raise DOMError(f"cannot append {type(node).__name__} to <{self.tag}>")
        if isinstance(node, Element) and self._would_create_cycle(node):
            raise DOMError("appending this element would create a DOM cycle")
        if node.parent is not None:
            node.parent.remove_child(node)
        node.parent = self
        self.children.append(node)

    def _would_create_cycle(self, node: "Element") -> bool:
        ancestor: Optional[Element] = self
        while ancestor is not None:
            if ancestor is node:
                return True
            ancestor = ancestor.parent
        return False

    def remove_child(self, node) -> None:
        try:
            self.children.remove(node)
        except ValueError:
            raise DOMError(f"node is not a child of <{self.tag}>") from None
        node.parent = None

    def append_text(self, text: str) -> TextNode:
        node = TextNode(text)
        node.parent = self
        self.children.append(node)
        return node

    def set_text(self, text: str) -> None:
        """Replace all children with a single text node (innerText=)."""
        for child in self.children:
            child.parent = None
        self.children = []
        self.append_text(text)

    # -- content access -----------------------------------------------------------
    @property
    def text_content(self) -> str:
        """Concatenated text of the subtree (innerText)."""
        parts = []
        for child in self.children:
            if isinstance(child, TextNode):
                parts.append(child.text)
            else:
                parts.append(child.text_content)
        return "".join(parts)

    def get_attribute(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    # -- canvas --------------------------------------------------------------------
    def draw_image(self, pixels) -> None:
        """Load pixel data into a canvas element."""
        if self.tag != "canvas":
            raise DOMError(f"draw_image on <{self.tag}>; only canvas holds pixels")
        self.image_data = pixels if isinstance(pixels, TypedArray) else TypedArray(pixels)

    def get_image_data(self) -> TypedArray:
        """The canvas pixel buffer (canvas.getImageData analog)."""
        if self.tag != "canvas":
            raise DOMError(f"get_image_data on <{self.tag}>")
        if self.image_data is None:
            raise DOMError(f"canvas {self.element_id!r} has no image drawn")
        return self.image_data

    # -- traversal --------------------------------------------------------------------
    def walk(self) -> Iterator["Element"]:
        """All element descendants including self, depth-first."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f"#{self.element_id}" if self.element_id else ""
        return f"<{self.tag}{ident} children={len(self.children)}>"


class Document:
    """The DOM root: a <body> plus an id index."""

    def __init__(self) -> None:
        self.body = Element("body", element_id="__body__")

    def create_element(self, tag: str, element_id: str = "", **attributes: Any) -> Element:
        return Element(tag, element_id=element_id, **attributes)

    def get(self, element_id: str) -> Element:
        """getElementById; raises :class:`DOMError` when absent."""
        element = self.find(element_id)
        if element is None:
            raise DOMError(f"no element with id {element_id!r}")
        return element

    def find(self, element_id: str) -> Optional[Element]:
        for element in self.body.walk():
            if element.element_id == element_id:
                return element
        return None

    def element_count(self) -> int:
        return sum(1 for _ in self.body.walk())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Document({self.element_count()} elements)"
