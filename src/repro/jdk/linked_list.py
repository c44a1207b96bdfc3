"""``java.util.LinkedList`` analog: doubly linked header ring, fail-fast
iterator — JDK 1.4.2 structure (``header`` sentinel, ``modCount``).

Every node is a :class:`~repro.runtime.sugar.SharedObject`, so node-level
link traversal produces the per-field shared accesses a bytecode
instrumenter would see, and racing structural mutations corrupt traversal
exactly the way they do in Java (a detached node's ``next`` leads nowhere,
the iterator notices the modCount skew, etc.).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.runtime.errors import (
    ConcurrentModificationError,
    IndexOutOfBoundsError,
    NoSuchElementError,
    NullPointerError,
)
from repro.runtime.sugar import SharedObject, SharedVar

from .abstract_collection import AbstractCollection


def _new_node(name: str, element: Any) -> SharedObject:
    return SharedObject(name, element=element, next=None, prev=None)


class LinkedListIterator:
    """``LinkedList.ListItr``: walks nodes, fail-fast on modCount."""

    def __init__(self, owner: "LinkedList", expected_mod_count: int):
        self.owner = owner
        self.next_node: SharedObject | None = None  # filled by _prime
        self.last_returned: SharedObject | None = None
        self.expected_mod_count = expected_mod_count
        self.index = 0

    def _prime(self) -> Generator:
        self.next_node = yield self.owner._header.get("next")

    def has_next(self) -> Generator:
        size = yield self.owner._size.read()
        return self.index != size

    def next(self) -> Generator:
        yield from self._check_comodification()
        size = yield self.owner._size.read()
        if self.index >= size:
            raise NoSuchElementError(f"{self.owner.name}: walked past the tail")
        node = self.next_node
        if node is None or node is self.owner._header:
            raise NoSuchElementError(f"{self.owner.name}: hit the header early")
        element = yield node.get("element")
        self.next_node = yield node.get("next")
        self.last_returned = node
        self.index += 1
        return element

    def remove(self) -> Generator:
        if self.last_returned is None:
            raise NoSuchElementError("next() has not been called")
        yield from self._check_comodification()
        yield from self.owner._unlink(self.last_returned)
        self.last_returned = None
        self.index -= 1
        self.expected_mod_count = yield self.owner._mod_count.read()

    def _check_comodification(self) -> Generator:
        mod_count = yield self.owner._mod_count.read()
        if mod_count != self.expected_mod_count:
            raise ConcurrentModificationError(
                f"{self.owner.name}: modCount {mod_count} != "
                f"expected {self.expected_mod_count}"
            )


class LinkedList(AbstractCollection):
    """Doubly linked list with a sentinel header node."""

    def __init__(self, name: str = "linkedlist"):
        super().__init__(name)
        self._header = _new_node(f"{name}.header", None)
        self._size = SharedVar(f"{name}.size", 0)
        self._mod_count = SharedVar(f"{name}.modCount", 0)
        self._node_counter = 0
        # The empty ring points at itself; defaults express the initial state.
        self._header.set_default("next", self._header)
        self._header.set_default("prev", self._header)

    # --- structural ops --------------------------------------------------- #

    def iterator(self) -> Generator:
        expected = yield self._mod_count.read()
        iterator = LinkedListIterator(self, expected)
        yield from iterator._prime()
        return iterator

    def add(self, value: Any) -> Generator:
        """Append before the header (i.e. at the tail)."""
        yield from self._insert_before(self._header, value)
        return True

    def add_first(self, value: Any) -> Generator:
        successor = yield self._header.get("next")
        yield from self._insert_before(successor, value)

    def get_first(self) -> Generator:
        node = yield self._header.get("next")
        if node is self._header:
            raise NoSuchElementError(f"{self.name} is empty")
        element = yield node.get("element")
        return element

    def remove_first(self) -> Generator:
        node = yield self._header.get("next")
        if node is self._header:
            raise NoSuchElementError(f"{self.name} is empty")
        element = yield node.get("element")
        yield from self._unlink(node)
        return element

    def get(self, index: int) -> Generator:
        node = yield from self._node_at(index)
        element = yield node.get("element")
        return element

    def remove(self, value: Any) -> Generator:
        node = yield self._header.get("next")
        while node is not self._header:
            if node is None:
                raise NullPointerError(f"{self.name}: broken link during scan")
            element = yield node.get("element")
            if element == value:
                yield from self._unlink(node)
                return True
            node = yield node.get("next")
        return False

    # --- internals ---------------------------------------------------------#

    def _insert_before(self, successor: SharedObject, value: Any) -> Generator:
        self._node_counter += 1
        node = _new_node(f"{self.name}.node{self._node_counter}", value)
        predecessor = yield successor.get("prev")
        yield node.set("prev", predecessor)
        yield node.set("next", successor)
        yield predecessor.set("next", node)
        yield successor.set("prev", node)
        size = yield self._size.read()
        yield self._size.write(size + 1)
        yield from self._bump_mod_count()

    def _unlink(self, node: SharedObject) -> Generator:
        predecessor = yield node.get("prev")
        successor = yield node.get("next")
        if predecessor is None or successor is None:
            raise NullPointerError(f"{self.name}: unlinking a detached node")
        yield predecessor.set("next", successor)
        yield successor.set("prev", predecessor)
        size = yield self._size.read()
        yield self._size.write(size - 1)
        yield from self._bump_mod_count()

    def _node_at(self, index: int) -> Generator:
        size = yield self._size.read()
        if not 0 <= index < size:
            raise IndexOutOfBoundsError(f"{self.name}: index {index}, size {size}")
        node = yield self._header.get("next")
        for _ in range(index):
            if node is self._header or node is None:
                raise IndexOutOfBoundsError(f"{self.name}: list shrank mid-walk")
            node = yield node.get("next")
        if node is self._header or node is None:
            raise IndexOutOfBoundsError(f"{self.name}: list shrank mid-walk")
        return node

    def _bump_mod_count(self) -> Generator:
        mod_count = yield self._mod_count.read()
        yield self._mod_count.write(mod_count + 1)
