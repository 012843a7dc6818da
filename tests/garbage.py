"""What only the cyclic collector would free.

Reference counting frees an object when its last reference goes; an
object in a reference cycle waits for the cyclic collector, which runs when
allocation counts say so.  A finished session that is cyclic garbage is
therefore still resident for a while, and a run's peak memory follows the
collector rather than the program.  :func:`cyclic_garbage` runs a piece of
work with the collector off and reports what a collection afterwards frees,
while the work's return value is still held: whatever that value keeps
alive is live, whatever nothing keeps alive is garbage.
"""

import gc
import types
from collections import Counter
from typing import Any, Callable


def type_name(obj: Any) -> str:
    return f"{_module(obj)}.{type(obj).__qualname__}"


def _module(obj: Any) -> str:
    module = type(obj).__module__
    return module if isinstance(module, str) else ""  # a metatype's descriptor


def _is_repro(obj: Any) -> bool:
    return _module(obj).startswith("repro.")


def _script_namespaces(objects) -> set:
    """The ids of the app-script functions among ``objects`` and of the
    namespaces they run in (globals and its ``__builtins__``).

    Each runtime compiles its app's script into a namespace of its own
    (``web/scripts.py::compile_functions``): a function's ``__globals__``
    is that namespace and the namespace holds the function, so each pair is
    a cycle by construction, and it holds no ``repro`` object."""
    ids = set()
    for obj in objects:
        if isinstance(obj, types.FunctionType) and obj.__code__.co_filename == "<app-script>":
            ids.update(map(id, (obj, obj.__globals__, obj.__globals__["__builtins__"])))
    return ids


def cyclic_garbage(fn: Callable[[], Any]) -> Counter:
    """Run ``fn()`` with the collector off, then collect once, ``fn``'s
    return value held meanwhile; return what only the collector freed,
    counted by ``module.QualName``: every ``repro`` object, and every other
    object the collection lists except app-script namespace pairs
    (:func:`_script_namespaces`).

    The list (``gc.DEBUG_SAVEALL``) misses what a finalizer frees on the
    way: the collector closes a suspended generator in a cycle before it
    lists the cycle, and closing it drops its frame, so the rest of the
    cycle goes by reference counting.  So ``repro`` objects are counted by
    comparing those alive before the collection with those alive after it,
    outside the list."""
    gc.collect()
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    try:
        kept = fn()
        before = {id(obj): type_name(obj) for obj in gc.get_objects() if _is_repro(obj)}
        start = len(gc.garbage)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
        finally:
            gc.set_debug(flags)
        listed = gc.garbage[start:]
        del gc.garbage[start:]
        survivors = {id(obj) for obj in gc.get_objects()}
        survivors.difference_update(map(id, listed))
        del kept
    finally:
        if enabled:
            gc.enable()
    found = Counter(name for ident, name in before.items() if ident not in survivors)
    namespaces = _script_namespaces(listed)
    found.update(
        type_name(obj) for obj in listed
        if not _is_repro(obj) and id(obj) not in namespaces
    )
    del listed
    gc.collect()
    return found
