"""The one test seam of the process's content-keyed memos.

Two memos live for the whole process and key on content, not on the
object that computed the value: the compiled plans' results
(``repro.nn.plan``: results and captured spine boundaries by ``(chain,
input bits)``, the registry of compiled chains whose boundaries are
captured, the keys forwards asked for, and the links a split's rear half
follows) and the tensor text (``repro.core.snapshot.
codegen``).  Whatever one test computed, a later one may be answered
from.  A test or benchmark that means to run the kernels or the
formatter, or to count hits from a cold start, calls :func:`clear_memos`
first; nothing in the program clears either memo.
"""

from repro.core.snapshot import codegen
from repro.nn import plan


def clear_memos() -> None:
    """Empty both memos and zero their byte and hit counters; arrays
    rendered before the call no longer hold their texts.  A plan
    compiled before the call registers its chain again only when it is
    recompiled, so a test that means to capture its boundaries compiles it
    afterwards."""
    plan._RESULTS.clear()
    plan._BOUNDARIES.clear()
    plan._boundary_bytes = 0
    plan._CHAINS.clear()
    plan._ASKED.clear()
    plan._LINKS.clear()
    codegen._texts.clear()
    codegen._owned.clear()
    codegen._text_cache_hits = 0
    codegen._text_cache_misses = 0


def entries(compiled) -> int:
    """Results the memo holds under a plan's chain."""
    return sum(1 for chain, _ in plan._RESULTS if chain == compiled.chain)
