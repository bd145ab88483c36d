"""Communication analysis for elimination lists under data distributions.

§III-A of the paper works through the interplay of reduction order and data
layout: a flat tree over a block layout moves the killer tile only ``p``
times per panel, while the same tree in natural order over a cyclic layout
moves it ``m`` times.  This package counts those movements exactly —
without running the simulator — and provides the closed-form expectations
the §III-A discussion derives.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.distributed.comm": (
        "CommStats", "count_messages", "kill_messages_per_panel",
    ),
})
