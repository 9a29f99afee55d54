"""The LOCK offset check reads each offset to 1 MHz from the record's
frequency, finer than the record's own ``off=`` field (0.1 GHz).

    python3 -m pytest perfbench/tests -q
"""

import re

from workloads import lock_offsets_ghz, render, set_up


def test_lock_offsets_agree_with_rounded_field():
    sim, _ = set_up(1, render("protect6", 1))
    sim.run()
    offsets = lock_offsets_ghz(sim)
    rounded = [float(re.search(r"off=(-?[0-9.]+)GHz", r.details).group(1))
               for r in sim.trace.records if r.kind == "LOCK"]
    assert offsets and len(offsets) == len(rounded)
    for (_, off), shown in zip(offsets, rounded):
        assert abs(off - shown) <= 0.05 + 0.0005
