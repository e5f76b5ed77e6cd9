#!/usr/bin/env python3
"""Build a small pearl complex and print its Novikov and action pages.

The example is a circle component plus a point component one action level
higher, connected by one local cascade; the action page shows the rank-1
local differential and the Novikov tower shows the lambda-periodic E^1.
"""

import numpy as np

from floerss import chain as ch
from floerss import specseq as ss
from floerss.cli import render_page_table


def main():
    ctx = ch.MonotoneContext(tau=1.5, N=2)
    circle = ch.MorseData.build([("S:0", 0), ("S:1", 1)],
                                [("S:1", "S:0", 1), ("S:1", "S:0", -1)])
    s1 = ch.ComponentDatum.build("S", 1, 0.0, 0, [1, 1], morse=circle)
    pt = ch.ComponentDatum.build("P", 0, 0.7, 4, [1])
    pd = ch.PearlData.build(ctx, [s1, pt],
                            [("P:0.0", "S:1", 1, -1.5, 0.7)], normalize=False)

    print("== action filtration of the local pearl complex ==")
    L = ch.local_pearl_complex(pd)
    fc = ss.action_filtration(L, pd)
    bc = ss.barcode(fc)
    for r in (1, 2):
        pg = bc.page(r)
        print(f"page E^{r}:")
        print("\n".join(render_page_table(pg.dims())))
    final, collapse_r, ok = ss.e_infinity(fc)
    print(f"E^inf (collapse at r = {collapse_r}, convergence {ok}):")
    print("\n".join(render_page_table(final.dims())))

    print()
    print("== Novikov filtration of the full pearl complex (stretched) ==")
    C = ch.pearl_complex(pd)
    fcn = ss.novikov_filtration(C, indexing="stretched")
    p1 = ss.barcode(fcn).page(1)
    print("page E^1 (lambda towers):")
    print("\n".join(render_page_table(p1.dims())))
    print("nonzero differentials at pages:",
          ss.nontrivial_pages(fcn, C.N, indexing="stretched"))


if __name__ == "__main__":
    main()
