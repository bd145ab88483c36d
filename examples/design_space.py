"""Design-space exploration with the analytic model.

Combines two library capabilities the paper's §VI sketches as future
work: fast critical-path/throughput analysis of the whole configuration
space, and verification of the top candidates against the event simulator.

Run:  python examples/design_space.py [--m 128] [--n 16]
"""

import argparse

from repro.hqr import hqr_elimination_list
from repro.models import ConfigExplorer
from repro.runtime import Machine
from repro.runtime.executor import numeric_graph
from repro.tiles.layout import BlockCyclic2D
from viz import parallelism_profile, render_parallelism_profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=128)
    parser.add_argument("--n", type=int, default=16)
    args = parser.parse_args()
    m, n, b = args.m, args.n, 280
    machine = Machine.edel()
    layout = BlockCyclic2D(15, 4)

    print(f"=== model ranking of the HQR space for {m} x {n} tiles ===")
    explorer = ConfigExplorer(m, n, machine, layout, b, grid_p=15, grid_q=4)
    ranked = explorer.rank()
    for rc in ranked[:5]:
        p = rc.prediction
        print(f"  {p.gflops:8.1f} GF/s predicted ({p.binding:>13}-bound)  {rc.config}")

    print("\n=== simulator verification of the top 3 ===")
    for rc, simulated in explorer.verify(ranked, top=3):
        print(f"  model {rc.gflops:8.1f} -> simulated {simulated:8.1f} GF/s  "
              f"{rc.config}")

    best = ranked[0].config
    graph, _ = numeric_graph(hqr_elimination_list(m, n, best), m, n)
    print("\n=== parallelism profile of the winner ===")
    print(render_parallelism_profile(parallelism_profile(graph), label="best"))


if __name__ == "__main__":
    main()
