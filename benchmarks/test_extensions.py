"""Extension benchmarks beyond the paper's figures.

* **tile size** — §V-A: "b directly influences at least two key
  performance metrics, namely the number of messages sent and the
  granularity of the algorithm";
* **strong scaling** — node-count sweep at fixed problem size.
"""

from conftest import save_and_print

from repro.bench.runner import BenchSetup
from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.runtime.machine import Machine
from repro.tiles.layout import BlockCyclic2D


def test_tile_size_sweep(benchmark, results_dir):
    """Granularity-vs-latency trade-off: fixed matrix, varying b."""
    M, N = 35840, 4480
    cfg_for = lambda: HQRConfig(p=15, q=4, a=4, low_tree="greedy",
                                high_tree="fibonacci")
    lay = BlockCyclic2D(15, 4)

    def sweep():
        out = {}
        for b in (140, 280, 560, 1120):
            m, n = M // b, N // b
            g = TaskGraph.from_eliminations(
                hqr_elimination_list(m, n, cfg_for()), m, n
            )
            res = ClusterSimulator(Machine.edel(), lay, b).run(g, M=M, N=N)
            out[b] = (res.gflops, res.messages)
        return out

    out = benchmark.pedantic(sweep, iterations=1, rounds=1)
    text = "\n".join(
        f"b = {b:>5}: {gf:8.1f} GFlop/s, {msg:>7} messages"
        for b, (gf, msg) in out.items()
    )
    save_and_print(results_dir, "ext_tile_size.txt", text)
    # smaller tiles -> more messages, strictly
    msgs = [out[b][1] for b in (140, 280, 560, 1120)]
    assert msgs == sorted(msgs, reverse=True)
    # the paper's b = 280 must be competitive (within 25% of the best)
    best = max(gf for gf, _ in out.values())
    assert out[280][0] > 0.75 * best


def test_strong_scaling(benchmark, results_dir):
    """Fixed 128 x 16-tile problem, 15 -> 60 nodes."""
    m, n, b = 128, 16, 280

    def sweep():
        out = {}
        for nodes, (p, q) in ((15, (15, 1)), (30, (15, 2)), (60, (15, 4))):
            cfg = HQRConfig(p=p, q=q, a=4, low_tree="greedy", high_tree="fibonacci")
            g = TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)
            mach = Machine(nodes=nodes, cores_per_node=8)
            res = ClusterSimulator(mach, BlockCyclic2D(p, q), b).run(g)
            out[nodes] = res.gflops
        return out

    out = benchmark.pedantic(sweep, iterations=1, rounds=1)
    text = "\n".join(f"{k:>3} nodes: {v:8.1f} GFlop/s" for k, v in out.items())
    save_and_print(results_dir, "ext_strong_scaling.txt", text)
    assert out[30] > out[15]  # scales at all
    assert out[60] < 4 * out[15]  # but sub-linearly (tall-skinny limits)
