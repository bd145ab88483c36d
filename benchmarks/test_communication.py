"""Communication benchmarks: §III-A counts and the CA lower bound.

The paper's §III-A walkthrough quantifies kill-phase messages per panel
for layout/tree combinations (p vs m); this benchmark regenerates those
counts at matrix scale, compares each algorithm's simulated traffic, and
positions everything against the communication-avoiding lower bound.
"""

from conftest import save_and_print

from repro.baselines.bbd10 import bbd10_elimination_list
from repro.bench.runner import BenchSetup, run_config, run_eliminations
from repro.distributed import count_messages
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.models import bandwidth_lower_bound_words
from repro.tiles.layout import Cyclic1D
from repro.trees import FlatTree, panel_elimination_list


def test_kill_message_counts(benchmark, results_dir):
    """§III-A: HQR needs p-1 kill messages per panel; the natural-order
    flat tree needs m-k-1 on a cyclic layout."""
    m, n, p = 120, 8, 15
    lay = Cyclic1D(p)

    def census():
        hqr = count_messages(
            hqr_elimination_list(m, n, HQRConfig(p=p, a=2, low_tree="greedy",
                                                 high_tree="binary")),
            lay, n,
        )
        flat = count_messages(panel_elimination_list(m, n, FlatTree()), lay, n)
        return hqr, flat

    hqr, flat = benchmark.pedantic(census, iterations=1, rounds=1)
    text = (
        f"HQR   kill messages: {hqr.kill_messages:>6}  "
        f"(per panel: {sorted(hqr.panels.values())[-1]})\n"
        f"flat  kill messages: {flat.kill_messages:>6}  "
        f"(per panel: {sorted(flat.panels.values())[-1]})"
    )
    save_and_print(results_dir, "comm_counts.txt", text)
    # HQR: exactly p-1 per panel
    assert all(v == p - 1 for v in hqr.panels.values())
    # natural flat on cyclic: m-k-1 per panel
    assert flat.panels[0] == m - 1
    assert flat.kill_messages > 5 * hqr.kill_messages


def test_simulated_traffic_vs_lower_bound(benchmark, results_dir):
    """Simulated per-node volume dominates the CA-QR bandwidth bound, and
    HQR sits far closer to it than [BBD+10]."""
    setup = BenchSetup()
    m, n = 128, 16
    M, N = m * setup.b, n * setup.b
    nodes = setup.machine.nodes

    def measure():
        hqr = run_config(
            m, n,
            HQRConfig(p=15, q=4, a=4, low_tree="greedy", high_tree="fibonacci"),
            setup,
        )
        bbd = run_eliminations(bbd10_elimination_list(m, n), m, n, setup)
        return hqr, bbd

    hqr, bbd = benchmark.pedantic(measure, iterations=1, rounds=1)
    bound = bandwidth_lower_bound_words(M, N, nodes)
    hqr_words = hqr.bytes_sent / 8 / nodes
    bbd_words = bbd.bytes_sent / 8 / nodes
    text = (
        f"CA-QR lower bound: {bound:14.0f} words/node\n"
        f"HQR measured:      {hqr_words:14.0f} words/node "
        f"({hqr_words / bound:.1f}x bound)\n"
        f"[BBD+10] measured: {bbd_words:14.0f} words/node "
        f"({bbd_words / bound:.1f}x bound)"
    )
    save_and_print(results_dir, "comm_lower_bound.txt", text)
    assert hqr_words >= bound
    assert bbd_words > 1.5 * hqr_words  # communication avoidance, quantified


def test_multilevel_hierarchy(benchmark, results_dir):
    """Extension ([3]'s grid setting): 2 sites x 15 nodes joined by a slow
    WAN link — a site-aware hierarchy must beat a site-oblivious tree."""
    from repro.hqr.multilevel import Level, MultilevelTree
    from repro.runtime.machine import Machine
    from repro.tiles.layout import Cyclic1D as C1
    from repro.verify.reference import ClusterSimulator, TaskGraph

    m, n, b = 120, 8, 280
    mach = Machine(
        nodes=30, cores_per_node=16, site_size=15,
        inter_site_latency=1e-3, inter_site_bandwidth=1.25e8,
    )
    lay = C1(30)

    def measure():
        out = {}
        oblivious = MultilevelTree(m, n, [Level(30, "binary")], a=2,
                                   leaf_tree="greedy")
        aware = MultilevelTree(
            m, n, [Level(2, "binary"), Level(15, "fibonacci")], a=2,
            leaf_tree="greedy",
        )
        for name, tree in (("oblivious (30)", oblivious),
                           ("site-aware (2x15)", aware)):
            g = TaskGraph.from_eliminations(tree.elimination_list(), m, n)
            out[name] = ClusterSimulator(mach, lay, b).run(g).gflops
        return out

    out = benchmark.pedantic(measure, iterations=1, rounds=1)
    text = "\n".join(f"{k:>18}: {v:8.1f} GFlop/s" for k, v in out.items())
    save_and_print(results_dir, "comm_multilevel.txt", text)
    assert out["site-aware (2x15)"] >= out["oblivious (30)"]
