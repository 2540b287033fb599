"""
Pruning a synthetic CHA graph with a Top-N sweep
================================================

Generate a seeded corpus, build exclusion lists of growing size from the
origin frequency table, and watch the edge count fall.  Also contrasts
exhaustive pruning with the selective mode, where a per-edge oracle must
condemn each candidate before it is dropped.
"""

import tempfile
from pathlib import Path

from cgprune import (
    GenParams,
    PruneAllOracle,
    build_exclusion_list,
    find_origins,
    generate_call_graph_cha,
    generate_hierarchy,
    load_exclusion_list,
    origin_edge_frequencies,
    prune_exhaustive,
    prune_selective,
    save_exclusion_list,
)

params = GenParams(type_count=120, signature_pool_size=8,
                   call_sites_per_method=(1, 4), seed=7)
h = generate_hierarchy(params)
cg = generate_call_graph_cha(h, params)
print(f"generated {len(h.types)} types, {cg.node_count} methods, "
      f"{cg.edge_count} edges")

table = origin_edge_frequencies(cg, find_origins(cg, h))
print("\nTop-5 origins by caused edges:")
for origin, count in table.top(5):
    print(f"  {origin.render(h):34s} {count:5d} edge(s)")

print("\nexhaustive Top-N sweep:")
print(f"  {'N':>4s} {'edges':>7s} {'pruned':>7s} {'reduction':>9s}")
for n in (0, 1, 2, 5, 10, 25):
    result = prune_exhaustive(cg, build_exclusion_list(table, n), h)
    print(f"  {n:4d} {result.pruned_graph.edge_count:7d} "
          f"{result.pruned_edges:7d} {result.reduction_ratio:9.3f}")

# selective mode with a prune-all oracle at threshold 0 reproduces the
# exhaustive result; a higher threshold keeps low-confidence candidates
excl = build_exclusion_list(table, 5)
agree = prune_selective(cg, excl, h, PruneAllOracle(), threshold=0.0)
exhaustive = prune_exhaustive(cg, excl, h)
assert agree.pruned_graph.edges == exhaustive.pruned_graph.edges
print(f"\nselective(prune-all, threshold 0) == exhaustive: "
      f"{agree.pruned_edges} edges pruned either way")

# exclusion lists round-trip through a small text file, so a pruning run
# can be repeated elsewhere byte for byte
with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "top5.excl"
    save_exclusion_list(excl, str(path), h)
    print(f"\nsaved exclusion list ({len(excl.origins)} origins):")
    print("  " + "\n  ".join(path.read_text().splitlines()[:4]))
    reloaded = load_exclusion_list(str(path), h)
    assert reloaded == excl
