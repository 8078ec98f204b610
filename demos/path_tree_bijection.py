#!/usr/bin/env python3
"""The worked path-to-tree example, step by step.

Reproduces the package's central construction on a 2-Dyck path of
down-size 10: the two canonical decompositions, the cyclic shift, the map
into a ternary tree, label transport, and the inverse map.  The paper
defines the map recursively over the last-step decomposition; the package
computes it in one pass over the path, so paths of any depth work.

Run:  python3 demos/path_tree_bijection.py
"""

from peakmod import (
    FamilySpec,
    cyclic_shift,
    e_vector,
    label_features,
    last_step_decompose,
    parse_path,
    path_to_labeled_tree,
    path_to_tree,
    right_peak_decompose,
    stat_vector,
    tree_to_path,
)
from peakmod.render import render_path_ascii, render_tree_ascii

spec = FamilySpec(2)
block = "uuduuuuududd"
big = parse_path(block + "u" + block + "u" + "uud" + "d", spec)

print("The path (k = 2, down-size 10):\n")
print(render_path_ascii(big, label_features(big)))
print(f"\nstatistics (pk_0, pk_1, dd) = {stat_vector(big).key()}")

print("\n" + "=" * 64)
print("Last-step decomposition: P = P_0 u P_1 u P_2 d")
print("=" * 64)
dec = last_step_decompose(big)
for i, part in enumerate(dec.parts):
    print(f"  P_{i} = {part.text() or '(empty)'}")

print("\n" + "=" * 64)
print("Right-peak decomposition and the cyclic shift on P_1")
print("=" * 64)
p1 = dec.parts[1]
rp = right_peak_decompose(p1)
print(f"  P_1 = {p1.text()}")
print(f"  trailing down-run of length {rp.suffix_downs};"
      f" blocks: {[b.text() or 'empty' for b in rp.blocks]}")
shifted = cyclic_shift(p1)
print(f"  one shift rotates each window of 2 blocks:")
print(f"  shift(P_1) = {shifted.text()}")
assert cyclic_shift(shifted) == p1
print("  applying it twice restores P_1 (the shift has order k = 2).")

print("\n" + "=" * 64)
print("The ternary tree")
print("=" * 64)
tree = path_to_labeled_tree(big)
print("\nChild position i+1 collects the residue-i peaks; position 3")
print("collects the double descents.  Node labels carry the original")
print("feature names:\n")
print(render_tree_ascii(tree))
print(f"\nposition counts (e_1, e_2, e_3) = {e_vector(tree)}")
assert e_vector(tree) == stat_vector(big).key()
print("statistic transport holds: the path vector equals the tree vector.")

back = tree_to_path(path_to_tree(big), 2)
assert back == big
print("\nInverting the tree returns the original path exactly.")
