"""Constant-gap audit between decode-forward and the cut-set bound.

For every cut (S over BSs, D over users) the relaxed inner and outer bounds
share their fronthaul and log-det terms, so the gap is a pure function of
the cut sizes: |D|/2 + min(|S|, |D| log2 |S|)/2, independent of power.
The audit confirms this on randomized networks and reports the worst cut;
`audit(network)` returns every cut's inner and outer value as two arrays
indexed by (S, D).
"""

import numpy as np

from cranbounds import CranNetwork, audit, audit_random_instances
from cranbounds.gapaudit import cut_gap_formula, gap_bound

net = CranNetwork.make([[1.0, 0.6, -0.4], [0.2, 1.0, 0.8]], P=25.0,
                       C=[1.0, 2.0, 1.5],
                       Ccoop=[[0.0, 0.5, 0.0], [0.5, 0.0, 0.25], [0.0, 0.25, 0.0]])
rep = audit(net)
print(f"3-BS 2-user instance: max gap {rep['max_gap']:.3f} bits, "
      f"bound {rep['bound']:.3f}, pass={rep['pass']}")
print("\nper-cut detail (S, D, inner, outer, gap):")
for i, s in enumerate(rep["S"]):
    for j, d in enumerate(rep["D"]):
        inner, outer = rep["inner"][i, j], rep["outer"][i, j]
        print(f"  S={str(s):>10} D={str(d):>7} "
              f"{inner:8.3f} {outer:8.3f} {outer - inner:6.3f} "
              f"(formula {cut_gap_formula(len(s), len(d)):.3f})")

print("\nrandomized audit over 100 networks with up to 4 BSs and 4 users:")
batch = audit_random_instances(100, seed=0)
print(batch)
print("theoretical bound for the worst shape:", gap_bound(4, 4), "bits per dimension")
