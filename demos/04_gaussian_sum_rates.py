"""Sum-rate curves for the Gaussian model with BS cooperation.

Evaluates the data-sharing family (common, independent, private codewords,
and their best), and the cloud-center compression scheme, against the
cut-set reference min(2C, Rsum*) over a fronthaul grid.  With strong
cooperation (T = 2) the data-sharing family dominates compression at every
grid point; the common-codeword scheme alone follows min(C+T, 2C, Rsum*).
"""

from cranbounds import CranNetwork, rsum_star, sweep_rows

P, g12, g21, T = 100.0, 0.5, -0.5, 2.0
config = {
    "P": P, "G": [[1.0, g12], [g21, 1.0]],
    "C_grid": [0.5, 1.0, 2.0, 4.0, 6.0],
    "T": T,
    "schemes": ["GDS-I", "GDS-II", "GDS-III", "GDS-TS", "GCOMP"],
    "seed": 7,
    "budget": {"restarts": 3, "iters": 1500},
}

star = rsum_star(CranNetwork.make(config["G"], P, [1.0, 1.0]))
print(f"second-hop sum capacity (infinite fronthaul, Sato's bound): {star:.4f} bits\n")

rows = sweep_rows(config)
schemes = config["schemes"]
print("   C  " + "".join(f"{s:>9}" for s in schemes) + "   cutset")
for c in config["C_grid"]:
    vals = {r["scheme"]: r for r in rows if r["C"] == c}
    cells = "".join(f"{vals[s]['sum_rate']:9.4f}" for s in schemes)
    print(f"{c:5.1f} {cells} {vals[schemes[0]]['cutset']:9.4f}")

print("\nclosed form for the common-codeword scheme: min(C+T, 2C, Rsum*)")
for c in config["C_grid"]:
    print(f"  C={c:4.1f}: {min(c + T, 2 * c, star):.4f}")
