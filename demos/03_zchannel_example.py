"""The Z-interference network where compression beats data sharing.

Two BSs with unit fronthaul and no cooperation feed the deterministic
network Y1 = X1, Y2 = X1 xor X2.  The rate pair (1,1) sits on the boundary
of the capacity region.  A compression witness achieves it exactly; a
sweep over data-sharing distributions never reaches it.
"""

from cranbounds import (discrete, gcomp_theorem2_system, is_member, min_slack,
                        verify)

witness = verify.zchannel_pmf()
print("witness law: U1, U2 iid fair bits, X1 = U1, X2 = U1 xor U2")
print("I(U1;Y1) =", discrete.mutual_info(witness, {"U1"}, {"Y1"}))
print("I(U2;Y2) =", discrete.mutual_info(witness, {"U2"}, {"Y2"}))
print("I(U1;U2) =", discrete.mutual_info(witness, {"U1"}, {"U2"}))

caps = {"C1": 1.0, "C2": 1.0, "C12": 0.0, "C21": 0.0}
region = gcomp_theorem2_system()
valuation = discrete.atom_valuation(witness, sorted(region.atoms()), constants=caps)
point = {"R1": 1.0, "R2": 1.0}
print("\ncompression region contains (1,1):",
      is_member(region, valuation, point, tol=0.0),
      "with minimum slack", min_slack(region, valuation, point))

# Every atom is an integer number of bits, so the membership is exact.
report = verify.example2_run(samples=2000, seed=0)
values = report.values
print(f"\ndata-sharing sweep: {values['gds_hits']} of "
      f"{values['gds_samples']} sampled laws contain (1,1)")
print(f"  {values['gds_screened']} ruled out by {values['gds_certificates']} "
      f"banked Farkas certificate(s), "
      f"{values['gds_samples'] - values['gds_screened']} decided by the LP")
print("verdict:", report.verdict)
