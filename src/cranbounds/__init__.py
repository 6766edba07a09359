"""Rate regions and outer bounds for downlink C-RAN with BS cooperation.

The package is organized around one idea: every rate region is a linear
inequality system whose right-hand sides are symbolic information atoms.
Regions project exactly (Fourier-Motzkin on integer rows) and evaluate
numerically against atom valuations computed from finite-alphabet joint
distributions or joint Gaussian covariances.
"""

from .atoms import AtomSpec, const_atom, gamma_atom, h_atom, mi_atom, parse_atom
from .discrete import (Channel, JointPmf, add_deterministic, blahut_arimoto,
                       compose, entropy, marginalize, mutual_info,
                       random_joint_pmf, total_correlation)
from .discrete import atom_valuation as discrete_atom_valuation
from .gapaudit import (audit, audit_random_instances, cut_capacity, cut_gap_formula,
                       cutset_region, gap_bound)
from .gaussian import (CranNetwork, JointCovariance, capacity_logdet, gauss_mi,
                       gauss_total_correlation, schur_conditional)
from .gaussian import atom_valuation as gaussian_atom_valuation
from .polytope import (AffineExpr, CompiledSystem, ConstraintSystem,
                       FMEBlowupError, LinearConstraint, eliminate_all,
                       fme_eliminate, format_system, is_member, min_slack,
                       parse_system, regions_equal_sampled, resolve_atoms,
                       syntactic_reduce)
from .regions import (SUBSTITUTIONS, CompiledRegion, Substitution, apply_substitution,
                      corollary1_system, corollary2_system, corollary3_feasible,
                      corollary3_system, corollary4_system, corollary5_system, ddf_p1_system,
                      gcomp_theorem2_system, gds_project, gds_theorem1_system, make_region,
                      max_sum_rate, region_to_json)
from .schemes import (GAUSSIAN_SCHEMES, CompressionParams, DescriptionIParams,
                      DescriptionIIParams, DescriptionIIIParams,
                      OptimizerBudget, SchemeEvaluation, build_joint_cov,
                      optimize_scheme, rsum_star, scheme_sumrate, sweep_rows)
from .verify import ExampleReport, example1_run, example2_run

__version__ = "0.1.0"
