"""Computational spectral theory for ergodic block Schrodinger operators.

Spectra, integrated density of states, fibered rotation numbers, gap
labels, uniform-hyperbolicity detection, star-product perturbation
bounds, and Aubry duality for operators on l2(Z, C^m) over torus
rotations, the cat map, and the doubling map.
"""

__version__ = "0.1.0"

from .errors import (DegenerateAction, DegenerateFrame, DegreeZeroLeading,
                     EmptySet, ErgospectraError, InvalidInput, InvalidLaw,
                     RefineGrid, RefinementExhausted, SingularMatrix,
                     UnsupportedBase, UnsupportedDirection)
from .model import (BaseDynamics, ConstantPotential, OperatorModel,
                    ScalarTrigPotential, TrigBlockPotential, constant_model,
                    eigenvalue_count, finite_restriction, free_model, ids,
                    restriction_eigenvalues, torus_rotation)
from .cocycle import (LagrangianFrame, cayley, det_kernel_test,
                      frame_to_unitary, mobius_act, transfer_matrices,
                      transfer_product, transfer_step)
from .rotation import (HomotopyPath, PhaseCurves, PhaseLedger, bridge_terms,
                       char_poly_identity, conjugation_shift, omega_matrix,
                       phase_curves, rot_number, rot_number_batch)
from .hyperbolicity import (SectionDegree, SplittingEstimate, section_degree,
                            uh_test, uh_test_many)
from .gaps import GapRecord, LabelGroup, detect_gaps, label_gap, verify_ids_rot
from .perturb import (RandomDiagonalLaw, SpectralSet, check_bigstar,
                      monte_carlo_sigma1, star)
from .duality import (TrigPolynomial, amo_dual_polynomial, build_dual,
                      check_factorization, check_ids_duality, scalar_model)
from .scanengine import ScanResult, scan
