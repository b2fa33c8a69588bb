"""Decay bounds for Green matrix blocks and eigenvectors of self-adjoint
block Jacobi operators, verified against directly computed resolvents,
spectra and transfer-matrix asymptotics on finite truncations."""

__version__ = "0.1.0"

from .boundfns import (BoundParams, DecayRate, GapInterval, best_delta,
                       branch_for, gamma_continuous, gamma_discrete,
                       gamma_simplified, inv_psi, inv_psi_d, inv_psi_tilde,
                       inv_psi_tilde_d, phi_delta, psi, psi_d, psi_tilde,
                       psi_tilde_d, w)
from .envelopes import (CumulativeProfile, ProductProfile, commuting_check,
                        cumulative_phi, cumulative_reciprocal,
                        discrete_envelope, operator_envelope, scalar_envelope)
from .errors import (ConvergenceError, DomainError, PairingError,
                     ParameterError, PreconditionError, SingularityError)
from .harness import (EdgeStudyResult, ExperimentConfig, ExperimentResult,
                      VerificationReport, edge_scaling_study, resolve_gap, run,
                      verify_commuting_bound, verify_eigenvector_bound,
                      verify_green_bound)
from .operators import (CarlemanDiagnostic, EntrySequence, TruncatedOperator,
                        assemble_truncation, carleman_check, constant_sequence,
                        custom_sequence, example1_sequence, example2_sequence,
                        example3_sequence, explicit_sequence, load_operator,
                        operator_to_json, with_prefix)
from .spectral import (EigenpairInGap, GreenTable, SpectrumEstimate,
                       band_edges, detect_gap, eigenpairs_in_gap, green_block,
                       period2_symbol_blocks, symbol_spectrum,
                       truncated_spectrum)
from .transfer import (AsymptoticData, MonodromyResult, TransferMatrix,
                       classify_splitting, example2_eigenvalues,
                       example2_min_decay, example3_gap, example3_mu,
                       example3_rho, monodromy, monodromy_splitting,
                       transfer_matrix)

__all__ = [name for name in dir() if not name.startswith("_")]
