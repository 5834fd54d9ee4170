"""minent: one-shot entropies of quantum states and channels.

Numerical library and CLI for max-relative entropy, conditional and
dynamical min-entropies, hypothesis-testing entropies, Haar-random
decoupling experiments, and the thermodynamic erasure/preparation costs
of quantum channels.
"""

from .linalg import (DensityOperator, HermitianOperator, TOL, fidelity,
                     herm_eig, maximally_entangled, maximally_mixed,
                     partial_trace, partial_transpose, pure_state, tensor,
                     trace_norm)
from .channels import (IsometryExtension, QuantumChannel, apply, compose,
                       depolarizing, dephasing1, dephasing2, diamond_distance,
                       identity_channel, is_ppt, make_named_channel,
                       povm_channel, replacer, stinespring_isometry,
                       tensor_channels, unitary_channel)
from .entropies import (cond_hypothesis_entropy, cond_min_entropy_down,
                        cond_min_entropy_up, d_hypothesis, d_max, petz_renyi,
                        sandwiched_renyi, smooth_min_entropy_lower_bound)
from .dynamical import (ChannelEntropyReport, channel_min_entropy,
                        channel_min_entropy_scan, env_decoupling_dual,
                        singlet_fidelity_dual,
                        smooth_channel_min_entropy_lower_bound)
from .decoupling import (DecouplingReport, HaarSampler, decouple_channel_mc,
                         decouple_states_mc, erasure_protocol_work,
                         find_decoupled_subsystem)
from .thermo import (CostReport, WorkCost, adversarial_erasure_bound,
                     channel_costs, resource_eras_cost_state,
                     resource_prep_cost_state, sum_bound_check,
                     work_extraction_ledger)

__version__ = "0.1.0"
