"""Splitting-based multiscale finite elements with iterative basis functions."""

from .mesh import MeshHierarchy, build_mesh
from .field import (KLEModel, Splitting, build_kle_model, energy_ratio, eta,
                    make_splitting, realize_log_field, shift_splitting,
                    split_kle, split_lognormal)
from .fem import (LocalAssembler, LocalOperators, assemble_local_operators,
                  energy_norm, fine_reference_solve, solve_spd)
from .basis import (basis_error_bound, bubble_series, iterative_bases,
                    standard_bases)
from .msfem import (CoarseSystem, assemble_coarse_system,
                    solution_error_bound, solve_msfem)
from .stochastic import (GreenStore, SampleStatistics, SparseGrid,
                         StochasticConfig, build_sparse_grid,
                         collocation_run, cost_ratios,
                         monte_carlo_run, precompute_green_inverses,
                         sample_theta, smolyak_node_count)

__version__ = "0.1.0"
