"""Splitting-based multiscale FEM with iterative basis functions."""

from .mesh import MeshHierarchy, build_mesh
from .field import (KLEModel, Splitting, build_kle_model, energy_ratio,
                    make_splitting, realize_log_field, split_kle,
                    split_lognormal)
from .fem import (LocalAssembler, LocalOperators, assemble_local_operators,
                  energy_norm, stencil_to_dense)
from .basis import bubble_series, iterative_bases, standard_bases
from .msfem import basis_errors, coarse_solutions, solution_error_bound
from .stochastic import (GreenStore, SampleStatistics, SparseGrid,
                         StochasticConfig, build_sparse_grid,
                         collocation_run, cost_ratios,
                         monte_carlo_run, precompute_green_inverses,
                         sample_theta, smolyak_node_count)

__version__ = "0.1.0"
