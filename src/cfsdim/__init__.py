"""Hausdorff dimensions of self-similar measures and attractors for IFSs on
the line whose maps share fixed points, with the 4-corner self-affine
application and independent empirical cross-checks."""

from .ifs import (AffineMap1D, BudgetExceeded, CFSystem, ProbVector, Symbol,
                  ValidationError, load_system, map_of, prune_zeros,
                  validate_probabilities, validate_system)
from .words import (Block, BlockSignature, Word, class_weight, compose,
                    count_vector, decompose, enumerate_signatures,
                    enumerate_words)
from .entropy import (PhiResult, RWEntropyResult, lyapunov, phi_lower_bound,
                      phi_monte_carlo, phi_series, rw_entropy_bruteforce,
                      rw_entropy_closed, shannon_entropy)
from .dimension import (DimensionReport, attractor_dimension, gd_dimension,
                        gd_matrix, measure_dimension, similarity_dimension,
                        spectral_radius)
from .separation import (ProbeResult, SeparationReport, collision_buckets,
                         esc_probe, min_gap)
from .fourcorner import (ConditionsNotMet, FourCornerProb, FourCornerSystem,
                         chaos_game_points, chis, measure_dimension_4c,
                         natural_p, phi_xy, render_attractor_ppm,
                         render_cylinders_svg, set_dimension_4c, suff_check,
                         validate_4c)
from .estimate import (ScalingFit, box_dimension_1d, box_dimension_2d,
                       cover_boxes_1d, entropy_slope)

__version__ = "0.1.0"
