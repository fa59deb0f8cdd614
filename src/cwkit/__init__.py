"""cwkit: weak-convergence diagnostics from one-dimensional projections.

Decide, from samples projected along directions drawn from a
positive-measure region of the sphere, whether a sequence of d-dimensional
distributions is consistent with weak convergence to a target: check
per-direction convergence of projected laws, run the Carleman
moment-determinacy diagnostic along an extracted frame, build an empirical
tightness box, and reconstruct mixed moments from directional moments.
"""

from .directions import (Cap, Direction, FiniteSet, Frame, FullSphere, UnionOfCaps,
                         extract_frame, frame_constant, parse_region,
                         region_measure_estimate, sample_in_region, sample_uniform)
from .errors import (BudgetExhausted, CwkitError, DimensionMismatch, InsufficientRank,
                     OrderExceeded, ParseError, RaggedRows, RankDeficient)
from .gallery import Gaussian, ProductLognormal, mixed_moments_of, sample, switching_pair
from .moments import (CarlemanReport, MixedMoments, MomentSequence, carleman_partial_sums,
                      empirical_moments, homogeneous_dim, mixed_to_directional,
                      moment_sequence, multi_indices, multi_indices_upto, multinomial,
                      reconstruct_mixed, rm_residual)
from .projections import (AtomicMeasure, DistanceTrace, Empirical, Projected1D, SampleSet,
                          distance_trace, ks_distance, project, wasserstein1)
from .verdict import (TightnessBox, VerdictConfig, VerdictReport, aggregate_overall,
                      h1_check, h2_check, moment_match, run_verdict, tightness_box)

__version__ = "0.1.0"
