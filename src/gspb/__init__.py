"""Exact sphere-packing-style upper bounds for non-regular error channels.

The covering optimum of the radius-r ball hypergraph upper-bounds every
code correcting r errors.  This package computes that optimum, and its
cheaper companions, in exact rational arithmetic for the downward binary
channel, limited-magnitude channels, single deletions, grain errors,
binary subspaces, and explicit installed graphs.
"""

from .channels import (CapExceeded, ChannelSpec, EnumerationCapExceeded,
                       GspbError, NotMonotoneError, OracleCapExceeded,
                       QuotientUnavailable, enumerate_vertices,
                       gaussian_binomial, out_ball)
from .exactlp import (CoveringLP, LPSolution, Scaled, TransversalReport,
                      check_certificate, float_presolve, solve_min_transversal,
                      verify_transversal)
from .bounds import BoundReport, assemble_report, aspv, check_monotone, \
    lemma3_transversal, monotonicity_bound
from .reduction import (ClassPartition, QuotientLP,
                        partition_by_canonical_form, quotient_matrix)
from .zchannel import z_gspb
from .projective import projective_gspb

__version__ = "0.1.0"
