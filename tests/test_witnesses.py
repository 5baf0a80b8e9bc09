"""Every GSPB route returns an exactlp.LPSolution whose witnesses certify it.

Each case names the route, the LP its witnesses live on (the quotient LP, or
the full LP for deletion and grain, whose orbit solve lifts its witnesses
back) and the instance whose report carries the same optimum.
"""

from functools import partial

import pytest

from gspb import (bounds, channels, exactlp, magnitude, projective, reduction,
                  seqchannels, zchannel)
from gspb.channels import ChannelSpec


def _explicit_solve(spec):
    return exactlp.solve_min_transversal(reduction.full_hypergraph_lp(spec))


CASES = {
    "z-20-2": (partial(zchannel.z_gspb, 20, 2),
               partial(zchannel.z_quotient_lp, 20, 2), ChannelSpec("z", n=20, r=2)),
    "z-23-3": (partial(zchannel.z_gspb, 23, 3),
               partial(zchannel.z_quotient_lp, 23, 3), ChannelSpec("z", n=23, r=3)),
    "z-32-4": (partial(zchannel.z_gspb, 32, 4),
               partial(zchannel.z_quotient_lp, 32, 4), ChannelSpec("z", n=32, r=4)),
    "mag-asym-6-3": (partial(magnitude.asym_gspb, 6, 3),
                     lambda: magnitude.asym_quotient(6, 3).lp,
                     ChannelSpec("mag_asym", n=6, q=3)),
    "mag-sym-6-4": (partial(magnitude.sym_gspb, 6, 4),
                    lambda: magnitude.sym_quotient(6, 4).lp,
                    ChannelSpec("mag_sym", n=6, q=4)),
    "deletion-8": (partial(seqchannels.deletion_full_gspb, 8),
                   partial(seqchannels.deletion_full_lp, 8),
                   ChannelSpec("deletion", n=8)),
    "grain-7": (partial(seqchannels.grain_full_gspb, 7),
                partial(seqchannels.grain_full_lp, 7), ChannelSpec("grain", n=7)),
    "projective-2": (partial(projective.projective_gspb, 2),
                     partial(projective.projective_lp, 2),
                     ChannelSpec("projective", n=2)),
    "projective-7": (partial(projective.projective_gspb, 7),
                     partial(projective.projective_lp, 7),
                     ChannelSpec("projective", n=7)),
    "example-two": (lambda: _explicit_solve(channels.example_two()),
                    lambda: reduction.full_hypergraph_lp(channels.example_two()),
                    channels.example_two()),
}


@pytest.mark.parametrize("case", CASES)
def test_route_witnesses_certify_the_report_value(case):
    route, route_lp, spec = CASES[case]
    sol = route()
    assert isinstance(sol, exactlp.LPSolution)
    assert exactlp.check_certificate(route_lp(), sol.primal, sol.dual) == sol.optimum
    assert bounds.assemble_report(spec).entry("gspb").value == sol.optimum


@pytest.mark.parametrize("case", CASES)
def test_route_keeps_the_scaled_pair_until_read(case):
    # a solution holds the integer-scaled pair the check accepted; primal and
    # dual are its Fraction views, made on first read and kept
    sol = CASES[case][0]()
    assert isinstance(sol.w, exactlp.Scaled) and isinstance(sol.z, exactlp.Scaled)
    assert "primal" not in vars(sol) and "dual" not in vars(sol)
    assert sol.primal == sol.w.fractions() and sol.dual == sol.z.fractions()
    assert sol.primal is sol.primal and sol.dual is sol.dual
