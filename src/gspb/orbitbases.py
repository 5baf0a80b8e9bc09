"""Rewrite the stored optimal bases of the deletion and grain orbit quotients:

    python -m gspb.orbitbases

solves every cell up to ``seqchannels.LP_GUARD`` by HiGHS and the exact
crossover (about 3 minutes and 0.5 GB, at deletion n = 15) and writes
``seqchannels.BASES_FILE`` by ``seqchannels.write_orbit_bases``, which
describes the file.  The package imports no part of this module, so that
running it loads ``seqchannels`` once.
"""

from .seqchannels import BASES_FILE, write_orbit_bases

if __name__ == "__main__":
    write_orbit_bases(BASES_FILE)
