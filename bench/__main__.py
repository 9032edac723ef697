"""``python3 -m bench``: see :mod:`bench.cli`."""

import sys

from bench.calibrate import cpu_clock
from bench.cli import main

# The main thread's CPU clock started with the interpreter: what it
# reads now is interpreter start plus every import, setup_s's first term.
sys.exit(main(import_s=cpu_clock()))
