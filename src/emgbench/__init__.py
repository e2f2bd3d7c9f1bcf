"""sEMG gesture recognition: preprocessing, three descriptor families,
a from-scratch classical classifier suite, and a benchmark harness."""

__version__ = "0.1.0"

# numpy imports these on first use (default_rng, median, unique); importing
# them with the package keeps that work out of a run.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401
