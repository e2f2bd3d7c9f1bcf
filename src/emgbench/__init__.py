"""sEMG gesture recognition: preprocessing, three descriptor families,
a from-scratch classical classifier suite, and a benchmark harness."""

__version__ = "0.1.0"

# numpy imports these on first use (default_rng, median, unique); importing
# them with the package keeps that work out of a run.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .signal_io import DatasetManifest, SignalRecord, generate_synthetic
from .preprocess import WindowSet, bandpass, segment_records
from .features import FeatureMatrix, extract
from .evaluate import ConfusionMatrix, EvaluationReport, metrics, stratified_split

__all__ = [
    "ConfusionMatrix",
    "DatasetManifest",
    "EvaluationReport",
    "FeatureMatrix",
    "SignalRecord",
    "WindowSet",
    "bandpass",
    "extract",
    "generate_synthetic",
    "metrics",
    "segment_records",
    "stratified_split",
]
