from .tdd import (
    FeatureError,
    fuse,
    root_moments,
    tdd_base,
    tsd_signal_features,
)
from .wavelet import WaveletFilter, dwt, subband_features, wavelet_features
from .extract import FAMILIES, FeatureMatrix, extract

__all__ = [
    "FAMILIES",
    "FeatureError",
    "FeatureMatrix",
    "WaveletFilter",
    "dwt",
    "extract",
    "fuse",
    "root_moments",
    "subband_features",
    "tdd_base",
    "tsd_signal_features",
    "wavelet_features",
]
