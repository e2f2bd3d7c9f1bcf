"""Descriptor families of windowed sEMG: ftdd and tsd (`tdd`), the wavelet
subband family (`wavelet`), and the family table that runs them (`extract`)."""
