"""Corpus-driven laboratory for unsupervised text segmentation.

Builds character n-gram transition models, segments text at the rising
peaks of their transition-freedom profiles, and sweeps hyper-parameters
while recording segmentation F1 together with culture-agnostic metrics
(anti-entropy, compression factor, cross-split F1).
"""

__version__ = "0.1.0"
