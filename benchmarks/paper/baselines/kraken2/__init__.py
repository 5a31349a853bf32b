"""Kraken2-style baseline classifier."""

from paper.baselines.kraken2.minimizer import extract_minimizers
from paper.baselines.kraken2.table import MinimizerLcaTable
from paper.baselines.kraken2.classifier import Kraken2Classifier, Kraken2Params

__all__ = [
    "extract_minimizers",
    "MinimizerLcaTable",
    "Kraken2Classifier",
    "Kraken2Params",
]
