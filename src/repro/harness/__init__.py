"""Experiment harness: datasets and per-figure regenerators."""

from . import experiments
from .datasets import DATASETS, LARGE, MEDIUM, SMALL, DatasetSpec, build

__all__ = [
    "experiments",
    "DATASETS",
    "LARGE",
    "MEDIUM",
    "SMALL",
    "DatasetSpec",
    "build",
]
