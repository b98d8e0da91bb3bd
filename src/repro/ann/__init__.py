"""ANN index substrate (Faiss substitute): IVF, brute force, k-means."""

from .buffer import GrowableRows
from .flat import FlatIndex
from .ivf import IVFFlatIndex
from .kmeans import assign, kmeans

__all__ = ["FlatIndex", "GrowableRows", "IVFFlatIndex", "assign", "kmeans"]
