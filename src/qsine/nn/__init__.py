"""Minimal numpy neural-network engine (layers, DAG, Adam, checkpoints)."""
from .layers import (
    Activation,
    BatchNorm1D,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
)
from .network import Network
from .optim import Adam

__all__ = [
    "Activation", "Adam", "BatchNorm1D", "Conv1D", "Dense", "Dropout",
    "Flatten", "MaxPool1D", "Network",
]
