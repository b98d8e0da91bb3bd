"""Contrastive training of the chunk encoder (paper Section 4.3.1, Eq. 2).

There are no similarity labels for FFT-input chunks, so the paper trains the
encoder to make *embedding distances mirror chunk distances*::

    L = | ||z_a - z_b||_2  -  ||Ch_a - Ch_b||_2 |            (Eq. 2)

where the L2 distance between the raw chunks serves as the ground-truth
label.  An encoder trained this way lets the memoization database translate
its key-space distance threshold directly into a chunk-space similarity
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cnn import ChunkEncoder

__all__ = ["pair_loss", "SGD", "train_contrastive", "TrainReport"]


def pair_loss(
    za: np.ndarray, zb: np.ndarray, label: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Eq. 2 loss for one pair plus gradients w.r.t. both embeddings."""
    diff = za - zb
    dist = float(np.linalg.norm(diff))
    r = dist - label
    loss = abs(r)
    if dist < 1e-12:
        # degenerate pair: subgradient 0 for the distance term
        return loss, np.zeros_like(za), np.zeros_like(zb)
    g = np.sign(r) * diff / dist
    return loss, g.astype(np.float32), (-g).astype(np.float32)


class SGD:
    """Plain SGD with momentum over :class:`~repro.nn.layers.Param` lists."""

    def __init__(self, params, lr: float = 1e-3, momentum: float = 0.9) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._vel = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._vel):
            v *= self.momentum
            v -= self.lr * p.grad
            p.value += v


@dataclass
class TrainReport:
    """Loss trajectory of a contrastive training run."""

    losses: list[float] = field(default_factory=list)


def make_pairs(images: np.ndarray, n_pairs: int, rng: np.random.Generator):
    """Sample index pairs and their chunk-space L2 labels."""
    n = images.shape[0]
    ia = rng.integers(0, n, size=n_pairs)
    ib = rng.integers(0, n, size=n_pairs)
    labels = np.array(
        [float(np.linalg.norm(images[a] - images[b])) for a, b in zip(ia, ib)]
    )
    return ia, ib, labels


def train_contrastive(
    encoder: ChunkEncoder,
    images: np.ndarray,
    n_epochs: int = 5,
    batch_pairs: int = 16,
    lr: float = 1e-3,
    seed: int = 0,
) -> TrainReport:
    """Train the encoder on complex chunk images ``(N, H, W)``.

    Per step, ``batch_pairs`` pairs are embedded in one batched forward pass
    (both pair members concatenated) and the Eq. 2 gradient is backpropagated.
    """
    from .cnn import complex_to_channels

    rng = np.random.default_rng(seed)
    opt = SGD(encoder.params(), lr=lr)
    report = TrainReport()
    steps = max(1, images.shape[0] // batch_pairs)
    for _ in range(n_epochs):
        epoch_loss = 0.0
        for _ in range(steps):
            ia, ib, labels = make_pairs(images, batch_pairs, rng)
            x = complex_to_channels(np.concatenate([images[ia], images[ib]], axis=0))
            z = encoder.forward(x)
            za, zb = z[:batch_pairs], z[batch_pairs:]
            gz = np.zeros_like(z)
            batch_loss = 0.0
            for i in range(batch_pairs):
                loss, ga, gb = pair_loss(za[i], zb[i], labels[i])
                batch_loss += loss
                gz[i] = ga / batch_pairs
                gz[batch_pairs + i] = gb / batch_pairs
            encoder.zero_grad()
            encoder.backward(gz)
            opt.step()
            epoch_loss += batch_loss / batch_pairs
        report.losses.append(epoch_loss / steps)
    return report
