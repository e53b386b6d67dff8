"""Training loop, the Adam optimizer, and finite-difference verification.

Loss is binary cross-entropy over the network's sigmoid output.  Gradient
checking runs the network in "check" mode (no dropout, batch-norm on batch
statistics without running updates) and compares backprop gradients with
finite differences coordinate by coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..textops import normalize_text, tokenize
from .network import Network

BCE_EPS = 1e-12
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# a gradient check's finite-difference step, relative to a coordinate's magnitude
GRADIENT_CHECK_STEP = 1e-5


@dataclass
class TrainConfig:
    batch_size: int = 300
    epochs: int = 150
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be a finite number, got {self.learning_rate}")


@dataclass
class History:
    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)


def bce_loss(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient with respect to p."""
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    grad = (pc - y) / (pc * (1.0 - pc)) / len(y)
    return loss, grad


class Adam:
    def __init__(self, params, config: TrainConfig):
        self.params = [p for p in params if p.trainable]
        self.config = config
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.t = 0
        # scratch for one parameter's update, shared by all of them
        size = max((p.value.size for p in self.params), default=0)
        self._scratch = np.empty(size), np.empty(size)

    def step(self) -> None:
        """One update of every parameter, in place.  The operations and
        their order are those of ``m = b1 m + (1 - b1) g``, ``v = b2 v +
        ((1 - b2) g) g`` and ``value -= lr (m / bias1) / (sqrt(v / bias2)
        + eps)``, so the values are the same bit for bit."""
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            step, denom = (x[: g.size].reshape(g.shape) for x in self._scratch)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=step)
            v += np.multiply(step, g, out=step)
            np.divide(m, bias1, out=step)
            step *= self.config.learning_rate
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            p.value -= step


def train_network(
    net: Network,
    x1: np.ndarray,
    x2: np.ndarray,
    y: np.ndarray,
    config: TrainConfig | None = None,
) -> History:
    """Minimize binary cross-entropy with Adam; per-epoch loss/accuracy.

    A diverging run overflows before its loss turns non-finite, so the steps
    run with numpy's overflow and invalid-value warnings off: the loss check
    names the failure once, as a ValueError.
    """
    config = config or TrainConfig()
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if n == 0:
        raise ValueError("no samples to train on")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(net.parameters(), config)
    history = History()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            correct = 0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                net.zero_grads()
                p = net.forward(x1[idx], x2[idx], mode="train")
                loss, dp = bce_loss(p, y[idx])
                if not np.isfinite(loss):
                    raise ValueError(
                        f"loss became non-finite at epoch {epoch}, batch {start // config.batch_size}: "
                        f"p range [{p.min()}, {p.max()}]"
                    )
                net.backward(dp)
                optimizer.step()
                epoch_loss += loss * len(idx)
                correct += int(((p >= 0.5) == (y[idx] == 1)).sum())
            history.loss.append(epoch_loss / n)
            history.accuracy.append(correct / n)
    return history


def gradient_check(
    net: Network,
    x1: np.ndarray,
    x2: np.ndarray,
    y: np.ndarray,
    max_coords_per_param: int = 6,
    seed: int = 0,
    noise_floor: float | None = None,
) -> float:
    """Maximum relative error between backprop and the closest of the
    central, forward and backward differences.

    Coordinates are sampled per parameter tensor (all of them when small);
    the step ``h`` is scaled to each coordinate's magnitude.  Where the loss
    bends within the step (an activation or a max-pool switching), the
    central difference averages two slopes, while the one-sided difference
    on backprop's side of the kink matches it; taking the closest of the
    three can only lower an error, and hides at most a one-sided
    difference's truncation.  Absolute discrepancies below the noise floor
    are ignored: there a difference measures the rounding of the loss, not
    its slope, and would dominate the relative error exactly where gradients
    are vanishingly small and carry no signal about backprop correctness.
    By default the floor is the rounding of one difference of two losses,
    ``sqrt(n) * eps * max(|loss|, 1) / h``: the rounding errors of the ``n``
    multiply-adds of a forward pass, at most the parameter count times the
    input tokens, add up like a random walk of steps of a relative machine
    epsilon.  A given ``noise_floor`` replaces it for every coordinate.
    """
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise ValueError("a gradient check needs a batch of at least one sample")
    if max_coords_per_param < 1:
        raise ValueError(f"max_coords_per_param must be at least 1, got {max_coords_per_param}")
    rng = np.random.default_rng(seed)

    def loss_only() -> float:
        return bce_loss(net.forward(x1, x2, mode="check"), y)[0]

    net.zero_grads()
    p = net.forward(x1, x2, mode="check")
    loss, dp = bce_loss(p, y)
    net.backward(dp)
    n_terms = net.num_params(trainable_only=False) * (np.size(x1) + np.size(x2))
    rounding = math.sqrt(n_terms) * np.finfo(np.float64).eps * max(abs(loss), 1.0)

    worst = 0.0
    for param in net.trainable_parameters():
        flat_value = param.value.ravel()
        flat_grad = param.grad.ravel()
        n = flat_value.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            original = flat_value[c]
            h = GRADIENT_CHECK_STEP * max(1.0, abs(original))
            flat_value[c] = original + h
            up = loss_only()
            flat_value[c] = original - h
            down = loss_only()
            flat_value[c] = original
            bp = flat_grad[c]
            differences = ((up - down) / (2.0 * h), (up - loss) / h, (loss - down) / h)
            fd = min(differences, key=lambda d: abs(bp - d))
            diff = abs(bp - fd)
            if diff <= (rounding / h if noise_floor is None else noise_floor):
                continue
            worst = max(worst, diff / max(abs(bp), abs(fd), 1e-8))
    return worst


# --------------------------------------------------------- input encoding

def build_vocab(texts: list[str]) -> dict[str, int]:
    """Token to index map over normalized text; index 0 is padding."""
    vocab: dict[str, int] = {}
    for text in texts:
        for token in tokenize(normalize_text(text)):
            if token not in vocab:
                vocab[token] = len(vocab) + 1
    return vocab


def encode(texts: list[str], vocab: dict[str, int], seq_len: int) -> np.ndarray:
    """Index-encode texts, truncating or post-padding with zeros."""
    out = np.zeros((len(texts), seq_len), dtype=np.int64)
    for i, text in enumerate(texts):
        ids = [vocab[t] for t in tokenize(normalize_text(text)) if t in vocab]
        ids = ids[:seq_len]
        out[i, : len(ids)] = ids
    return out


def make_toy_pairs(
    n: int, vocab_size: int, seq_len: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separable synthetic pairs: duplicates share a shuffled token bag,
    non-duplicates draw from disjoint vocabulary halves."""
    rng = np.random.default_rng(seed)
    half = (vocab_size - 1) // 2
    x1 = np.zeros((n, seq_len), dtype=np.int64)
    x2 = np.zeros((n, seq_len), dtype=np.int64)
    y = (rng.random(n) < 0.5).astype(np.int64)
    for i in range(n):
        length = int(rng.integers(3, seq_len + 1))
        if y[i] == 1:
            tokens = rng.integers(1, vocab_size, size=length)
            x1[i, :length] = tokens
            x2[i, :length] = rng.permutation(tokens)
        else:
            x1[i, :length] = rng.integers(1, 1 + half, size=length)
            x2[i, :length] = rng.integers(1 + half, vocab_size, size=length)
    return x1, x2, y
