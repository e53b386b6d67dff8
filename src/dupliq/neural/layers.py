"""Layer primitives with explicit forward/backward passes.

Everything is float64 numpy.  Each layer caches whatever its backward pass
needs during forward; backward accumulates parameter gradients and returns
the gradient with respect to its input.

Layers work on whole sequences.  Two loops remain: ``LSTM`` steps through
time only for the recurrent product and the activations (step t needs the
hidden state of t - 1), and ``Conv1D.backward`` folds each kernel tap's
input gradient back onto the sequence.

``LSTM`` always holds the ``Embedding`` that feeds it and takes token ids;
``Dense`` may hold one.  Their input product then runs over the table rows
of the distinct ids only (``Embedding.project``), not over every position
of the batch, most of which are padding or repeats; its weight gradient,
and the table's gradient when the table is trainable, come from the
per-position gradients summed per id first.  Those sums add in another
order than a standalone ``Embedding`` then the layer, so the gradients
agree with it to rounding, not bit for bit.  ``build_architecture`` folds
the frozen sum branches' embeddings into their ``Dense``; a frozen table
gets no input gradient product at all.

Modes: "train" (stochastic layers active, batch-norm batch statistics and
running updates), "infer" (deterministic, running statistics), "check"
(gradient verification: stochastic layers disabled, batch-norm uses batch
statistics differentiably but leaves the running buffers untouched).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MODES = ("train", "infer", "check")


class Param:
    def __init__(self, name: str, value: np.ndarray, trainable: bool = True):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.trainable = trainable

    @property
    def size(self) -> int:
        return self.value.size


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random n x n orthogonal matrix (QR of a gaussian, sign-fixed)."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), as exp(z) / (1 + exp(z)) where z < 0 so that no
    exp overflows."""
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


class Layer:
    def forward(self, x, mode: str):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []


class Dense(Layer):
    """Fully connected layer; 3-d input is treated time-distributed.

    Given an ``embedding``, it takes token ids and applies itself to their
    rows by ``Embedding.project``; the embedding's table is then its first
    parameter, and backward returns None.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        rng: np.random.Generator,
        name="dense",
        embedding: Embedding | None = None,
    ):
        self.n_in = n_in
        self.n_out = n_out
        self.embedding = embedding
        self.w = Param(f"{name}.w", glorot_uniform(rng, n_in, n_out, (n_in, n_out)))
        self.b = Param(f"{name}.b", np.zeros(n_out))

    def forward(self, x, mode):
        if self.embedding is not None:
            return self.embedding.project(x, self.w.value, self.b.value)
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, grad):
        flat_g = grad.reshape(-1, self.n_out)
        self.b.grad += flat_g.sum(axis=0)
        if self.embedding is not None:
            self.w.grad += self.embedding.project_backward(flat_g, self.w.value)
            return None
        self.w.grad += self._x.reshape(-1, self.n_in).T @ flat_g
        return grad @ self.w.value.T

    def params(self):
        head = [] if self.embedding is None else self.embedding.params()
        return head + [self.w, self.b]


class Embedding(Layer):
    """Rows of a table looked up by token id.

    Besides feeding the next layer its rows (``forward``), it can stand in
    front of that layer's input product: ``project`` and
    ``project_backward`` are the lookup and the product as one step, with
    one product row per distinct id.
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        rng: np.random.Generator,
        weights: np.ndarray | None = None,
        trainable: bool = True,
        name="embedding",
    ):
        self.vocab_size = vocab_size
        if weights is None:
            weights = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        self.w = Param(f"{name}.w", weights, trainable=trainable)

    def _ids(self, x) -> np.ndarray:
        ids = np.asarray(x)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.vocab_size:
            raise ValueError("token index out of vocabulary range")
        return ids

    def forward(self, x, mode):
        self._idx = self._ids(x)
        return self.w.value[self._idx]

    def backward(self, grad):
        if self.w.trainable:
            np.add.at(self.w.grad, self._idx, grad)
        return None  # integer inputs have no gradient

    def project(self, x, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``forward(x) @ w + b``, computed once per distinct id of ``x``
        and gathered to every position."""
        ids = self._ids(x)
        self._uniq, self._inverse, self._counts = np.unique(
            ids.ravel(), return_inverse=True, return_counts=True
        )
        self._rows = self.w.value[self._uniq]
        return (self._rows @ w + b)[self._inverse].reshape(*ids.shape, w.shape[1])

    def project_backward(self, grad: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Backward of the last ``project``: sum ``grad``'s rows (one per
        position) per distinct id, add the table's gradient when it is
        trainable, and return the gradient of ``w``."""
        order = np.argsort(self._inverse, kind="stable")
        starts = np.cumsum(self._counts) - self._counts
        per_id = np.add.reduceat(grad.reshape(-1, w.shape[1])[order], starts, axis=0)
        if self.w.trainable:
            self.w.grad[self._uniq] += per_id @ w.T
        return self._rows.T @ per_id

    def params(self):
        return [self.w]


class LSTM(Layer):
    """Single-layer LSTM returning the last hidden state.

    Gate order i, f, g, o packed along the last weight axis; the forget
    gate bias starts at one.  Recurrent dropout applies one fixed mask per
    sequence to the hidden state entering the gates (train mode only).
    Backward overwrites each step's cached gates, once read, with their
    gradients, so it runs once per forward.

    It takes token ids: every step's input projection comes from its
    ``embedding`` by ``Embedding.project``, whose table width is the input
    width.  The table is its first parameter, and backward returns None.

    Forward is ``begin`` then ``recur``, and backward ``recur_backward``
    then ``project_backward``.  The two loops draw no random numbers and
    allocate nothing of the batch's size times its steps, so a network can
    run them on another thread while its own thread does the rest.
    """

    def __init__(
        self,
        embedding: Embedding,
        units: int,
        rng: np.random.Generator,
        recurrent_dropout: float = 0.2,
        dropout_rng: np.random.Generator | None = None,
        name="lstm",
    ):
        input_dim = embedding.w.value.shape[1]
        self.units = units
        self.recurrent_dropout = recurrent_dropout
        self.dropout_rng = dropout_rng
        self.embedding = embedding
        self.w = Param(
            f"{name}.w", glorot_uniform(rng, input_dim, units, (input_dim, 4 * units))
        )
        self.u = Param(
            f"{name}.u",
            np.concatenate([orthogonal(rng, units) for _ in range(4)], axis=1),
        )
        bias = np.zeros(4 * units)
        bias[units : 2 * units] = 1.0
        self.b = Param(f"{name}.b", bias)

    def forward(self, x, mode):
        self.begin(x, mode)
        return self.recur()

    def begin(self, x, mode):
        """The part of ``forward`` before the loop: draw the recurrent
        dropout mask, project every step's input at once and make the
        loop's buffers."""
        batch, steps = x.shape[:2]
        u = self.units
        if mode == "train" and self.recurrent_dropout > 0.0:
            keep = 1.0 - self.recurrent_dropout
            self._mask = (self.dropout_rng.random((batch, u)) < keep) / keep
        else:
            self._mask = np.ones((batch, u))
        self._gates = self.embedding.project(x, self.w.value, self.b.value)
        self._hp = np.zeros((batch, steps, u))  # masked hidden state entering each step
        self._cs = np.zeros((batch, steps + 1, u))  # cell state, c_0 = 0 first

    def recur(self):
        """The loop of ``forward`` after ``begin``, adding the recurrent
        term to each step's gates: the last hidden state.  It touches no
        random generator and makes no array of the batch times its steps."""
        gates, hp, cs, mask = self._gates, self._hp, self._cs, self._mask
        batch, steps, u = hp.shape
        h = np.zeros((batch, u))
        for t in range(steps):
            np.multiply(h, mask, out=hp[:, t])
            z = gates[:, t]
            z += hp[:, t] @ self.u.value
            z[:, : 2 * u] = sigmoid(z[:, : 2 * u])
            z[:, 2 * u : 3 * u] = np.tanh(z[:, 2 * u : 3 * u])
            z[:, 3 * u :] = sigmoid(z[:, 3 * u :])
            i, f, g, o = z[:, :u], z[:, u : 2 * u], z[:, 2 * u : 3 * u], z[:, 3 * u :]
            cs[:, t + 1] = f * cs[:, t] + i * g
            h = o * np.tanh(cs[:, t + 1])
        return h

    def backward(self, grad):
        self.recur_backward(grad, np.empty_like(self.u.grad))
        self.project_backward()
        return None

    def recur_backward(self, grad, u_grad: np.ndarray):
        """The backward loop and the gradients of ``u`` and ``b``;
        ``u_grad``, shaped like ``u``, receives this pass's share of
        ``u``'s gradient before it is added.  Like ``recur``, it makes no
        array of the batch times its steps."""
        gates, cs = self._gates, self._cs
        batch, steps, u = self._hp.shape
        dh = grad
        dc = np.zeros_like(grad)
        for t in range(steps - 1, -1, -1):
            z = gates[:, t]
            i, f, g, o = z[:, :u], z[:, u : 2 * u], z[:, 2 * u : 3 * u], z[:, 3 * u :]
            tc = np.tanh(cs[:, t + 1])
            dc = dc + dh * o * (1.0 - tc * tc)
            dz = [
                dc * g * i * (1.0 - i),
                dc * cs[:, t] * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tc * o * (1.0 - o),
            ]
            dc = dc * f
            np.concatenate(dz, axis=1, out=z)
            dh = (z @ self.u.value.T) * self._mask
        flat = gates.reshape(batch * steps, -1)
        self.u.grad += np.matmul(self._hp.reshape(batch * steps, -1).T, flat, out=u_grad)
        self.b.grad += flat.sum(axis=0)

    def project_backward(self):
        """The gradient of ``w`` (and of a trainable table) from the gates'
        gradients ``recur_backward`` left in place."""
        flat = self._gates.reshape(-1, 4 * self.units)
        self.w.grad += self.embedding.project_backward(flat, self.w.value)

    def params(self):
        return self.embedding.params() + [self.w, self.u, self.b]


class LambdaSum(Layer):
    """Sum over the time axis: (batch, steps, width) -> (batch, width)."""

    def forward(self, x, mode):
        self._steps = x.shape[1]
        return x.sum(axis=1)

    def backward(self, grad):
        return np.repeat(grad[:, None, :], self._steps, axis=1)


class Conv1D(Layer):
    """1-d convolution with same padding, stride one, linear activation."""

    def __init__(self, in_channels, filters, kernel, rng, name="conv1d"):
        self.filters = filters
        self.kernel = kernel
        self.w = Param(
            f"{name}.w",
            glorot_uniform(
                rng, kernel * in_channels, filters, (kernel, in_channels, filters)
            ),
        )
        self.b = Param(f"{name}.b", np.zeros(filters))

    def forward(self, x, mode):
        batch, steps, _ = x.shape
        left = (self.kernel - 1) // 2
        self._padded = np.pad(x, ((0, 0), (left, self.kernel - 1 - left), (0, 0)))
        self._left = left
        z = self._columns() @ self.w.value.reshape(-1, self.filters) + self.b.value
        return z.reshape(batch, steps, self.filters)

    def _columns(self):
        """Row (b, t) holds the kernel's taps over padded steps t .. t + kernel - 1.
        Backward rebuilds it rather than keep kernel times the input."""
        windows = sliding_window_view(self._padded, self.kernel, axis=1)  # (b, t, in, tap)
        return windows.transpose(0, 1, 3, 2).reshape(windows.shape[0] * windows.shape[1], -1)

    def backward(self, grad):
        batch, steps, _ = grad.shape
        flat_g = grad.reshape(-1, self.filters)
        flat_w = self.w.value.reshape(-1, self.filters)
        self.w.grad += (self._columns().T @ flat_g).reshape(self.w.value.shape)
        self.b.grad += flat_g.sum(axis=0)
        dcols = (flat_g @ flat_w.T).reshape(batch, steps, self.kernel, -1)
        dpadded = np.zeros_like(self._padded)
        for j in range(self.kernel):
            dpadded[:, j : j + steps] += dcols[:, :, j]
        return dpadded[:, self._left : self._left + steps]

    def params(self):
        return [self.w, self.b]


class GlobalMaxPool1D(Layer):
    def forward(self, x, mode):
        self._shape = x.shape
        self._argmax = x.argmax(axis=1)
        return np.take_along_axis(x, self._argmax[:, None, :], axis=1)[:, 0, :]

    def backward(self, grad):
        dx = np.zeros(self._shape)
        np.put_along_axis(dx, self._argmax[:, None, :], grad[:, None, :], axis=1)
        return dx


class BatchNorm(Layer):
    """Per-feature standardization with learned scale and shift.

    Train/check modes normalize with the batch mean and (biased) variance;
    infer mode uses the running statistics, which only train mode updates.
    """

    def __init__(self, width, momentum=0.99, eps=1e-5, name="batch_norm"):
        self.momentum = momentum
        self.eps = eps
        self.gamma = Param(f"{name}.gamma", np.ones(width))
        self.beta = Param(f"{name}.beta", np.zeros(width))
        self.running_mean = Param(f"{name}.running_mean", np.zeros(width), trainable=False)
        self.running_var = Param(f"{name}.running_var", np.ones(width), trainable=False)

    def forward(self, x, mode):
        if mode == "infer":
            mean = self.running_mean.value
            var = self.running_var.value
        else:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            if mode == "train":
                m = self.momentum
                self.running_mean.value = m * self.running_mean.value + (1 - m) * mean
                self.running_var.value = m * self.running_var.value + (1 - m) * var
        self._xc = x - mean
        self._ivar = 1.0 / np.sqrt(var + self.eps)
        self._xhat = self._xc * self._ivar
        self._batch_stats = mode != "infer"
        return self.gamma.value * self._xhat + self.beta.value

    def backward(self, grad):
        self.gamma.grad += (grad * self._xhat).sum(axis=0)
        self.beta.grad += grad.sum(axis=0)
        dxhat = grad * self.gamma.value
        if not self._batch_stats:
            return dxhat * self._ivar
        n = grad.shape[0]
        dvar = (dxhat * self._xc).sum(axis=0) * (-0.5) * self._ivar**3
        dmean = -(dxhat.sum(axis=0)) * self._ivar + dvar * (-2.0) * self._xc.mean(axis=0)
        return dxhat * self._ivar + dvar * 2.0 * self._xc / n + dmean / n

    def params(self):
        return [self.gamma, self.beta, self.running_mean, self.running_var]


class PReLU(Layer):
    """x for positive inputs, a learnable slope times x otherwise."""

    INITIAL_SLOPE = 0.25

    def __init__(self, width, name="prelu"):
        self.a = Param(f"{name}.a", np.full(width, self.INITIAL_SLOPE))

    def forward(self, x, mode):
        self._x = x
        return np.where(x > 0, x, self.a.value * x)

    def backward(self, grad):
        neg = self._x <= 0
        self.a.grad += np.where(neg, grad * self._x, 0.0).sum(axis=0)
        return grad * np.where(neg, self.a.value, 1.0)

    def params(self):
        return [self.a]


class Dropout(Layer):
    """Zero units with probability rate in train mode, rescaling survivors."""

    def __init__(self, rate, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng

    def forward(self, x, mode):
        if mode == "train" and self.rate > 0.0:
            keep = 1.0 - self.rate
            self._mask = (self.rng.random(x.shape) < keep) / keep
        else:
            self._mask = None
        return x if self._mask is None else x * self._mask

    def backward(self, grad):
        return grad if self._mask is None else grad * self._mask


class Sigmoid(Layer):
    def forward(self, x, mode):
        self._y = sigmoid(x)
        return self._y

    def backward(self, grad):
        return grad * self._y * (1.0 - self._y)
