"""Layer primitives with explicit forward/backward passes.

Everything is float64 numpy.  Each layer caches whatever its backward pass
needs during forward; backward accumulates parameter gradients and returns
the gradient with respect to its input.

Modes: "train" (stochastic layers active, batch-norm batch statistics and
running updates), "infer" (deterministic, running statistics), "check"
(gradient verification: stochastic layers disabled, batch-norm uses batch
statistics differentiably but leaves the running buffers untouched).
"""

from __future__ import annotations

import numpy as np

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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Layer:
    def forward(self, x, mode: str):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []


class Dense(Layer):
    """Fully connected layer; 3-d input is treated time-distributed."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name="dense"):
        self.n_in = n_in
        self.n_out = n_out
        self.w = Param(f"{name}.w", glorot_uniform(rng, n_in, n_out, (n_in, n_out)))
        self.b = Param(f"{name}.b", np.zeros(n_out))

    def forward(self, x, mode):
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, grad):
        x = self._x
        if x.ndim == 3:
            flat_x = x.reshape(-1, self.n_in)
            flat_g = grad.reshape(-1, self.n_out)
        else:
            flat_x, flat_g = x, grad
        self.w.grad += flat_x.T @ flat_g
        self.b.grad += flat_g.sum(axis=0)
        return grad @ self.w.value.T

    def params(self):
        return [self.w, self.b]


class Embedding(Layer):
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

    def forward(self, x, mode):
        self._idx = np.asarray(x)
        if self._idx.max(initial=0) >= self.vocab_size:
            raise ValueError("token index out of vocabulary range")
        return self.w.value[self._idx]

    def backward(self, grad):
        if self.w.trainable:
            np.add.at(self.w.grad, self._idx, grad)
        return None  # integer inputs have no gradient

    def params(self):
        return [self.w]


class LSTM(Layer):
    """Single-layer LSTM returning the last hidden state.

    Gate order i, f, g, o packed along the last weight axis; the forget
    gate bias starts at one.  Recurrent dropout applies one fixed mask per
    sequence to the hidden state entering the gates (train mode only).
    """

    def __init__(
        self,
        input_dim: int,
        units: int,
        rng: np.random.Generator,
        recurrent_dropout: float = 0.2,
        dropout_rng: np.random.Generator | None = None,
        name="lstm",
    ):
        self.units = units
        self.recurrent_dropout = recurrent_dropout
        self.dropout_rng = dropout_rng
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
        batch, steps, _ = x.shape
        u = self.units
        if mode == "train" and self.recurrent_dropout > 0.0:
            keep = 1.0 - self.recurrent_dropout
            mask = (self.dropout_rng.random((batch, u)) < keep) / keep
        else:
            mask = np.ones((batch, u))
        h = np.zeros((batch, u))
        c = np.zeros((batch, u))
        cache = []
        for t in range(steps):
            xt = x[:, t, :]
            hp = h * mask
            z = xt @ self.w.value + hp @ self.u.value + self.b.value
            i = sigmoid(z[:, :u])
            f = sigmoid(z[:, u : 2 * u])
            g = np.tanh(z[:, 2 * u : 3 * u])
            o = sigmoid(z[:, 3 * u :])
            c_prev = c
            c = f * c_prev + i * g
            tc = np.tanh(c)
            h = o * tc
            cache.append((xt, hp, i, f, g, o, c_prev, tc))
        self._cache = cache
        self._mask = mask
        self._x_shape = x.shape
        return h

    def backward(self, grad):
        u = self.units
        dx = np.zeros(self._x_shape)
        dh = grad
        dc = np.zeros_like(grad)
        for t in range(len(self._cache) - 1, -1, -1):
            xt, hp, i, f, g, o, c_prev, tc = self._cache[t]
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            df = dc * c_prev
            di = dc * g
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            self.w.grad += xt.T @ dz
            self.u.grad += hp.T @ dz
            self.b.grad += dz.sum(axis=0)
            dx[:, t, :] = dz @ self.w.value.T
            dh = (dz @ self.u.value.T) * self._mask
            dc = dc * f
        return dx

    def params(self):
        return [self.w, self.u, self.b]


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
        right = self.kernel - 1 - left
        padded = np.pad(x, ((0, 0), (left, right), (0, 0)))
        self._padded = padded
        self._steps = steps
        self._left = left
        z = np.broadcast_to(self.b.value, (batch, steps, self.filters)).copy()
        for j in range(self.kernel):
            z += padded[:, j : j + steps, :] @ self.w.value[j]
        return z

    def backward(self, grad):
        steps = self._steps
        dpadded = np.zeros_like(self._padded)
        for j in range(self.kernel):
            self.w.grad[j] += np.einsum(
                "btc,btf->cf", self._padded[:, j : j + steps, :], grad
            )
            dpadded[:, j : j + steps, :] += grad @ self.w.value[j].T
        self.b.grad += grad.sum(axis=(0, 1))
        return dpadded[:, self._left : self._left + steps, :]

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
