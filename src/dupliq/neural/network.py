"""Network composition, the four architecture templates, and persistence.

A network is a set of per-question branches whose outputs are concatenated
and fed to a shared head ending in Dense(1) + Sigmoid.  Question one and
question two are routed to alternating branches, so forward always takes
exactly two index tensors regardless of how many branches an architecture
declares (2, 4, or 6).  :func:`build_architecture` alone decides a
network's shape; the frozen pre-trained rows reach it as one array, so this
package reads no embedding files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .._files import read_document
from .layers import (
    LSTM,
    MODES,
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    Embedding,
    GlobalMaxPool1D,
    LambdaSum,
    Param,
    PReLU,
    Sigmoid,
)

WEIGHTS_FORMAT_VERSION = 2

DEFAULT_DIMS = {
    "seq_len": 40,
    "embed_dim": 300,
    "lstm_units": 300,
    "dense_units": 300,
    "conv_filters": 64,
    "conv_kernel": 3,
    "dropout": 0.2,
}

# head blocks after the merge, per architecture
HEAD_BLOCKS = {1: 1, 2: 1, 3: 4, 4: 8}


@dataclass
class Network:
    arch: int
    branches: list[list]  # even ones read question one, odd ones question two
    head: list
    seq_len: int
    vocab_size: int
    seed: int
    dims: dict = field(default_factory=dict)
    frozen_embed_dim: int | None = None  # width of the frozen rows, if any

    def all_layers(self):
        for branch in self.branches:
            yield from branch
        yield from self.head

    def parameters(self) -> list[Param]:
        out = []
        for layer in self.all_layers():
            out.extend(layer.params())
        return out

    def trainable_parameters(self) -> list[Param]:
        return [p for p in self.parameters() if p.trainable]

    def num_params(self, trainable_only: bool = True) -> int:
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return sum(p.size for p in params)

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.grad[...] = 0.0

    def forward(self, x1: np.ndarray, x2: np.ndarray, mode: str = "infer") -> np.ndarray:
        """Probability of duplication per pair; inputs are (batch, seq_len)
        integer index arrays."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}: expected one of {', '.join(MODES)}")
        for name, x in (("question one", x1), ("question two", x2)):
            if x.ndim != 2 or x.shape[1] != self.seq_len:
                raise ValueError(
                    f"{name} input must be (batch, {self.seq_len}), got {x.shape}"
                )
        inputs = (x1, x2)
        outputs = []
        for i, branch in enumerate(self.branches):
            h = inputs[i % 2]
            for layer in branch:
                h = layer.forward(h, mode)
            outputs.append(h)
        self._merge_widths = [o.shape[1] for o in outputs]
        h = np.concatenate(outputs, axis=1)
        for layer in self.head:
            h = layer.forward(h, mode)
        return h[:, 0]

    def backward(self, dprob: np.ndarray) -> None:
        """Accumulate parameter gradients given d loss / d probability."""
        g = dprob[:, None]
        for layer in reversed(self.head):
            g = layer.backward(g)
        offsets = np.cumsum([0] + self._merge_widths)
        for branch, start, end in zip(self.branches, offsets[:-1], offsets[1:]):
            gb = g[:, start:end]
            for layer in reversed(branch):
                gb = layer.backward(gb)


def build_architecture(
    arch: int,
    vocab_size: int,
    frozen: np.ndarray | None = None,
    toy_dims: dict | None = None,
    seed: int = 0,
) -> Network:
    """Construct one of the four architectures.

    ``toy_dims`` overrides any of ``DEFAULT_DIMS`` (sequence length, widths)
    to scale the network down for tests and demos.  Architectures 2-4 need
    ``frozen``, the ``(vocab_size, dim)`` pre-trained rows of their frozen
    embedding branches (row 0 is the padding index), shared by all of them.

    Every architecture has two LSTM branches; 2-4 add two frozen branches
    of a time-distributed dense and a sum, and 4 two convolutional ones.
    The LSTM and the time-distributed dense each hold their branch's
    embedding and take the token ids themselves, so their input products
    run once per distinct id (``Embedding.project``); the convolutional
    branches start with a standalone embedding.  Either way a branch's
    embedding table is its first parameter, as the manifests list it.
    The head is blocks of dense, PReLU, dropout and batch norm after a
    batch norm of the merge, then ``Dense(1)`` and a sigmoid; architecture
    4's blocks have no PReLU and no batch norm before them.  The architecture
    decides the number of blocks (``HEAD_BLOCKS``): one for architectures 1
    and 2, four for 3 and eight for 4.
    """
    if arch not in (1, 2, 3, 4):
        raise ValueError(f"architecture id must be 1..4, got {arch}")
    frozen_dim = None
    if arch >= 2:
        if frozen is None:
            raise ValueError(f"architecture {arch} requires pre-trained frozen embedding rows")
        if frozen.ndim != 2 or frozen.shape[0] != vocab_size:
            raise ValueError(
                f"frozen embedding rows must be ({vocab_size}, dim), got {frozen.shape}"
            )
        frozen_dim = frozen.shape[1]
    dims = dict(DEFAULT_DIMS)
    if toy_dims:
        unknown = set(toy_dims) - set(dims)
        if unknown:
            raise ValueError(f"unknown dimension overrides: {sorted(unknown)}")
        dims.update(toy_dims)

    rng = np.random.default_rng(seed)
    dropout_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    drop = dims["dropout"]
    dense_units = dims["dense_units"]

    def lstm_branch(name):
        # the table draws from rng before the LSTM's weights do
        embedding = Embedding(vocab_size, dims["embed_dim"], rng, name=f"{name}.embedding")
        return [
            LSTM(
                embedding,
                dims["lstm_units"],
                rng,
                recurrent_dropout=drop,
                dropout_rng=dropout_rng,
                name=f"{name}.lstm",
            ),
        ]

    def frozen_embedding(name):
        return Embedding(
            vocab_size,
            frozen_dim,
            rng,
            weights=frozen,
            trainable=False,
            name=f"{name}.embedding",
        )

    def sum_branch(name):
        return [
            Dense(
                frozen_dim,
                dense_units,
                rng,
                name=f"{name}.tdd",
                embedding=frozen_embedding(name),
            ),
            LambdaSum(),
        ]

    def conv_branch(name):
        filters = dims["conv_filters"]
        kernel = dims["conv_kernel"]
        return [
            frozen_embedding(name),
            Conv1D(frozen_dim, filters, kernel, rng, name=f"{name}.conv1"),
            Dropout(drop, dropout_rng),
            Conv1D(filters, filters, kernel, rng, name=f"{name}.conv2"),
            GlobalMaxPool1D(),
            BatchNorm(filters, name=f"{name}.bn"),
            Dense(filters, dense_units, rng, name=f"{name}.dense"),
            Dropout(drop, dropout_rng),
        ]

    # each kind of branch reads question one, then question two
    kinds = (lstm_branch, sum_branch, conv_branch)[: (1, 2, 2, 3)[arch - 1]]
    branches: list[list] = []
    for build in kinds:
        for _ in (0, 1):
            branches.append(build(f"branch{len(branches)}"))

    width = 2 * dims["lstm_units"] + 2 * dense_units * (len(kinds) - 1)
    plain = arch == 4  # no leading batch norm, no PReLU
    head: list = [] if plain else [BatchNorm(width, name="head.bn0")]
    for i in range(HEAD_BLOCKS[arch]):
        head.append(Dense(width, dense_units, rng, name=f"head.dense{i}"))
        if not plain:
            head.append(PReLU(dense_units, name=f"head.prelu{i}"))
        head.append(Dropout(drop, dropout_rng))
        head.append(BatchNorm(dense_units, name=f"head.bn{i if plain else i + 1}"))
        width = dense_units
    head.append(Dense(width, 1, rng, name="head.out"))
    head.append(Sigmoid())

    return Network(
        arch=arch,
        branches=branches,
        head=head,
        seq_len=dims["seq_len"],
        vocab_size=vocab_size,
        seed=seed,
        dims=dims,
        frozen_embed_dim=frozen_dim,
    )


def save_network(net: Network, prefix: str | Path) -> None:
    """Write <prefix>.json (manifest) and <prefix>.bin (little-endian
    float64 parameter blob in manifest order).

    The manifest, format 2, holds what :func:`build_architecture` takes
    (the architecture, vocabulary size, seed, dimensions and the frozen
    rows' width) and each parameter's name, shape and trainability.  The
    architecture decides the head, and the sequence length is in the
    dimensions, so neither is written apart.
    """
    prefix = Path(prefix)
    params = net.parameters()
    manifest = {
        "format_version": WEIGHTS_FORMAT_VERSION,
        "arch": net.arch,
        "vocab_size": net.vocab_size,
        "seed": net.seed,
        "dims": net.dims,
        "frozen_embed_dim": net.frozen_embed_dim,
        "params": [
            {"name": p.name, "shape": list(p.value.shape), "trainable": p.trainable}
            for p in params
        ],
    }
    with open(prefix.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True)
    blob = np.concatenate([p.value.ravel() for p in params]).astype("<f8")
    blob.tofile(prefix.with_suffix(".bin"))


def load_network(prefix: str | Path) -> Network:
    """Rebuild a network saved by :func:`save_network`; a manifest or weight
    blob that does not describe one raises ValueError naming the manifest."""
    manifest = Path(prefix).with_suffix(".json")
    return read_document(manifest, WEIGHTS_FORMAT_VERSION, "network", lambda doc: _network_from(doc, manifest))


def _network_from(manifest: dict, manifest_path: Path) -> Network:
    frozen = None
    if manifest["arch"] >= 2:
        frozen = np.zeros((manifest["vocab_size"], manifest["frozen_embed_dim"]))
    net = build_architecture(
        manifest["arch"],
        manifest["vocab_size"],
        frozen=frozen,
        toy_dims=manifest["dims"],
        seed=manifest["seed"],
    )
    params = net.parameters()
    if len(params) != len(manifest["params"]):
        raise ValueError("manifest does not match the rebuilt architecture")
    for p, meta in zip(params, manifest["params"]):
        if p.name != meta["name"] or list(p.value.shape) != meta["shape"]:
            raise ValueError(f"parameter mismatch at {meta['name']}")
    total = sum(p.size for p in params)
    blob = manifest_path.with_suffix(".bin").read_bytes()
    if len(blob) != 8 * total:
        raise ValueError(
            f"weight blob holds {len(blob)} bytes, but the manifest's "
            f"{total} float64 values take {8 * total}"
        )
    values = np.frombuffer(blob, dtype="<f8")
    offset = 0
    for p in params:
        p.value[...] = values[offset : offset + p.size].reshape(p.value.shape)
        offset += p.size
    return net
