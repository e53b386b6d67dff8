"""Network composition, the four architecture templates, and persistence.

A network is a set of per-question branches whose outputs are concatenated
and fed to a shared head ending in Dense(1) + Sigmoid.  Question one and
question two are routed to alternating branches, so forward always takes
exactly two index tensors regardless of how many branches an architecture
declares (2, 4, or 6).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..embed import EmbeddingTable
from .layers import (
    LSTM,
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
    TimeDistributedDense,
)

WEIGHTS_FORMAT_VERSION = 1

DEFAULT_DIMS = {
    "seq_len": 40,
    "embed_dim": 300,
    "lstm_units": 300,
    "dense_units": 300,
    "conv_filters": 64,
    "conv_kernel": 3,
    "dropout": 0.2,
}

# repeated head blocks after the merge for the two deep architectures
DEFAULT_HEAD_BLOCKS = {3: 4, 4: 8}


@dataclass
class Network:
    arch: int
    branches: list[list]
    branch_inputs: list[int]  # 0 -> question one, 1 -> question two
    head: list
    seq_len: int
    vocab_size: int
    seed: int
    dims: dict = field(default_factory=dict)

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
        for name, x in (("question one", x1), ("question two", x2)):
            if x.ndim != 2 or x.shape[1] != self.seq_len:
                raise ValueError(
                    f"{name} input must be (batch, {self.seq_len}), got {x.shape}"
                )
        inputs = (x1, x2)
        outputs = []
        for branch, which in zip(self.branches, self.branch_inputs):
            h = inputs[which]
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


def embedding_matrix_from_table(
    vocab_index: dict[str, int], table: EmbeddingTable, vocab_size: int
) -> np.ndarray:
    """Rows of pre-trained vectors aligned with token indices.

    Index 0 is the padding row; words missing from the table stay zero.
    """
    out = np.zeros((vocab_size, table.dim))
    for word, idx in vocab_index.items():
        vec = table.lookup(word)
        if vec is not None:
            out[idx] = vec
    return out


def build_architecture(
    arch: int,
    vocab_size: int,
    embedding: EmbeddingTable | None = None,
    vocab_index: dict[str, int] | None = None,
    toy_dims: dict | None = None,
    head_blocks: int | None = None,
    seed: int = 0,
) -> Network:
    """Construct one of the four architectures.

    ``toy_dims`` overrides any of ``DEFAULT_DIMS`` (sequence length, widths)
    to scale the network down for tests and demos.  Architectures 2-4 need
    a pre-trained embedding table for their frozen branches.
    """
    if arch not in (1, 2, 3, 4):
        raise ValueError(f"architecture id must be 1..4, got {arch}")
    if arch >= 2 and embedding is None:
        raise ValueError(f"architecture {arch} requires a pre-trained embedding table")
    dims = dict(DEFAULT_DIMS)
    if toy_dims:
        unknown = set(toy_dims) - set(dims)
        if unknown:
            raise ValueError(f"unknown dimension overrides: {sorted(unknown)}")
        dims.update(toy_dims)
    if head_blocks is None:
        head_blocks = DEFAULT_HEAD_BLOCKS.get(arch, 0)

    rng = np.random.default_rng(seed)
    dropout_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    drop = dims["dropout"]
    units = dims["lstm_units"]
    dense_units = dims["dense_units"]

    branches: list[list] = []
    branch_inputs: list[int] = []

    # two trainable-embedding LSTM branches (all architectures)
    for which in (0, 1):
        name = f"branch{len(branches)}"
        branches.append(
            [
                Embedding(vocab_size, dims["embed_dim"], rng, name=f"{name}.embedding"),
                LSTM(
                    dims["embed_dim"],
                    units,
                    rng,
                    recurrent_dropout=drop,
                    dropout_rng=dropout_rng,
                    name=f"{name}.lstm",
                ),
            ]
        )
        branch_inputs.append(which)

    if arch >= 2:
        # one frozen matrix shared by every pre-trained branch
        frozen = embedding_matrix_from_table(vocab_index or {}, embedding, vocab_size)
        for which in (0, 1):
            name = f"branch{len(branches)}"
            branches.append(
                [
                    Embedding(
                        vocab_size,
                        embedding.dim,
                        rng,
                        weights=frozen,
                        trainable=False,
                        name=f"{name}.embedding",
                    ),
                    TimeDistributedDense(
                        embedding.dim, dense_units, rng, name=f"{name}.tdd"
                    ),
                    LambdaSum(dense_units),
                ]
            )
            branch_inputs.append(which)

    if arch == 4:
        filters = dims["conv_filters"]
        kernel = dims["conv_kernel"]
        for which in (0, 1):
            name = f"branch{len(branches)}"
            branches.append(
                [
                    Embedding(
                        vocab_size,
                        embedding.dim,
                        rng,
                        weights=frozen,
                        trainable=False,
                        name=f"{name}.embedding",
                    ),
                    Conv1D(embedding.dim, filters, kernel, rng, name=f"{name}.conv1"),
                    Dropout(drop, dropout_rng, filters),
                    Conv1D(filters, filters, kernel, rng, name=f"{name}.conv2"),
                    GlobalMaxPool1D(filters),
                    BatchNorm(filters, name=f"{name}.bn"),
                    Dense(filters, dense_units, rng, name=f"{name}.dense"),
                    Dropout(drop, dropout_rng, dense_units),
                ]
            )
            branch_inputs.append(which)

    merge_width = 0
    for branch in branches:
        merge_width += branch[-1].output_width

    head: list = []
    if arch in (1, 2):
        head = [
            BatchNorm(merge_width, name="head.bn0"),
            Dense(merge_width, dense_units, rng, name="head.dense0"),
            PReLU(dense_units, name="head.prelu0"),
            Dropout(drop, dropout_rng, dense_units),
            BatchNorm(dense_units, name="head.bn1"),
        ]
        width = dense_units
    elif arch == 3:
        head = [BatchNorm(merge_width, name="head.bn0")]
        width = merge_width
        for i in range(head_blocks):
            head += [
                Dense(width, dense_units, rng, name=f"head.dense{i}"),
                PReLU(dense_units, name=f"head.prelu{i}"),
                Dropout(drop, dropout_rng, dense_units),
                BatchNorm(dense_units, name=f"head.bn{i + 1}"),
            ]
            width = dense_units
    else:
        head = []
        width = merge_width
        for i in range(head_blocks):
            head += [
                Dense(width, dense_units, rng, name=f"head.dense{i}"),
                Dropout(drop, dropout_rng, dense_units),
                BatchNorm(dense_units, name=f"head.bn{i}"),
            ]
            width = dense_units
    head.append(Dense(width, 1, rng, name="head.out"))
    head.append(Sigmoid())

    return Network(
        arch=arch,
        branches=branches,
        branch_inputs=branch_inputs,
        head=head,
        seq_len=dims["seq_len"],
        vocab_size=vocab_size,
        seed=seed,
        dims=dims,
    )


def save_network(net: Network, prefix: str | Path) -> None:
    """Write <prefix>.json (manifest) and <prefix>.bin (little-endian
    float64 parameter blob in manifest order)."""
    prefix = Path(prefix)
    params = net.parameters()
    manifest = {
        "format_version": WEIGHTS_FORMAT_VERSION,
        "arch": net.arch,
        "vocab_size": net.vocab_size,
        "seq_len": net.seq_len,
        "seed": net.seed,
        "dims": net.dims,
        "head_blocks": _count_head_blocks(net),
        "frozen_embed_dim": _frozen_embed_dim(net),
        "params": [
            {"name": p.name, "shape": list(p.value.shape), "trainable": p.trainable}
            for p in params
        ],
    }
    with open(prefix.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True)
    blob = np.concatenate([p.value.ravel() for p in params]).astype("<f8")
    blob.tofile(prefix.with_suffix(".bin"))


def _count_head_blocks(net: Network) -> int:
    dense = sum(1 for layer in net.head if isinstance(layer, Dense))
    return dense - 1 if net.arch in (3, 4) else 0


def _frozen_embed_dim(net: Network) -> int | None:
    for branch in net.branches:
        first = branch[0]
        if isinstance(first, Embedding) and not first.w.trainable:
            return first.dim
    return None


def load_network(prefix: str | Path) -> Network:
    prefix = Path(prefix)
    with open(prefix.with_suffix(".json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != WEIGHTS_FORMAT_VERSION:
        raise ValueError(f"{prefix}: unsupported weights format")
    table = None
    if manifest["arch"] >= 2:
        table = EmbeddingTable(dim=manifest["frozen_embed_dim"], vocab={})
    net = build_architecture(
        manifest["arch"],
        manifest["vocab_size"],
        embedding=table,
        vocab_index={},
        toy_dims=manifest["dims"],
        head_blocks=manifest["head_blocks"] or None,
        seed=manifest["seed"],
    )
    params = net.parameters()
    if len(params) != len(manifest["params"]):
        raise ValueError("manifest does not match the rebuilt architecture")
    blob = np.fromfile(prefix.with_suffix(".bin"), dtype="<f8")
    offset = 0
    for p, meta in zip(params, manifest["params"]):
        if p.name != meta["name"] or list(p.value.shape) != meta["shape"]:
            raise ValueError(f"parameter mismatch at {meta['name']}")
        n = p.size
        p.value[...] = blob[offset : offset + n].reshape(p.value.shape)
        offset += n
    if offset != blob.size:
        raise ValueError("weight blob size does not match the manifest")
    return net
