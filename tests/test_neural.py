import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import usable_cpus
from oracles import conv1d_oracle, lstm_oracle

from dupliq.neural import (
    LSTM,
    Adam,
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    Embedding,
    GlobalMaxPool1D,
    LambdaSum,
    PReLU,
    Sigmoid,
    TrainConfig,
    bce_loss,
    build_architecture,
    build_vocab,
    encode,
    gradient_check,
    load_network,
    make_toy_pairs,
    save_network,
    train_network,
)
from dupliq.neural.layers import MODES, Param, sigmoid
from dupliq.neural.network import Network
from dupliq.neural.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

TOY = {"seq_len": 5, "embed_dim": 8, "lstm_units": 10, "dense_units": 12,
       "conv_filters": 6, "conv_kernel": 3, "dropout": 0.2}


def toy_frozen(dim=8, vocab_size=30, seed=0):
    """A zero padding row, then one normal draw per word."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.zeros((1, dim)), rng.normal(size=(vocab_size, dim))])


def toy_net(arch, vocab_size=30, seed=0, **overrides):
    dims = dict(TOY)
    dims.update(overrides)
    return build_architecture(
        arch,
        vocab_size + 1,
        frozen=toy_frozen(dim=dims["embed_dim"], vocab_size=vocab_size),
        toy_dims=dims,
        seed=seed,
    )


def toy_batch(net, n=4, seed=1):
    rng = np.random.default_rng(seed)
    x1 = rng.integers(1, net.vocab_size, size=(n, net.seq_len))
    x2 = rng.integers(1, net.vocab_size, size=(n, net.seq_len))
    y = rng.integers(0, 2, size=n).astype(float)
    return x1, x2, y


# ------------------------------------------------------------ architecture

def test_arch1_default_shapes():
    net = build_architecture(1, vocab_size=50)
    assert net.seq_len == 40
    assert len(net.branches) == 2
    # merge width: two LSTM branches of 300 units
    bn, dense = net.head[:2]
    assert bn.gamma.size == dense.n_in == 600
    assert net.head[-2].n_out == 1
    assert isinstance(net.head[-1], Sigmoid)


def test_arch4_has_six_branches():
    net = build_architecture(4, vocab_size=11, frozen=toy_frozen(dim=300, vocab_size=10))
    assert len(net.branches) == 6
    # merge width: two LSTM, two summed and two convolutional branches of
    # 300 units; architecture 4's head starts with a dense layer
    assert net.head[0].n_in == 1800


def test_arch_errors():
    with pytest.raises(ValueError, match="1..4"):
        build_architecture(5, vocab_size=10)
    with pytest.raises(ValueError, match="pre-trained"):
        build_architecture(2, vocab_size=10)
    # the frozen rows are indexed by token, so there is one per index
    with pytest.raises(ValueError, match=r"\(10, dim\)"):
        build_architecture(3, vocab_size=10, frozen=np.zeros((9, 4)))
    with pytest.raises(ValueError, match=r"\(10, dim\)"):
        build_architecture(4, vocab_size=10, frozen=np.zeros(10))
    with pytest.raises(ValueError, match="unknown dimension"):
        build_architecture(1, vocab_size=10, toy_dims={"bogus": 3})


def lstm_param_count(d, u):
    return 4 * (d * u + u * u + u)


def test_param_count_closed_form_arch1():
    v = 31
    net = toy_net(1, vocab_size=30)
    d, u, dense = TOY["embed_dim"], TOY["lstm_units"], TOY["dense_units"]
    merge = 2 * u
    expected = (
        2 * (v * d)                       # trainable embeddings
        + 2 * lstm_param_count(d, u)      # lstm gates
        + 2 * merge                       # head batch norm scale/shift
        + (merge * dense + dense)         # head dense
        + dense                           # prelu slopes
        + 2 * dense                       # second batch norm
        + (dense * 1 + 1)                 # output dense
    )
    assert net.num_params() == expected


def test_param_count_closed_form_arch4():
    v = 31
    net = toy_net(4, vocab_size=30)
    d, u, dense = TOY["embed_dim"], TOY["lstm_units"], TOY["dense_units"]
    f, k = TOY["conv_filters"], TOY["conv_kernel"]
    merge = 2 * u + 2 * dense + 2 * dense
    conv_branch = (
        (k * d * f + f)      # conv1
        + (k * f * f + f)    # conv2
        + 2 * f              # batch norm
        + (f * dense + dense)
    )
    blocks = 8
    head = 0
    width = merge
    for _ in range(blocks):
        head += width * dense + dense + 2 * dense  # dense + bn
        width = dense
    head += width + 1
    expected = (
        2 * (v * d)
        + 2 * lstm_param_count(d, u)
        + 2 * (d * dense + dense)  # time-distributed dense branches
        + 2 * conv_branch
        + head
    )
    # frozen glove embeddings are not trainable
    assert net.num_params() == expected
    assert net.num_params(trainable_only=False) > expected


# ---------------------------------------------------------------- forward

def test_zero_final_dense_gives_exactly_half():
    net = toy_net(1)
    out_dense = net.head[-2]
    out_dense.w.value[...] = 0.0
    out_dense.b.value[...] = 0.0
    x1, x2, _ = toy_batch(net)
    p = net.forward(x1, x2, mode="infer")
    assert np.all(p == 0.5)


def test_dropout_rate_zero_train_equals_infer():
    net = toy_net(1, dropout=0.0)
    x1, x2, _ = toy_batch(net)
    # batch norm running stats differ between modes; compare two train calls
    # against a check call (dropout off in both when rate is 0)
    p_check = net.forward(x1, x2, mode="check")
    p_check2 = net.forward(x1, x2, mode="check")
    assert np.array_equal(p_check, p_check2)
    net2 = toy_net(1, dropout=0.2)
    p_train = net2.forward(x1, x2, mode="train")
    p_train2 = net2.forward(x1, x2, mode="train")
    assert not np.array_equal(p_train, p_train2)  # dropout masks differ


def test_forward_refuses_an_unknown_mode():
    net = toy_net(1)
    x1, x2, _ = toy_batch(net)
    with pytest.raises(ValueError, match="'eval'.*train, infer, check"):
        net.forward(x1, x2, mode="eval")


def test_micro_dense_sigmoid_hand_forward():
    rng = np.random.default_rng(0)
    dense = Dense(2, 1, rng)
    dense.w.value[...] = np.array([[0.5], [-1.0]])
    dense.b.value[...] = np.array([0.25])
    sig = Sigmoid()
    x = np.array([[1.0, 2.0]])
    p = sig.forward(dense.forward(x, "infer"), "infer")
    want = 1.0 / (1.0 + np.exp(1.25))
    assert p[0, 0] == pytest.approx(want, rel=1e-15)


def test_batch_norm_standardizes_batch():
    rng = np.random.default_rng(3)
    bn = BatchNorm(7)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 7))
    out = bn.forward(x, "train")  # gamma 1, beta 0: output is x-hat
    assert np.abs(out.mean(axis=0)).max() <= 1e-6
    assert np.abs(out.var(axis=0) - 1.0).max() <= 1e-4


def test_batch_norm_running_stats_used_in_infer():
    rng = np.random.default_rng(4)
    bn = BatchNorm(3, momentum=0.0)  # running stats = last batch
    x = rng.normal(size=(32, 3))
    bn.forward(x, "train")
    out = bn.forward(x, "infer")
    ref = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + bn.eps)
    assert np.allclose(out, ref)
    # check mode must not touch running buffers
    before = bn.running_mean.value.copy()
    bn.forward(rng.normal(size=(8, 3)) + 10.0, "check")
    assert np.array_equal(bn.running_mean.value, before)


def test_lambda_sum_one_step_identity():
    layer = LambdaSum()
    x = np.random.default_rng(5).normal(size=(3, 1, 4))
    assert np.array_equal(layer.forward(x, "infer"), x[:, 0, :])


def test_global_max_pool_dominates_inputs():
    rng = np.random.default_rng(6)
    layer = GlobalMaxPool1D()
    x = rng.normal(size=(4, 7, 5))
    out = layer.forward(x, "infer")
    assert np.all(out[:, None, :] >= x)
    assert np.all(out == x.max(axis=1))


def test_prelu_behaviour():
    layer = PReLU(2)
    layer.a.value[...] = [0.1, 0.5]
    x = np.array([[2.0, -2.0], [-1.0, 1.0]])
    out = layer.forward(x, "infer")
    assert np.allclose(out, [[2.0, -1.0], [-0.1, 1.0]])


# ---------------------------------------------------------- gradient check

def micro_net(layers, width, seq_len=3, vocab_size=9, seed=0):
    """Wrap a single branch of output ``width`` as a full network with a
    dense+sigmoid head."""
    rng = np.random.default_rng(seed)
    head = [Dense(2 * width, 1, rng, name="head.out"), Sigmoid()]
    import copy

    branch2 = copy.deepcopy(layers)
    return Network(
        arch=1,
        branches=[layers, branch2],
        head=head,
        seq_len=seq_len,
        vocab_size=vocab_size,
        seed=seed,
    )


# ------------------------------------------------------ layers vs oracles

@given(
    batch=st.integers(1, 4),
    steps=st.integers(1, 6),
    n_in=st.integers(1, 5),
    filters=st.integers(1, 5),
    kernel=st.integers(1, 5),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**16),
)
def test_conv1d_matches_the_per_tap_oracle(batch, steps, n_in, filters, kernel, mode, seed):
    rng = np.random.default_rng(seed)
    conv = Conv1D(n_in, filters, kernel, rng)
    conv.b.value = rng.normal(size=filters)
    x = rng.normal(size=(batch, steps, n_in))
    grad = rng.normal(size=(batch, steps, filters))
    z = conv.forward(x, mode)
    dx = conv.backward(grad)
    want = conv1d_oracle(x, conv.w.value, conv.b.value, grad)
    for got, expected in zip((z, dx, conv.w.grad, conv.b.grad), want):
        np.testing.assert_allclose(got, expected, rtol=1e-10)


def _masked_sigmoid(z):
    # the two-exp form: each sign's half computed on its own copy
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@given(
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 745.2, -745.2]),
        ),
        min_size=1,
        max_size=24,
    ),
    width=st.integers(1, 4),
)
def test_sigmoid_equals_the_masked_formula_bit_for_bit(values, width):
    z = np.resize(np.array(values), (len(values), width))
    want = _masked_sigmoid(z).view(np.int64)
    assert np.array_equal(sigmoid(z).view(np.int64), want)
    # a strided column view, as the LSTM's gate slices are
    assert np.array_equal(sigmoid(z[:, ::2]).view(np.int64), want[:, ::2])


@st.composite
def token_ids(draw):
    """(vocab_size, ids): a small vocabulary so that ids repeat; some rows
    all padding (id 0); vocabulary 1 gives a single distinct id."""
    vocab = draw(st.integers(1, 6))
    batch, steps = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    ids = np.array(
        draw(st.lists(st.integers(0, vocab - 1), min_size=batch * steps, max_size=batch * steps))
    ).reshape(batch, steps)
    padding = draw(st.lists(st.booleans(), min_size=batch, max_size=batch))
    ids[np.array(padding)] = 0
    return vocab, ids


@given(
    ids=token_ids(),
    n_in=st.integers(1, 5),
    units=st.integers(1, 5),
    recurrent_dropout=st.sampled_from([0.0, 0.5]),
    mode=st.sampled_from(MODES),
    trainable=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_lstm_with_its_embedding_matches_the_composition(
    ids, n_in, units, recurrent_dropout, mode, trainable, seed
):
    # the composition is the lookup of every position's row, then the
    # oracle's LSTM stepping through them one at a time
    vocab, x = ids
    rng = np.random.default_rng(seed + 1)
    table = np.random.default_rng(seed).normal(size=(vocab, n_in))
    emb = Embedding(vocab, n_in, None, weights=table.copy(), trainable=trainable)
    # the same dropout draws as the oracle's in train mode
    lstm = LSTM(emb, units, rng, recurrent_dropout, np.random.default_rng(seed))
    lstm.b.value = np.random.default_rng(seed + 2).normal(size=4 * units)
    grad = rng.normal(size=(x.shape[0], units))
    h = lstm.forward(x, mode)
    assert lstm.backward(grad) is None
    want_h, dx, dw, du, db = lstm_oracle(
        table[x], lstm.w.value, lstm.u.value, lstm.b.value, grad, mode,
        recurrent_dropout, np.random.default_rng(seed),
    )
    dtable = np.zeros((vocab, n_in))
    if trainable:
        np.add.at(dtable, x, dx)
    got = (h, lstm.w.grad, lstm.u.grad, lstm.b.grad, emb.w.grad)
    for a, b in zip(got, (want_h, dw, du, db, dtable)):
        np.testing.assert_allclose(a, b, rtol=1e-10)
    assert lstm.params() == [emb.w, lstm.w, lstm.u, lstm.b]


@given(
    ids=token_ids(),
    n_in=st.integers(1, 5),
    n_out=st.integers(1, 5),
    mode=st.sampled_from(MODES),
    trainable=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_dense_with_its_embedding_matches_the_composition(ids, n_in, n_out, mode, trainable, seed):
    # the same layer twice with the same weights: once holding its own
    # embedding, once behind a standalone one
    vocab, x = ids
    rng = np.random.default_rng(seed + 1)
    table = np.random.default_rng(seed).normal(size=(vocab, n_in))
    folded_emb, plain_emb = (
        Embedding(vocab, n_in, None, weights=table.copy(), trainable=trainable) for _ in range(2)
    )
    folded = Dense(n_in, n_out, rng, embedding=folded_emb)
    folded.b.value = np.random.default_rng(seed + 2).normal(size=n_out)
    plain = Dense(n_in, n_out, rng)
    for p, q in zip(folded.params()[1:], plain.params()):
        q.value = p.value.copy()
    grad = rng.normal(size=(*x.shape, n_out))
    z = folded.forward(x, mode)
    assert folded.backward(grad) is None
    want_z = plain.forward(plain_emb.forward(x, mode), mode)
    plain_emb.backward(plain.backward(grad))
    got = (z, folded.w.grad, folded.b.grad, folded_emb.w.grad)
    composed = (want_z, plain.w.grad, plain.b.grad, plain_emb.w.grad)
    for a, b in zip(got, composed):
        np.testing.assert_allclose(a, b, rtol=1e-10)


def test_embedding_refuses_token_ids_outside_the_table():
    rng = np.random.default_rng(0)
    emb = Embedding(9, 4, rng)
    lstm = LSTM(Embedding(9, 4, rng), 3, rng)
    dense = Dense(4, 3, rng, embedding=Embedding(9, 4, rng))
    for ids in ([[-1, 2]], [[9, 2]]):
        for forward in (emb.forward, lstm.forward, dense.forward):
            with pytest.raises(ValueError, match="out of vocabulary range"):
                forward(np.array(ids), "infer")


def test_gradient_check_dense_micro():
    rng = np.random.default_rng(7)
    net = micro_net(
        [Embedding(9, 4, rng, name="b.emb"), LambdaSum(), Dense(4, 5, rng, name="b.d"), Sigmoid()],
        width=5,
    )
    x1, x2, y = toy_batch(net, n=6, seed=2)
    assert gradient_check(net, x1, x2, y) <= 1e-6


def test_gradient_check_lstm_cell():
    rng = np.random.default_rng(8)
    net = micro_net(
        [LSTM(Embedding(9, 4, rng, name="b.emb"), 6, rng, recurrent_dropout=0.2, name="b.lstm")],
        width=6,
    )
    x1, x2, y = toy_batch(net, n=5, seed=3)
    assert gradient_check(net, x1, x2, y) <= 1e-4


def test_gradient_check_conv_pool_branch():
    rng = np.random.default_rng(9)
    net = micro_net(
        [
            Embedding(9, 4, rng, name="b.emb"),
            Conv1D(4, 5, 3, rng, name="b.c1"),
            Conv1D(5, 5, 3, rng, name="b.c2"),
            GlobalMaxPool1D(),
            Dense(5, 4, rng, name="b.d"),
        ],
        width=4,
        seq_len=6,
    )
    x1, x2, y = toy_batch(net, n=5, seed=4)
    assert gradient_check(net, x1, x2, y) <= 1e-4


def test_gradient_check_batchnorm_prelu():
    rng = np.random.default_rng(10)
    net = micro_net(
        [
            Embedding(9, 4, rng, name="b.emb"),
            LambdaSum(),
            BatchNorm(4, name="b.bn"),
            PReLU(4, name="b.pr"),
            Dense(4, 3, rng, name="b.d"),
        ],
        width=3,
    )
    x1, x2, y = toy_batch(net, n=8, seed=5)
    assert gradient_check(net, x1, x2, y) <= 1e-4


def test_gradient_check_tdd_lambda_sum():
    rng = np.random.default_rng(11)
    net = micro_net(
        [Embedding(9, 4, rng, name="b.emb"), Dense(4, 5, rng, name="b.tdd"), LambdaSum()], width=5
    )
    x1, x2, y = toy_batch(net, n=5, seed=6)
    assert gradient_check(net, x1, x2, y) <= 1e-4


def test_gradient_check_at_a_prelu_kink():
    # sample 0 puts branch 1's first unit exactly at PReLU's switch, so a
    # step of its bias crosses the kink: the central difference averages the
    # two slopes, and only the one-sided difference on backprop's side
    # agrees with backprop
    rng = np.random.default_rng(12)
    net = micro_net(
        [Embedding(9, 4, rng, name="b.emb"), LambdaSum(), Dense(4, 3, rng, name="b.d"), PReLU(3)],
        width=3,
    )
    x1, x2, y = toy_batch(net, n=4, seed=7)
    emb, total, dense = net.branches[0][:3]
    bias = dense.b.value
    bias[0] -= dense.forward(total.forward(emb.forward(x1, "check"), "check"), "check")[0, 0]

    def loss():
        return bce_loss(net.forward(x1, x2, mode="check"), y)[0]

    net.zero_grads()
    net.backward(bce_loss(net.forward(x1, x2, mode="check"), y)[1])
    backprop, original, h = dense.b.grad[0], bias[0], 1e-5
    bias[0] = original + h
    up = loss()
    bias[0] = original - h
    down = loss()
    bias[0] = original
    assert abs((up - down) / (2 * h) - backprop) > 1e-2 * abs(backprop)
    assert gradient_check(net, x1, x2, y) <= 1e-4

    # a backward pass off by 1% in one gradient is still reported
    backward = net.backward

    def scaled_backward(grad):
        out = backward(grad)
        dense.b.grad[1] *= 1.01
        return out

    net.backward = scaled_backward
    assert gradient_check(net, x1, x2, y) > 1e-4


def test_gradient_check_and_training_need_samples():
    net = toy_net(1)
    x1, x2, y = toy_batch(net, n=0)
    with pytest.raises(ValueError, match="at least one sample"):
        gradient_check(net, x1, x2, y)
    with pytest.raises(ValueError, match="max_coords_per_param"):
        gradient_check(net, *toy_batch(net), max_coords_per_param=0)
    with pytest.raises(ValueError, match="no samples"):
        train_network(net, x1, x2, y, TrainConfig(epochs=1))
    for field in ("batch_size", "epochs"):
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got 0"):
            TrainConfig(**{field: 0})


@pytest.mark.parametrize("arch", [1, 2, 3, 4])
def test_gradient_check_toy_architectures(arch):
    net = toy_net(arch, seed=arch)
    x1, x2, y = toy_batch(net, n=6, seed=arch)
    assert gradient_check(net, x1, x2, y, max_coords_per_param=4) <= 1e-4


# ---------------------------------------------------------------- training

def test_learning_rate_zero_keeps_parameters():
    net = toy_net(1)
    x1, x2, y = toy_batch(net, n=12)
    before = [p.value.copy() for p in net.parameters()]
    train_network(net, x1, x2, y, TrainConfig(epochs=3, batch_size=4, learning_rate=0.0))
    after = [p.value for p in net.parameters()]
    for b, a in zip(before, after):
        # batch norm running stats do move; trainable weights must not
        assert np.array_equal(b, a) or not np.array_equal(b, a)
    for p, b in zip(net.parameters(), before):
        if p.trainable:
            assert np.array_equal(p.value, b), p.name


def test_adam_step_matches_hand_computation():
    rng = np.random.default_rng(12)
    dense = Dense(2, 1, rng, name="d")
    config = TrainConfig(learning_rate=0.01)
    opt = Adam(dense.params(), config)
    dense.w.grad[...] = np.array([[0.3], [-0.2]])
    dense.b.grad[...] = np.array([0.05])
    w0 = dense.w.value.copy()
    b0 = dense.b.value.copy()
    opt.step()
    for param, start in ((dense.w, w0), (dense.b, b0)):
        g = np.array([[0.3], [-0.2]]) if param is dense.w else np.array([0.05])
        m_hat = g  # (1 - b1) g / (1 - b1)
        v_hat = g * g
        want = start - 0.01 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert np.allclose(param.value, want, atol=1e-15)


def test_adam_steps_match_the_textbook_formula_bit_for_bit():
    # parameters of several shapes share the optimizer's scratch buffers
    rng = np.random.default_rng(3)
    params = [Param(f"p{i}", rng.normal(size=shape)) for i, shape in enumerate([(3, 4), (5,), (2, 3, 2), (1,)])]
    config = TrainConfig(learning_rate=0.003)
    opt = Adam(params, config)
    want = [p.value.copy() for p in params]
    m = [np.zeros_like(w) for w in want]
    v = [np.zeros_like(w) for w in want]
    for t in range(1, 6):
        for p in params:
            p.grad[...] = rng.normal(size=p.value.shape) * 10.0 ** rng.integers(-8, 3)
        opt.step()
        bias1, bias2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
        for i, p in enumerate(params):
            g = p.grad
            m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
            v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g * g
            want[i] = want[i] - config.learning_rate * (m[i] / bias1) / (np.sqrt(v[i] / bias2) + ADAM_EPS)
            assert p.value.tobytes() == want[i].tobytes(), (t, p.name)


def test_loss_non_increasing_first_epochs_small_step():
    net = toy_net(1, dropout=0.0)
    x1, x2, y = make_toy_pairs(24, vocab_size=net.vocab_size, seq_len=net.seq_len, seed=7)
    config = TrainConfig(epochs=5, batch_size=24, learning_rate=1e-4, seed=0)
    history = train_network(net, x1, x2, y, config)
    assert history.loss[-1] <= history.loss[0] + 1e-9


def test_toy_arch1_overfits_quickly():
    net = toy_net(1, vocab_size=40, dropout=0.0, seed=3)
    x1, x2, y = make_toy_pairs(60, vocab_size=net.vocab_size, seq_len=net.seq_len, seed=8)
    config = TrainConfig(epochs=60, batch_size=30, learning_rate=0.01, seed=1)
    history = train_network(net, x1, x2, y, config)
    assert max(history.accuracy) >= 0.9


def test_training_deterministic():
    results = []
    for _ in range(2):
        net = toy_net(1, seed=5)
        x1, x2, y = make_toy_pairs(20, vocab_size=net.vocab_size, seq_len=net.seq_len, seed=9)
        train_network(net, x1, x2, y, TrainConfig(epochs=2, batch_size=10, seed=2))
        results.append(net.forward(x1, x2, mode="infer"))
    assert np.array_equal(results[0], results[1])


def test_bce_loss_gradient_consistent():
    rng = np.random.default_rng(13)
    p = rng.uniform(0.05, 0.95, size=10)
    y = rng.integers(0, 2, size=10).astype(float)
    loss, grad = bce_loss(p, y)
    h = 1e-7
    for i in range(10):
        up = p.copy()
        up[i] += h
        down = p.copy()
        down[i] -= h
        fd = (bce_loss(up, y)[0] - bce_loss(down, y)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5)


# ------------------------------------------------------------- persistence

@pytest.mark.parametrize("arch", [1, 2, 3, 4])
def test_save_load_roundtrip(tmp_path, arch):
    net = toy_net(arch, seed=6)
    x1, x2, y = toy_batch(net, n=5, seed=10)
    train_network(net, x1, x2, y, TrainConfig(epochs=1, batch_size=5))
    want = net.forward(x1, x2, mode="infer")
    prefix = tmp_path / f"arch{arch}"
    save_network(net, prefix)
    loaded = load_network(prefix)
    got = loaded.forward(x1, x2, mode="infer")
    assert np.array_equal(want, got)
    assert loaded.num_params() == net.num_params()
    assert [p.name for p in loaded.parameters()] == [p.name for p in net.parameters()]


# sha256 of the toy manifests as weights format 2 writes them: files saved
# now must keep loading
TOY_MANIFEST_SHA256 = {
    1: "283f3a4f377f1ae6932bcf6f8d6e5946347bd4b25039216e82cc1425533537c8",
    2: "b560bbedc905deee24325c54d2d9020fe751e4bd3c8cf2ec2fbed65b12310a8f",
    3: "3bc8e4d869dfab8c63ba06238e38af1b4a2cb7d6dc8ba7c2a14c2cd2385eaa89",
    4: "66c887ac681669b51e9bf3eeeac6c3f1a8ce0d8452efe6cb3415cd850ab09f0e",
}


@pytest.mark.parametrize("arch", [1, 2, 3, 4])
def test_manifest_bytes_are_stable(tmp_path, arch):
    save_network(toy_net(arch), tmp_path / "net")
    digest = hashlib.sha256((tmp_path / "net.json").read_bytes()).hexdigest()
    assert digest == TOY_MANIFEST_SHA256[arch]


def _saved_toy(tmp_path, arch=2):
    prefix = tmp_path / "net"
    save_network(toy_net(arch), prefix)
    return prefix, json.loads(prefix.with_suffix(".json").read_text())


def test_load_rejects_a_manifest_that_is_not_an_object(tmp_path):
    prefix, _ = _saved_toy(tmp_path)
    for text in ("[1, 2]", "{not json"):
        prefix.with_suffix(".json").write_text(text)
        with pytest.raises(ValueError, match=str(prefix)):
            load_network(prefix)


def test_load_refuses_a_version_1_manifest(tmp_path):
    # format 1 also wrote head_blocks and seq_len, which the architecture
    # and the dimensions decide
    prefix, manifest = _saved_toy(tmp_path, arch=3)
    manifest.update(format_version=1, head_blocks=4, seq_len=TOY["seq_len"])
    prefix.with_suffix(".json").write_text(json.dumps(manifest, sort_keys=True))
    want = f"{prefix.with_suffix('.json')}: network format version 1; this dupliq reads version 2"
    with pytest.raises(ValueError) as caught:
        load_network(prefix)
    assert str(caught.value) == want


def test_load_names_a_manifest_that_is_not_utf8(tmp_path):
    prefix, _ = _saved_toy(tmp_path)
    manifest = prefix.with_suffix(".json")
    manifest.write_bytes(b'{"arch": "\xff"}')
    with pytest.raises(ValueError, match=f"{manifest}: not a JSON document"):
        load_network(prefix)


@pytest.mark.parametrize("key", ["arch", "vocab_size", "dims", "frozen_embed_dim", "params", "seed"])
def test_load_rejects_a_manifest_without_a_key(tmp_path, key):
    prefix, manifest = _saved_toy(tmp_path)
    del manifest[key]
    prefix.with_suffix(".json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"{prefix}.*missing key '{key}'"):
        load_network(prefix)


@pytest.mark.parametrize("cut", [8, 45, -8])
def test_load_rejects_a_blob_of_the_wrong_size(tmp_path, cut):
    prefix, _ = _saved_toy(tmp_path)
    blob = prefix.with_suffix(".bin").read_bytes()
    # cut bytes off, or (negative) append them
    prefix.with_suffix(".bin").write_bytes(blob[:-cut] if cut > 0 else blob + bytes(-cut))
    with pytest.raises(ValueError, match=f"{prefix}.*weight blob holds"):
        load_network(prefix)


def test_neural_does_not_import_embed():
    # the frozen rows reach build_architecture as an array, so the network
    # code needs nothing from the embedding loaders
    import dupliq

    code = "import sys, dupliq.neural; print('dupliq.embed' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dupliq.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


# ------------------------------------------------ LSTM branches side by side

@pytest.mark.parametrize("arch", [1, 2, 3, 4])
def test_training_does_not_depend_on_the_usable_cpus(tmp_path, arch):
    """With two usable CPUs the first LSTM recurs on a helper thread: the
    weights, manifests and history are those of one CPU, byte for byte."""
    histories, files = {}, {}
    for cpus in (1, 2):
        net = toy_net(arch, seed=7)
        assert net.dims["dropout"] > 0.0
        x1, x2, y = make_toy_pairs(24, vocab_size=net.vocab_size, seq_len=net.seq_len, seed=3)
        with usable_cpus(cpus):  # the network reads them at each step
            histories[cpus] = train_network(net, x1, x2, y, TrainConfig(epochs=2, batch_size=8, seed=4))
        save_network(net, tmp_path / f"net{cpus}")
        files[cpus] = [(tmp_path / f"net{cpus}{ext}").read_bytes() for ext in (".bin", ".json")]
    assert histories[1] == histories[2]
    assert files[1] == files[2]


def _spy_on_recurrences(monkeypatch):
    """Record which thread runs each step of each LSTM, and count the
    threads started."""
    ran, started = [], []
    for name in ("begin", "recur", "recur_backward", "project_backward"):
        original = getattr(LSTM, name)

        def spy(self, *args, _original=original, _name=name):
            ran.append((self.u.name, _name, threading.get_ident()))
            return _original(self, *args)

        monkeypatch.setattr(LSTM, name, spy)
    start = threading.Thread.start

    def spy_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    return ran, started


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_lstm_recurs_on_a_helper_thread_only_with_two_cpus(monkeypatch, cpus):
    net = toy_net(2)
    x1, x2, y = toy_batch(net)
    ran, started = _spy_on_recurrences(monkeypatch)
    with usable_cpus(cpus):
        net.backward(bce_loss(net.forward(x1, x2, mode="train"), y)[1])
    main = threading.main_thread().ident
    # the dropout masks are drawn, and the embeddings read, on this thread
    steps = ("begin", "recur", "recur_backward", "project_backward")
    assert sorted((name, step) for name, step, _ in ran) == sorted(
        (f"branch{i}.lstm.u", step) for i in (0, 1) for step in steps
    )
    off_main = sorted((name, step) for name, step, ident in ran if ident != main)
    if cpus == 1:
        assert off_main == [] and started == []
    else:
        assert off_main == [("branch0.lstm.u", "recur"), ("branch0.lstm.u", "recur_backward")]
        assert len(started) == 2


class HelperFault(Exception):
    pass


@pytest.mark.parametrize("step", ["recur", "recur_backward"])
def test_a_fault_on_the_helper_is_raised_by_the_caller(monkeypatch, step):
    net = toy_net(1)
    x1, x2, y = toy_batch(net)
    threads = threading.active_count()
    original = getattr(LSTM, step)

    def faulty(self, *args):
        if threading.current_thread() is not threading.main_thread():
            raise HelperFault(step)
        return original(self, *args)

    with usable_cpus(2):
        if step == "recur_backward":
            dp = bce_loss(net.forward(x1, x2, mode="train"), y)[1]
        monkeypatch.setattr(LSTM, step, faulty)
        with pytest.raises(HelperFault, match=step):
            if step == "recur":
                net.forward(x1, x2, mode="train")
            else:
                net.backward(dp)
    assert threading.active_count() == threads


def test_a_warning_on_the_helper_meets_the_callers_warning_filter(monkeypatch):
    net = toy_net(1)
    x1, x2, _ = toy_batch(net)
    threads = threading.active_count()
    recur = LSTM.recur

    def overflowing(self):
        if threading.current_thread() is not threading.main_thread():
            np.exp(np.array([1e3]))
        return recur(self)

    monkeypatch.setattr(LSTM, "recur", overflowing)
    with usable_cpus(2), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            net.forward(x1, x2, mode="infer")
        with np.errstate(over="ignore"):  # the helper runs in the caller's context
            net.forward(x1, x2, mode="infer")
    assert threading.active_count() == threads


def test_a_helper_that_cannot_start_leaves_the_branches_in_order(monkeypatch):
    def one_step():
        net = toy_net(3)
        x1, x2, y = toy_batch(net)
        prob = net.forward(x1, x2, mode="train")
        net.backward(bce_loss(prob, y)[1])
        return [prob] + [p.grad for p in net.parameters()]

    def no_thread(thread):
        raise RuntimeError("can't start new thread")

    with usable_cpus(1):
        alone = one_step()
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    with usable_cpus(2):
        beside = one_step()
    for one, two in zip(alone, beside, strict=True):
        np.testing.assert_array_equal(one, two)


# ---------------------------------------------------------------- encoding

def test_build_vocab_and_encode():
    texts = ["How do I learn?", "learn how"]
    vocab = build_vocab(texts)
    assert vocab["how"] == 1
    x = encode(["learn how now"], vocab, seq_len=5)
    assert x.shape == (1, 5)
    assert x[0, 0] == vocab["learn"]
    assert x[0, 1] == vocab["how"]
    assert x[0, 2] == 0  # unknown token dropped, post-padded


def test_make_toy_pairs_separable_structure():
    x1, x2, y = make_toy_pairs(50, vocab_size=21, seq_len=6, seed=11)
    for i in range(50):
        s1 = set(x1[i]) - {0}
        s2 = set(x2[i]) - {0}
        if y[i] == 1:
            assert s1 == s2
        else:
            assert not (s1 & s2)


def test_gradient_check_floor_follows_the_loss_rounding():
    # a dense layer feeding batch norm: its bias has no gradient at all, so
    # central differences of a confidently wrong network (loss 3.4) measure
    # only the loss's rounding, six ulps over the step; a fixed 1e-10 floor
    # took that noise for a 1.3e-2 error
    rng = np.random.default_rng(4)
    net = micro_net(
        [
            Embedding(9, 4, rng, name="b.emb"),
            LambdaSum(),
            Dense(4, 6, rng, name="b.d"),
            BatchNorm(6, name="b.bn"),
            Dense(6, 3, rng, name="b.d2"),
        ],
        width=3,
        seed=4,
    )
    net.head[0].w.value *= 10.0
    rng = np.random.default_rng(5)
    x1 = rng.integers(1, 9, size=(8, 3))
    x2 = rng.integers(1, 9, size=(8, 3))
    y = rng.integers(0, 2, size=8).astype(float)
    assert bce_loss(net.forward(x1, x2, mode="check"), y)[0] > 3.0
    assert gradient_check(net, x1, x2, y, max_coords_per_param=12) <= 1e-4
    # the floor still lets a wrong backward pass through to the error
    backward = net.backward
    net.backward = lambda grad: backward(1.01 * grad)
    assert gradient_check(net, x1, x2, y, max_coords_per_param=12) > 5e-3
