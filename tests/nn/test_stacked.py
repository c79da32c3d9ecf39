"""StackedMLP: the one stacked kernel, pinned bit-identical to Network."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn.layers import Dense, Layer, ReLU
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Network, mlp
from repro.nn.optimizers import Adam
from repro.nn.stacked import StackedMLP


class Scale(Layer):
    """A parameter-free layer that is neither Dense nor ReLU."""

    def forward(self, x):
        return 2.0 * x

    def backward(self, grad_output):
        return 2.0 * grad_output


def nets(n=3, hidden=(8, 6)):
    return [mlp(5, hidden, 4, seed=i) for i in range(n)]


class TestValidation:
    @pytest.mark.parametrize(
        "layers",
        [
            [Dense(5, 4), Scale()],
            [Dense(5, 4), Scale(), Dense(4, 3)],
            [Dense(5, 4), ReLU()],
            [Dense(5, 4), Dense(4, 3), Dense(3, 2)],
            [ReLU(), Dense(5, 4), ReLU()],
        ],
        ids=["foreign-tail", "foreign-mid", "ends-relu", "no-relu", "starts-relu"],
    )
    def test_non_mlp_network_rejected(self, layers):
        with pytest.raises(TrainingError, match="alternating Dense/ReLU"):
            StackedMLP([Network(layers)])

    def test_any_non_mlp_entry_rejected(self):
        odd = Network([Dense(5, 8), Scale(), Dense(8, 4)])
        with pytest.raises(TrainingError, match="alternating Dense/ReLU"):
            StackedMLP([mlp(5, (8,), 4, seed=0), odd])

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(TrainingError, match="share geometry"):
            StackedMLP([mlp(5, (8,), 4, seed=0), mlp(5, (9,), 4, seed=1)])

    def test_empty_rejected(self):
        with pytest.raises(TrainingError, match="at least one"):
            StackedMLP([])


class TestForward:
    def test_stacked_matches_serial(self):
        networks = nets()
        x = np.random.default_rng(0).random((3, 7, 5))
        out = StackedMLP(networks).forward(x)
        for i, net in enumerate(networks):
            np.testing.assert_array_equal(out[i], net.forward(x[i]))

    def test_shared_view_is_live_and_matches_serial(self):
        net = nets(1)[0]
        stack = StackedMLP([net] * 4)
        assert stack.shared
        assert stack.weights[0] is net.layers[0].weight
        x = np.random.default_rng(1).random((4, 1, 5))
        out = stack.forward(x)
        for i in range(4):
            np.testing.assert_array_equal(out[i], net.forward(x[i]))

    def test_single_network_is_a_stacked_copy(self):
        net = nets(1)[0]
        stack = StackedMLP([net])
        assert not stack.shared
        assert stack.weights[0].shape == (1, 5, 8)
        assert stack.biases[0].shape == (1, 1, 8)

    def test_index_view_matches_serial(self):
        networks = nets()
        stack = StackedMLP(networks)
        x = np.random.default_rng(2).random((6, 1, 5))
        for i, net in enumerate(networks):
            out = stack.forward(x, index=i)
            for row in range(6):
                np.testing.assert_array_equal(out[row], net.forward(x[row]))

    def test_refresh_copies_only_mutated_slices(self):
        networks = nets()
        stack = StackedMLP(networks)
        assert stack.refresh() == 0
        networks[1].set_weights(mlp(5, (8, 6), 4, seed=9).get_weights())
        assert stack.refresh() == 1
        x = np.random.default_rng(3).random((3, 1, 5))
        np.testing.assert_array_equal(
            stack.forward(x)[1], networks[1].forward(x[1])
        )


def serial_train(networks, optimizers, x, y, steps):
    for _ in range(steps):
        for i, (net, opt) in enumerate(zip(networks, optimizers)):
            net.train_step(x[i], y[i], MeanSquaredError(), opt)


def stacked_train(stack, x, y, steps):
    loss = MeanSquaredError()
    for _ in range(steps):
        out = stack.forward(x, cache=True)
        stack.backward(
            np.stack([loss.gradient(out[i], y[i]) for i in range(len(out))])
        )
        stack.optimizer.step(stack.parameters, stack.gradients)


class TestTraining:
    def _data(self, n):
        rng = np.random.default_rng(4)
        return rng.random((n, 9, 5)), rng.random((n, 9, 4))

    def test_adam_training_bit_identical_to_serial(self):
        x, y = self._data(3)
        serial = nets()
        serial_opts = [Adam(learning_rate=0.05) for _ in serial]
        serial_train(serial, serial_opts, x, y, steps=4)
        stack = StackedMLP(nets(), optimizer=Adam(learning_rate=0.05))
        stacked_train(stack, x, y, steps=4)
        for i, net in enumerate(serial):
            restored = mlp(5, (8, 6), 4, seed=100)
            opt = Adam(learning_rate=0.05)
            stack.write_back(i, restored, opt)
            for a, b in zip(restored.parameters, net.parameters):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a, b)
            assert opt._t == serial_opts[i]._t
            ref = serial_opts[i]
            for state, expected in ((opt._m, ref._m), (opt._v, ref._v)):
                for a, b in zip(state, expected):
                    assert a.shape == b.shape
                    np.testing.assert_array_equal(a, b)

    def test_compact_keeps_surviving_slices_training_identically(self):
        x, y = self._data(3)
        serial = nets()
        opts = [Adam(learning_rate=0.05) for _ in serial]
        serial_train(serial, opts, x, y, steps=2)
        survivors = [serial[0], serial[2]], [opts[0], opts[2]]
        serial_train(*survivors, x[[0, 2]], y[[0, 2]], steps=2)
        stack = StackedMLP(nets(), optimizer=Adam(learning_rate=0.05))
        stacked_train(stack, x, y, steps=2)
        stack.compact([0, 2])
        assert len(stack.networks) == 2
        stacked_train(stack, x[[0, 2]], y[[0, 2]], steps=2)
        for pos, i in enumerate([0, 2]):
            restored = mlp(5, (8, 6), 4, seed=100)
            stack.write_back(pos, restored)
            for a, b in zip(restored.parameters, serial[i].parameters):
                np.testing.assert_array_equal(a, b)

    def test_gradients_allocate_lazily(self):
        stack = StackedMLP(nets())
        assert stack._gradients is None
        grads = stack.gradients
        assert [g.shape for g in grads] == [p.shape for p in stack.parameters]
