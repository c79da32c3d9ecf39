"""One stacked Dense/ReLU kernel over N networks of the same geometry.

:class:`StackedMLP` scores (and trains) N structurally identical MLPs —
the paper's Fig. 4 network built by :func:`repro.nn.network.mlp` — with
one ``matmul`` chain instead of N serial forwards. It serves lock-step
multi-seed training, the field engine's per-slot DQN decisions and the
decision service, with two parameter layouts behind one forward line
``x = matmul(x, W) + b``:

* **stacked** — ``(N, in, out)`` weight and ``(N, 1, out)`` bias copies,
  one slice per network; inputs are ``(N, B, in)``.
* **shared** — when two or more entries are all the *same* network
  object, live references to its 2-D arrays that broadcast over any
  leading batch axis and can never go stale. (A single network is
  stacked, so a one-seed training stack still owns its copy.)

Either layout also yields a per-network 2-D view (``forward(x,
index=i)``), which lets a caller score a group of rows against one
network without gathering weights per row.

Bit-identity with the serial :class:`~repro.nn.network.Network` is the
contract: stacked ``matmul`` and elementwise ops apply per slice exactly
the IEEE operations of the 2-D path, and :class:`~repro.nn.optimizers.Adam`
is elementwise, so stepping it over the stacked parameters updates every
slice exactly as the serial optimizer would.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Network
from repro.nn.optimizers import Adam


def _dense_layers(network: Network) -> list[Dense]:
    """The Dense layers of an alternating Dense/ReLU/…/Dense network."""
    layers = network.layers
    if len(layers) % 2 == 0 or any(
        not isinstance(layer, ReLU if i % 2 else Dense)
        for i, layer in enumerate(layers)
    ):
        raise TrainingError(
            "stacking needs alternating Dense/ReLU layers ending in Dense, got "
            + "/".join(type(layer).__name__ for layer in layers)
        )
    return layers[::2]


class StackedMLP:
    """Forward/backward over N same-geometry MLPs as one tensor chain.

    ``optimizer`` is the stacked optimizer a training caller steps over
    :attr:`parameters` and :attr:`gradients`; the stack only carries it so
    that :meth:`compact` and :meth:`write_back` keep its state aligned.
    """

    def __init__(
        self, networks: list[Network], *, optimizer: Adam | None = None
    ) -> None:
        if not networks:
            raise TrainingError("a StackedMLP needs at least one network")
        self.networks = list(networks)
        self.optimizer = optimizer
        first = self.networks[0]
        dense = _dense_layers(first)
        self.shared = len(self.networks) > 1 and all(
            net is first for net in self.networks
        )
        if self.shared:
            # Live views: every mutation path writes parameters in place.
            self.weights = [layer.weight for layer in dense]
            self.biases = [layer.bias for layer in dense]
        else:
            shapes = [layer.weight.shape for layer in dense]
            stacks = []
            for net in self.networks:
                layers = _dense_layers(net)
                if [layer.weight.shape for layer in layers] != shapes:
                    raise TrainingError("all networks must share geometry")
                stacks.append(layers)
            self.weights = [
                np.stack([layers[i].weight for layers in stacks])
                for i in range(len(dense))
            ]
            self.biases = [
                np.stack([layers[i].bias[None, :] for layers in stacks])
                for i in range(len(dense))
            ]
        self._versions = [net.version for net in self.networks]
        self._gradients: list[np.ndarray] | None = None
        self._inputs: list[np.ndarray] = []
        self._masks: list[np.ndarray] = []

    # -- geometry --------------------------------------------------------------

    @property
    def observation_size(self) -> int:
        return int(self.weights[0].shape[-2])

    @property
    def num_actions(self) -> int:
        return int(self.weights[-1].shape[-1])

    @property
    def parameters(self) -> list[np.ndarray]:
        """``[W0, b0, W1, b1, …]``, the serial parameter order."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    @property
    def gradients(self) -> list[np.ndarray]:
        """Accumulated gradients aligned with :attr:`parameters`."""
        if self._gradients is None:
            self._gradients = [np.zeros_like(p) for p in self.parameters]
        return self._gradients

    # -- forward/backward ------------------------------------------------------

    def forward(
        self, x: np.ndarray, *, cache: bool = False, index: int | None = None
    ) -> np.ndarray:
        """Outputs for a stacked input; ``index`` scores with one network.

        Stacked layout: ``x`` is ``(N, B, in)`` and row block i meets
        network i. Shared layout, or a single network's view via
        ``index``: any ``(…, in)`` input broadcasts over that network's
        2-D weights. ``cache=True`` keeps what :meth:`backward` needs.
        """
        layers = zip(self.weights, self.biases)
        if index is not None and not self.shared:
            layers = ((w[index], b[index]) for w, b in layers)
        if cache:
            self._inputs, self._masks = [], []
        last = len(self.weights) - 1
        for i, (weight, bias) in enumerate(layers):
            if cache:
                self._inputs.append(x)
            x = np.matmul(x, weight) + bias
            if i < last:
                mask = x > 0
                if cache:
                    self._masks.append(mask)
                x = np.where(mask, x, 0.0)
        return x

    def backward(self, grad: np.ndarray) -> None:
        """Accumulate stacked parameter gradients from dL/d(output).

        Needs the stacked layout and a preceding ``forward(cache=True)``.
        """
        gradients = self.gradients
        for i in reversed(range(len(self.weights))):
            inputs = self._inputs[i]
            gradients[2 * i] += np.matmul(inputs.transpose(0, 2, 1), grad)
            gradients[2 * i + 1] += grad.sum(axis=1, keepdims=True)
            if i:
                grad = (
                    np.matmul(grad, self.weights[i].transpose(0, 2, 1))
                    * self._masks[i - 1]
                )

    # -- staleness and slices --------------------------------------------------

    def refresh(self) -> int:
        """Re-copy slices whose source network mutated; returns the count."""
        if self.shared:
            return 0
        stale = 0
        for i, net in enumerate(self.networks):
            if net.version == self._versions[i]:
                continue
            dense = net.layers[::2]
            for weight, bias, layer in zip(self.weights, self.biases, dense):
                weight[i] = layer.weight
                bias[i] = layer.bias
            self._versions[i] = net.version
            stale += 1
        return stale

    def greedy_actions(self, obs: np.ndarray) -> np.ndarray:
        """Greedy action per row of ``obs`` (N, in); refreshes stale slices."""
        self.refresh()
        return self.forward(obs[:, None, :]).argmax(axis=2)[:, 0]

    def compact(self, keep: list[int]) -> None:
        """Keep only slices ``keep`` (parameters, gradients, optimizer state)."""
        self.networks = [self.networks[k] for k in keep]
        self._versions = [self._versions[k] for k in keep]
        self.weights = [w[keep] for w in self.weights]
        self.biases = [b[keep] for b in self.biases]
        if self._gradients is not None:
            self._gradients = [g[keep] for g in self._gradients]
        if self.optimizer is not None and self.optimizer._m is not None:
            self.optimizer._m = [m[keep] for m in self.optimizer._m]
            self.optimizer._v = [v[keep] for v in self.optimizer._v]
        self._inputs, self._masks = [], []

    def write_back(
        self, position: int, network: Network, optimizer: Adam | None = None
    ) -> None:
        """Copy slice ``position`` into ``network`` in its serial shapes.

        Given the network's own serial ``optimizer``, the stacked Adam
        moments and step count for that slice are restored into it too.
        """
        shapes = [p.shape for p in network.parameters]
        network.set_weights(
            [p[position].reshape(s) for p, s in zip(self.parameters, shapes)]
        )
        stacked = self.optimizer
        if optimizer is not None and stacked is not None and stacked._t > 0:
            optimizer._m = [
                m[position].reshape(s).copy() for m, s in zip(stacked._m, shapes)
            ]
            optimizer._v = [
                v[position].reshape(s).copy() for v, s in zip(stacked._v, shapes)
            ]
            optimizer._t = stacked._t


__all__ = ["StackedMLP"]
