"""Feedforward subnetworks with their forward and backward passes, and the
parameter bank that drives a rollout.

A bank holds the initial-value head (a network when the starting point is
random, a plain trainable scalar plus gradient vector when it is a fixed
point) and one gradient network per time step, optionally shared across
steps. The bank's tensors live in one flat float64 vector theta, laid out
once in a fixed documented order; that order is at once the flatten order
and the memory layout of theta, so optimizer state, archives and gradient
vectors always line up:

    initial-value head first (network tensors, or y0 then z0),
    then the gradient networks in step order (once, if shared);
    within a network layer by layer, weight before bias, rows major.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .sde import RngStream

MODES = ("general_xi", "deterministic_xi")
SHARINGS = ("independent", "shared")
ACTIVATION_KINDS = ("tanh", "relu", "identity")


@dataclass(frozen=True)
class MLPConfig:
    """Layer widths input-to-output plus the hidden activation kind."""

    layer_widths: tuple
    activation: str = "tanh"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 2:
            raise ConfigError(f"need at least input and output widths, got {widths}")
        if any(w < 1 for w in widths):
            raise ConfigError(f"layer widths must be positive, got {widths}")
        if self.activation not in ACTIVATION_KINDS:
            raise ConfigError(
                f"unknown activation '{self.activation}' (expected one of {ACTIVATION_KINDS})"
            )
        object.__setattr__(self, "layer_widths", widths)


@dataclass
class MLPParams:
    config: MLPConfig
    weights: list
    biases: list


def init_params(config, seed):
    """Xavier-uniform weights and zero biases, drawn from RngStream(seed).

    Weights are drawn layer by layer in row-major element order, so the
    result is a pure function of (config, seed).
    """
    stream = RngStream(seed)
    widths = config.layer_widths
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        u = stream.uniforms(fan_in * fan_out)
        weights.append(((2.0 * u - 1.0) * bound).reshape(fan_in, fan_out))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MLPParams(config, weights, biases)


def mlp_eval(params, x, saved=None):
    """Forward pass; hidden activations only, identity output.

    With a `saved` list, the input of every layer is appended to it: that
    is all mlp_backward reads.
    """
    h = np.asarray(x, dtype=np.float64)
    width = params.config.layer_widths[0]
    if h.ndim != 2 or h.shape[1] != width:
        raise ShapeError(f"network expects [batch, {width}] inputs, got {h.shape}")
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        if saved is not None:
            saved.append(h)
        h = h @ w + b
        if k < last:
            if params.config.activation == "tanh":
                h = np.tanh(h)
            elif params.config.activation == "relu":
                h = np.maximum(h, 0.0)
    return h


def mlp_backward(params, saved, grad_out):
    """[(weight grad, bias grad), ...] per layer of sum(grad_out * output).

    `saved` holds the layer inputs mlp_eval recorded. A layer input after
    an activation is the activation's output, which gives its derivative:
    1 - h^2 for tanh, and h > 0 for relu (derivative 0 at the kink). The
    gradient with respect to the network input is never formed.
    """
    grads = []
    g = grad_out
    for k in range(len(params.weights) - 1, -1, -1):
        h = saved[k]
        grads.append((h.T @ g, g.sum(axis=0)))
        if k == 0:
            break
        g = g @ params.weights[k].T
        if params.config.activation == "tanh":
            g = g * (1.0 - h * h)
        elif params.config.activation == "relu":
            g = g * (h > 0.0)
    grads.reverse()
    return grads


class SubnetBank:
    """All trainable state for one rollout.

    general_xi mode: `y0_net` maps the random start to the initial value and
    `z_nets` holds one gradient network per step (a single entry if shared).
    deterministic_xi mode: the start is one fixed point, so the initial value
    is the plain scalar `y0`, the step-0 gradient is the plain vector `z0`,
    and `z_nets` covers steps 1..N-1 only.

    The given tensors are copied into the flat vector `theta`; afterwards
    every tensor of the bank (`y0` a 0-d one) is a view into it, so writing
    `theta` moves the networks.
    """

    def __init__(self, mode, sharing, d, num_steps, y0_net=None, y0=None, z0=None, z_nets=()):
        self.mode, self.sharing, self.d, self.num_steps = mode, sharing, d, num_steps
        self.y0_net, self.z_nets = y0_net, list(z_nets)
        if mode not in MODES:
            raise ConfigError(f"unknown mode '{mode}' (expected one of {MODES})")
        if sharing not in SHARINGS:
            raise ConfigError(f"unknown sharing '{sharing}' (expected one of {SHARINGS})")
        if d < 1 or num_steps < 1:
            raise ConfigError(f"need d >= 1 and num_steps >= 1, got d={d}, num_steps={num_steps}")
        if mode == "general_xi":
            if y0_net is None or y0 is not None or z0 is not None:
                raise ConfigError("general_xi banks carry an initial-value network only")
            head = _mlp_items("psi0", y0_net)
        else:
            if y0_net is not None or y0 is None or z0 is None:
                raise ConfigError("deterministic_xi banks carry plain y0 and z0 only")
            if np.shape(z0) != (d,):
                raise ShapeError(f"z0 must have shape ({d},), got {np.shape(z0)}")
            head = [("y0", np.array([y0], dtype=np.float64)), ("z0", z0)]
        expected = self.expected_z_net_count(mode, sharing, num_steps)
        if len(self.z_nets) != expected:
            raise ConfigError(
                f"{mode}/{sharing} with {num_steps} steps needs "
                f"{expected} gradient networks, got {len(self.z_nets)}"
            )
        first = 0 if mode == "general_xi" else 1
        labels = ["phi_shared" if sharing == "shared" else f"phi_{first + k}" for k in range(expected)]
        groups = [head] + [_mlp_items(label, net) for label, net in zip(labels, self.z_nets)]
        arrays = [np.asarray(arr, dtype=np.float64) for items in groups for _, arr in items]
        ends = np.cumsum([arr.size for arr in arrays]).tolist()
        specs = iter(zip([0] + ends, ends, [arr.shape for arr in arrays]))
        self._layout = [[next(specs) for _ in items] for items in groups]
        self._names = [name for items in groups for name, _ in items]
        self._bind(np.concatenate([arr.ravel() for arr in arrays]))

    def views(self, vec):
        """(head, nets): views of the flat `vec` shaped like the tensors of
        the initial-value head and of each gradient network, in flatten order."""
        head, *nets = [[vec[lo:hi].reshape(shape) for lo, hi, shape in specs]
                       for specs in self._layout]
        return head, nets

    def _bind(self, theta):
        self.theta = theta
        head, nets = self.views(theta)
        if self.mode == "general_xi":
            self.y0_net = MLPParams(self.y0_net.config, head[0::2], head[1::2])
        else:
            self.y0, self.z0 = head[0].reshape(()), head[1]
        self.z_nets = [MLPParams(net.config, v[0::2], v[1::2]) for net, v in zip(self.z_nets, nets)]
        self._items = list(zip(self._names, head + [a for v in nets for a in v]))

    @staticmethod
    def expected_z_net_count(mode, sharing, num_steps):
        networked_steps = num_steps if mode == "general_xi" else num_steps - 1
        if networked_steps == 0:
            return 0
        return 1 if sharing == "shared" else networked_steps

    @classmethod
    def create(cls, mode, sharing, d, num_steps, hidden=None, activation="tanh", seed=0):
        """Freshly initialized bank; per-network seeds derive from `seed`."""
        if hidden is None:
            hidden = (d + 10, d + 10)
        hidden = tuple(int(w) for w in hidden)
        root = RngStream(seed)
        z_config = MLPConfig((d, *hidden, d), activation)
        count = cls.expected_z_net_count(mode, sharing, num_steps)
        z_nets = [init_params(z_config, root.derive(k + 1).seed_state) for k in range(count)]
        if mode == "general_xi":
            y0_config = MLPConfig((d, *hidden, 1), activation)
            y0_net = init_params(y0_config, root.derive(0).seed_state)
            return cls(mode, sharing, d, num_steps, y0_net=y0_net, z_nets=z_nets)
        return cls(
            mode, sharing, d, num_steps,
            y0=0.0, z0=np.zeros(d, dtype=np.float64), z_nets=z_nets,
        )

    def z_index(self, n):
        """Index into `z_nets` of the network used at step n (None when
        step 0 uses plain z0)."""
        if not 0 <= n < self.num_steps:
            raise ConfigError(f"step {n} outside 0..{self.num_steps - 1}")
        if self.mode == "deterministic_xi":
            if n == 0:
                return None
            return 0 if self.sharing == "shared" else n - 1
        return 0 if self.sharing == "shared" else n

    def tensor_items(self):
        """(name, view into theta) pairs in flatten order; the wire naming
        of archives."""
        return list(self._items)


def _mlp_items(prefix, params):
    out = []
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        out.append((f"{prefix}.layer_{k}.weight", w))
        out.append((f"{prefix}.layer_{k}.bias", b))
    return out


def param_count(bank):
    return bank.theta.size


def flatten_params(bank):
    """A copy of the bank's flat vector theta, in the documented order."""
    return bank.theta.copy()


def unflatten_params(template, vector):
    """A bank shaped like `template` over a copy of `vector` (the inverse of
    flatten_params); `template` is left untouched."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != template.theta.shape:
        raise ShapeError(
            f"expected a flat vector of {template.theta.size} entries, got shape {vector.shape}"
        )
    bank = copy.copy(template)
    bank._bind(vector.copy())
    return bank
