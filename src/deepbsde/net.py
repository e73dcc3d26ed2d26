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

import math
from dataclasses import dataclass
from itertools import accumulate

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


def default_hidden(d):
    """The hidden widths of every network when none are given."""
    return (d + 10, d + 10)


class SubnetBank:
    """All trainable state for one rollout, built from its architecture.

    The six constructor arguments (mode, sharing, d, num_steps, hidden and
    activation) fix the name and shape of every tensor; they are also what
    an archive stores as the bank's fingerprint. The constructor allocates
    the flat vector `theta` once, zero-filled, and binds every tensor of the
    bank (`y0` a 0-d one) as a view into it, so writing `theta` moves the
    networks. `create` writes Xavier draws into those views; loading an
    archive writes the stored values instead and draws nothing.

    general_xi mode: `y0_net` maps the random start to the initial value and
    `z_nets` holds one gradient network per step (a single entry if shared).
    deterministic_xi mode: the start is one fixed point, so the initial value
    is the plain scalar `y0`, the step-0 gradient is the plain vector `z0`,
    and `z_nets` covers steps 1..N-1 only.
    """

    def __init__(self, mode, sharing, d, num_steps, hidden=None, activation="tanh"):
        self.mode, self.sharing, self.d, self.num_steps = mode, sharing, d, num_steps
        self.hidden = tuple(int(w) for w in (default_hidden(d) if hidden is None else hidden))
        self.activation = activation
        y0_config, z_config, groups, ends = layout(mode, sharing, d, num_steps, self.hidden,
                                                   activation)
        specs = iter(zip([0] + ends, ends, [shape for items in groups for _, shape in items]))
        self._layout = [[next(specs) for _ in items] for items in groups]
        self.theta = np.zeros(ends[-1], dtype=np.float64)
        head_views, net_views = self.views(self.theta)
        self.y0_net = None
        if mode == "general_xi":
            self.y0_net = MLPParams(y0_config, head_views[0::2], head_views[1::2])
        else:
            self.y0, self.z0 = head_views[0].reshape(()), head_views[1]
        self.z_nets = [MLPParams(z_config, v[0::2], v[1::2]) for v in net_views]
        names = [name for items in groups for name, _ in items]
        self._items = list(zip(names, head_views + [a for v in net_views for a in v]))

    def views(self, vec):
        """(head, nets): views of the flat `vec` shaped like the tensors of
        the initial-value head and of each gradient network, in flatten order."""
        head, *nets = [[vec[lo:hi].reshape(shape) for lo, hi, shape in specs]
                       for specs in self._layout]
        return head, nets

    @classmethod
    def create(cls, mode, sharing, d, num_steps, hidden=None, activation="tanh", seed=0):
        """Freshly initialized bank: the initial-value network draws from
        stream (seed->0), gradient network k from (seed->k+1); a plain y0
        and z0 start at zero."""
        bank = cls(mode, sharing, d, num_steps, hidden, activation)
        root = RngStream(seed)
        for k, net in enumerate([bank.y0_net, *bank.z_nets]):
            if net is not None:
                drawn = init_params(net.config, root.derive(k).seed_state)
                for view, values in zip(net.weights + net.biases, drawn.weights + drawn.biases):
                    view[...] = values
        return bank

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
        """(name, view into theta) pairs in flatten order; the names that
        gradient messages and tests use for theta's tensors."""
        return list(self._items)


def layout(mode, sharing, d, num_steps, hidden, activation):
    """(y0 config or None, z config, (name, shape) groups, end offsets in theta)
    of a bank; it allocates nothing, so a loader can check a size first."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}' (expected one of {MODES})")
    if sharing not in SHARINGS:
        raise ConfigError(f"unknown sharing '{sharing}' (expected one of {SHARINGS})")
    if d < 1 or num_steps < 1:
        raise ConfigError(f"need d >= 1 and num_steps >= 1, got d={d}, num_steps={num_steps}")
    z_config = MLPConfig((d, *hidden, d), activation)
    if mode == "general_xi":
        y0_config = MLPConfig((d, *hidden, 1), activation)
        head, first = _layer_specs("psi0", y0_config), 0
    else:
        y0_config, head, first = None, [("y0", (1,)), ("z0", (d,))], 1
    networked_steps = num_steps - first
    count = min(networked_steps, 1) if sharing == "shared" else networked_steps
    labels = ["phi_shared" if sharing == "shared" else f"phi_{first + k}" for k in range(count)]
    groups = [head] + [_layer_specs(label, z_config) for label in labels]
    # Python integers: a huge fingerprint gives its true size, not a wrapped one
    ends = list(accumulate(math.prod(shape) for items in groups for _, shape in items))
    return y0_config, z_config, groups, ends


def _layer_specs(prefix, config):
    """(name, shape) of each tensor of a network: layer by layer, weight
    before bias."""
    widths = config.layer_widths
    specs = []
    for k, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        specs.append((f"{prefix}.layer_{k}.weight", (fan_in, fan_out)))
        specs.append((f"{prefix}.layer_{k}.bias", (fan_out,)))
    return specs


def param_count(bank):
    return bank.theta.size


def flatten_params(bank):
    """A copy of the bank's flat vector theta, in the documented order."""
    return bank.theta.copy()


def unflatten_params(template, vector):
    """A bank with `template`'s architecture over a copy of `vector` (the
    inverse of flatten_params); `template` is left untouched."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != template.theta.shape:
        raise ShapeError(
            f"expected a flat vector of {template.theta.size} entries, got shape {vector.shape}"
        )
    bank = SubnetBank(template.mode, template.sharing, template.d, template.num_steps,
                      template.hidden, template.activation)
    bank.theta[...] = vector
    return bank
