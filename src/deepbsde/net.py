"""Feedforward subnetworks with their forward and backward passes, and the
parameter bank that drives a rollout.

A network is its list of (weight, bias) pairs, input layer first, plus the
activation after each hidden layer; a layer maps h to h @ weight + bias.
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
from itertools import accumulate

import numpy as np

from .errors import ConfigError, ShapeError
from .problems import XI_MODES
from .sde import RngStream, as_count

SHARINGS = ("independent", "shared")
ACTIVATION_KINDS = ("tanh", "relu", "identity")


def mlp_eval(layers, activation, x, saved=None):
    """Forward pass of the network `layers`, [(weight, bias), ...];
    `activation` after every hidden layer, identity output.

    With a `saved` list, the input of every layer is appended to it: that
    is all mlp_backward reads.
    """
    if activation not in ACTIVATION_KINDS:
        raise ConfigError(f"unknown activation '{activation}' (expected one of {ACTIVATION_KINDS})")
    h = np.asarray(x, dtype=np.float64)
    width = layers[0][0].shape[0]
    if h.ndim != 2 or h.shape[1] != width:
        raise ShapeError(f"network expects [batch, {width}] inputs, got {h.shape}")
    last = len(layers) - 1
    for k, (w, b) in enumerate(layers):
        if saved is not None:
            saved.append(h)
        h = h @ w + b
        if k < last:
            if activation == "tanh":
                h = np.tanh(h)
            elif activation == "relu":
                h = np.maximum(h, 0.0)
    return h


def mlp_backward(layers, activation, saved, grad_out):
    """[(weight grad, bias grad), ...] per layer of sum(grad_out * output).

    `saved` holds the layer inputs mlp_eval recorded. A layer input after
    an activation is the activation's output, which gives its derivative:
    1 - h^2 for tanh, and h > 0 for relu (derivative 0 at the kink). The
    gradient with respect to the network input is never formed.
    """
    grads = []
    g = grad_out
    for k in range(len(layers) - 1, -1, -1):
        h = saved[k]
        grads.append((h.T @ g, g.sum(axis=0)))
        if k == 0:
            break
        # a contiguous copy of the weight's transpose: with the transposed
        # view as the right operand, this product's bits differ between one
        # and two OpenBLAS threads (SkylakeX kernels), and every trained
        # byte after it follows; with the copy they agree
        g = g @ np.ascontiguousarray(layers[k][0].T)
        if activation == "tanh":
            g = g * (1.0 - h * h)
        elif activation == "relu":
            g = g * (h > 0.0)
    grads.reverse()
    return grads


def default_hidden(d):
    """The hidden widths of every network when none are given."""
    return (d + 10, d + 10)


class SubnetBank:
    """All trainable state for one rollout, built from its architecture.

    The six constructor arguments (xi_mode, sharing, d, num_steps, hidden
    and activation) fix the name and shape of every tensor; they are also what
    an archive stores as the bank's fingerprint. The constructor allocates
    the flat vector `theta` once, zero-filled, and binds every tensor of the
    bank (`y0` a 0-d one) as a view into it, so writing `theta` moves the
    networks. A network is its list of (weight, bias) views, and every
    network uses the bank's `activation`. `create` writes Xavier draws into
    the weight views; loading an archive writes the stored values instead
    and draws nothing.

    xi_mode is the start law, as in the config. "box": the start is random,
    `y0_net` maps it to the initial value and `z_nets` holds one gradient
    network per step (a single entry if shared). "point": the start is one
    fixed point, so the initial value is the plain scalar `y0`, the step-0
    gradient is the plain vector `z0`, and `z_nets` covers steps 1..N-1 only.
    """

    def __init__(self, xi_mode, sharing, d, num_steps, hidden=None, activation="tanh"):
        # checked before default_hidden reads d
        d, num_steps = as_count(d, "d"), as_count(num_steps, "num_steps")
        self.xi_mode, self.sharing, self.d, self.num_steps = xi_mode, sharing, d, num_steps
        self.hidden = tuple(int(w) for w in (default_hidden(d) if hidden is None else hidden))
        self.activation = activation
        groups, ends = layout(xi_mode, sharing, d, num_steps, self.hidden, activation)
        specs = iter(zip([0] + ends, ends, [shape for items in groups for _, shape in items]))
        self._layout = [[next(specs) for _ in items] for items in groups]
        self.theta = np.zeros(ends[-1], dtype=np.float64)
        head_views, net_views = self.views(self.theta)
        self.y0_net = None
        if xi_mode == "point":
            self.y0, self.z0 = head_views[0].reshape(()), head_views[1]
        else:
            self.y0_net = list(zip(head_views[0::2], head_views[1::2]))
        self.z_nets = [list(zip(v[0::2], v[1::2])) for v in net_views]
        names = [name for items in groups for name, _ in items]
        self._items = list(zip(names, head_views + [a for v in net_views for a in v]))

    def views(self, vec):
        """(head, nets): views of the flat `vec` shaped like the tensors of
        the initial-value head and of each gradient network, in flatten order."""
        head, *nets = [[vec[lo:hi].reshape(shape) for lo, hi, shape in specs]
                       for specs in self._layout]
        return head, nets

    @classmethod
    def create(cls, xi_mode, sharing, d, num_steps, hidden=None, activation="tanh", seed=0):
        """Freshly initialized bank: the initial-value network draws from
        stream (seed->0), gradient network k from (seed->k+1); a plain y0
        and z0 start at zero."""
        bank = cls(xi_mode, sharing, d, num_steps, hidden, activation)
        root = RngStream(seed)
        for k, layers in enumerate([bank.y0_net, *bank.z_nets]):
            if layers is not None:
                stream = root.derive(k)
                for w, _ in layers:
                    # Xavier-uniform, drawn in row-major element order
                    bound = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
                    w[...] = ((2.0 * stream.uniforms(w.size) - 1.0) * bound).reshape(w.shape)
        return bank

    def z_index(self, n):
        """Index into `z_nets` of the network used at step n (None when
        step 0 uses plain z0)."""
        if not 0 <= n < self.num_steps:
            raise ConfigError(f"step {n} outside 0..{self.num_steps - 1}")
        if self.xi_mode == "point":
            if n == 0:
                return None
            return 0 if self.sharing == "shared" else n - 1
        return 0 if self.sharing == "shared" else n

    def tensor_items(self):
        """(name, view into theta) pairs in flatten order; the names that
        gradient messages and tests use for theta's tensors."""
        return list(self._items)


def layout(xi_mode, sharing, d, num_steps, hidden, activation):
    """((name, shape) groups, end offsets in theta) of a bank, after checking
    its architecture; it allocates nothing, so a loader can check a size first."""
    if xi_mode not in XI_MODES:
        raise ConfigError(f"unknown xi_mode '{xi_mode}' (expected one of {XI_MODES})")
    if sharing not in SHARINGS:
        raise ConfigError(f"unknown sharing '{sharing}' (expected one of {SHARINGS})")
    d, num_steps = as_count(d, "d"), as_count(num_steps, "num_steps")
    if any(w < 1 for w in hidden):
        raise ConfigError(f"layer widths must be positive, got {(d, *hidden, d)}")
    if activation not in ACTIVATION_KINDS:
        raise ConfigError(f"unknown activation '{activation}' (expected one of {ACTIVATION_KINDS})")
    if xi_mode == "point":
        head, first = [("y0", (1,)), ("z0", (d,))], 1
    else:
        head, first = _layer_specs("psi0", (d, *hidden, 1)), 0
    networked_steps = num_steps - first
    count = min(networked_steps, 1) if sharing == "shared" else networked_steps
    labels = ["phi_shared" if sharing == "shared" else f"phi_{first + k}" for k in range(count)]
    groups = [head] + [_layer_specs(label, (d, *hidden, d)) for label in labels]
    # Python integers: a huge fingerprint gives its true size, not a wrapped one
    ends = list(accumulate(math.prod(shape) for items in groups for _, shape in items))
    return groups, ends


def _layer_specs(prefix, widths):
    """(name, shape) of each tensor of the network with these layer widths,
    input to output: layer by layer, weight before bias."""
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
    bank = SubnetBank(template.xi_mode, template.sharing, template.d, template.num_steps,
                      template.hidden, template.activation)
    bank.theta[...] = vector
    return bank
