"""GAN architectures in the quaternion framework: declarative specs, the
module/Model machinery, and parameter accounting, including the counts of the
real-valued twins that the quaternion models are compared with.

A model is a list of modules. The residual blocks of the spectral-norm GAN
lineage are each one :class:`Residual`, a main path and a shortcut (two lists
of modules) whose outputs are added. :func:`gen_block`, :func:`disc_block` and
:func:`first_disc_block` fill those lists and state the channel conventions;
they take quaternion channel counts, while :class:`ModelSpec` widths count
real channels.

The qsngan G maps real noise, a plain (B, noise_dim) array, by a real dense
layer to its first quaternion map; the qsngan D returns (B, 1) quaternion
decisions, which the hinge loss scores by their component sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import qnorm
from .errors import ConfigError, DomainError, ShapeMismatchError
from .qtensor import QTensor, live_array

__all__ = [
    "ModelSpec",
    "Model",
    "build_gan",
    "count_parameters",
    "count_twin_parameters",
    "apply_spectral_norm",
    "sn_warmup",
    "measure_sigmas",
    "PRESETS",
    "preset_spec",
]

@dataclass
class Param:
    """A trainable value: a :class:`QTensor` for a quaternion parameter, or a
    plain ndarray at its true shape for a real one. Optimizers update the
    stored array in place and never rebind ``value``."""

    value: QTensor | np.ndarray

    @property
    def kind(self) -> str:
        """'quat' or 'real', by the value's type. The library does not read
        it; the benchmark harness does."""
        return "quat" if isinstance(self.value, QTensor) else "real"


# -- module machinery -----------------------------------------------------------


class Module:
    def __init__(self, name: str):
        self.name = name

    def params(self):
        return []

    def states(self):
        """(name, array) pairs of the module's non-trainable state.

        The arrays are the module's own, not copies, and exist from
        construction on: a checkpoint save reads them and a checkpoint load
        writes into them in place. A module updates them in place and never
        rebinds them.
        """
        return []

    def init_params(self, rng: np.random.Generator, criterion: str):
        pass

    def forward(self, leaves, x):
        raise NotImplementedError


class _WeightedModule(Module):
    """Base for modules with a quaternion kernel that may be spectrally normalized.

    ``kernel_shape`` is the quaternion kernel shape; it holds ``in_q * out_q``
    quaternions per tap, and the bias holds ``out_q``. Under spectral norm,
    ``sn_u`` holds one power-iteration vector per matrix of
    :meth:`sn_matrices`.
    """

    def __init__(self, name, kernel_shape, in_q, out_q, bias, dtype):
        super().__init__(name)
        if in_q < 1 or out_q < 1:
            raise ConfigError(f"channel counts must be positive: {in_q}, {out_q}")
        self.in_q, self.out_q = in_q, out_q
        self.kernel = Param(QTensor.zeros(kernel_shape, dtype=dtype))
        self.bias = Param(QTensor.zeros((out_q,), dtype=dtype)) if bias else None
        self.sn_mode = None
        self.sn_u: list[np.ndarray] = []
        self.sn_scale = None  # per-component 1/sigma factors for the current step

    def params(self):
        out = [(f"{self.name}.kernel", self.kernel)]
        if self.bias is not None:
            out.append((f"{self.name}.bias", self.bias))
        return out

    def init_params(self, rng, criterion):
        shape = self.kernel.value.shape
        taps = int(np.prod(shape)) // (self.in_q * self.out_q)
        w = L.quaternion_init(shape, self.in_q * taps, self.out_q * taps, criterion, rng)
        self.kernel.value.data[...] = w.data

    def _bias_node(self, leaves):
        return leaves.get(f"{self.name}.bias") if self.bias is not None else None

    def enable_sn(self, mode: str):
        if mode not in ("full", "split"):
            raise ConfigError(f"unknown spectral norm mode {mode!r}")
        self.sn_mode = mode
        kernel = self.kernel.value
        self.sn_u = [np.full(len(m), 1.0 / np.sqrt(len(m)), dtype=kernel.dtype)
                     for m in self.sn_matrices(kernel)]

    def sn_matrices(self, kernel: QTensor) -> list[np.ndarray]:
        """The matrices whose norm the SN mode controls: the four component
        submatrices in split mode, else the Hamilton block of ``kernel``."""
        if self.sn_mode == "split":
            return list(kernel.data.reshape(4, kernel.shape[0], -1))
        return [L.hamilton_block(kernel.data)]

    def update_sn_scale(self):
        """One power-iteration round per matrix; a sigma of 0 leaves its scale at 1."""
        if self.sn_mode is None:
            return
        kernel = self.kernel.value
        sigmas = [qnorm.power_iteration_sigma(m, u)
                  for m, u in zip(self.sn_matrices(kernel), self.sn_u)]
        self.sn_scale = np.full(4, [1.0 / s if s > 0 else 1.0 for s in sigmas],
                                dtype=kernel.dtype)

    def effective_kernel(self) -> QTensor:
        if self.sn_scale is None:
            return self.kernel.value
        s = self.sn_scale.reshape(4, *([1] * len(self.kernel.value.shape)))
        return QTensor(self.kernel.value.data * s)

    def _kernel_node(self, leaves):
        node = leaves[f"{self.name}.kernel"]
        if self.sn_scale is not None:
            node = ad.scale_components(node, self.sn_scale)
        return node

    def states(self):
        if len(self.sn_u) == 1:
            return [(f"{self.name}.sn_u", self.sn_u[0])]
        return [(f"{self.name}.sn_u{c}", u) for c, u in enumerate(self.sn_u)]


class QDense(_WeightedModule):
    def __init__(self, name, in_q, out_q, bias=True, dtype=np.float64):
        super().__init__(name, (out_q, in_q), in_q, out_q, bias, dtype)

    def forward(self, leaves, x):
        return ad.qdense(x, self._kernel_node(leaves), self._bias_node(leaves))


class QConv(_WeightedModule):
    """A ``k``x``k`` conv from ``in_q`` to ``out_q`` quaternion channels; its
    geometry is its kernel's shape, (out_q, in_q, k, k), plus ``stride`` and
    ``padding``."""

    def __init__(self, name, in_q, out_q, k, stride, padding, bias=True, dtype=np.float64):
        super().__init__(name, (out_q, in_q, k, k), in_q, out_q, bias, dtype)
        self.stride, self.padding = stride, padding

    def forward(self, leaves, x):
        return ad.qconv2d(x, self._kernel_node(leaves), self._bias_node(leaves),
                          self.stride, self.padding)


class QUpConv(_WeightedModule):
    """A nearest 2x upsample followed by a 3x3, stride-1, padding-1 conv from
    ``in_q`` to ``out_q`` channels, run as one stride-2, padding-1 transposed
    conv of the low-resolution input against
    :func:`quatgan.autodiff.upconv_kernel` of the conv's (out_q, in_q, 3, 3)
    kernel. The parameters are the 3x3 conv's."""

    def __init__(self, name, in_q, out_q, dtype=np.float64):
        super().__init__(name, (out_q, in_q, 3, 3), in_q, out_q, True, dtype)

    def forward(self, leaves, x):
        kernel = ad.upconv_kernel(self._kernel_node(leaves))
        return ad.qtconv2d(x, kernel, self._bias_node(leaves), 2, 1)


class QDownConv(_WeightedModule):
    """A 3x3, stride-1, padding-1 conv from ``in_q`` to ``out_q`` channels
    followed by a 2x2 average pool, run as one stride-2, padding-1 conv of
    the input against :func:`quatgan.autodiff.downconv_kernel` of the conv's
    (out_q, in_q, 3, 3) kernel. The parameters are the 3x3 conv's. Like the
    pool, it refuses a map with an odd side."""

    def __init__(self, name, in_q, out_q, dtype=np.float64):
        super().__init__(name, (out_q, in_q, 3, 3), in_q, out_q, True, dtype)

    def forward(self, leaves, x):
        h, w = x.value.shape[-2:]
        if h % 2 or w % 2:
            raise ShapeMismatchError(f"{self.name} pools by 2 and needs even spatial dims, "
                                     f"got {(h, w)}")
        kernel = ad.downconv_kernel(self._kernel_node(leaves))
        return ad.qconv2d(x, kernel, self._bias_node(leaves), 2, 1)


class QTConv(_WeightedModule):
    """A ``k``x``k`` transposed conv from ``in_q`` to ``out_q`` quaternion
    channels; its geometry is its kernel's shape, (in_q, out_q, k, k), plus
    ``stride`` and ``padding``."""

    def __init__(self, name, in_q, out_q, k, stride, padding, bias=True, dtype=np.float64):
        super().__init__(name, (in_q, out_q, k, k), in_q, out_q, bias, dtype)
        self.stride, self.padding = stride, padding

    def forward(self, leaves, x):
        return ad.qtconv2d(x, self._kernel_node(leaves), self._bias_node(leaves),
                           self.stride, self.padding)


class RealDense(Module):
    """Real fully connected layer (a plain (out_f, in_f) kernel and (out_f,)
    bias) from real features to a (channels, h, w) quaternion map:
    :func:`quatgan.autodiff.real_dense`."""

    def __init__(self, name, in_f, channels, h, w, dtype=np.float64):
        super().__init__(name)
        self.in_f, self.out_f, self.map = in_f, 4 * channels * h * w, (channels, h, w)
        self.kernel = Param(np.zeros((self.out_f, in_f), dtype=dtype))
        self.bias = Param(np.zeros(self.out_f, dtype=dtype))

    def params(self):
        return [(f"{self.name}.kernel", self.kernel), (f"{self.name}.bias", self.bias)]

    def init_params(self, rng, criterion):
        a = np.sqrt(6.0 / (self.in_f + self.out_f))
        self.kernel.value[...] = rng.uniform(-a, a, size=(self.out_f, self.in_f))

    def forward(self, leaves, x):
        return ad.real_dense(x, leaves[f"{self.name}.kernel"], leaves[f"{self.name}.bias"],
                             *self.map)


class QBN(Module):
    """Quaternion batch normalization (:func:`quatgan.qnorm.qbn`) with a real
    gain ``gamma`` (a plain array, starting at 1) and a quaternion shift
    ``beta`` (starting at 0) per channel. It has no state."""

    def __init__(self, name, channels, dtype=np.float64):
        super().__init__(name)
        self.channels = channels
        self.gamma = Param(np.ones(channels, dtype=dtype))
        self.beta = Param(QTensor.zeros((channels,), dtype=dtype))

    def params(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def forward(self, leaves, x):
        return qnorm.qbn(x, leaves[f"{self.name}.gamma"], leaves[f"{self.name}.beta"])


class Op(Module):
    """A stateless step between layers: its forward is ``fn(x, *args)`` for a
    tape op ``fn`` of :mod:`quatgan.autodiff`. It has no parameters and no
    state, so a real twin counts it as no parameters."""

    def __init__(self, name, fn, *args):
        super().__init__(name)
        self.fn, self.args = fn, args

    def forward(self, leaves, x):
        return self.fn(x, *self.args)


class Residual(Module):
    """A residual block: the sum of two paths over the block input.

    ``main`` and ``shortcut`` are lists of modules, each run in order; an
    empty ``shortcut`` is the identity. The block's parameters, states and
    leaf modules are those of ``main`` followed by those of ``shortcut``.
    """

    def __init__(self, name, main: list[Module], shortcut: list[Module]):
        super().__init__(name)
        self.main, self.shortcut = main, shortcut

    def params(self):
        return [p for m in self.main + self.shortcut for p in m.params()]

    def states(self):
        return [s for m in self.main + self.shortcut for s in m.states()]

    def init_params(self, rng, criterion):
        for m in self.main + self.shortcut:
            m.init_params(rng, criterion)

    def forward(self, leaves, x):
        h = sc = x
        for m in self.main:
            h = m.forward(leaves, h)
        for m in self.shortcut:
            sc = m.forward(leaves, sc)
        return ad.add(h, sc)


def _conv(name, k, i, o, dtype):
    """A stride-1 ``k``x``k`` conv from ``i`` to ``o`` quaternion channels
    that keeps the map size (padding ``k // 2``)."""
    return QConv(name, i, o, k, 1, k // 2, dtype=dtype)


def gen_block(name, i, o, dtype=np.float64) -> Residual:
    """Upsampling generator block, ``i`` to ``o`` quaternion channels: conv1
    ``i -> o`` on the nearest 2x upsample, conv2 ``o -> o``, and a learnable
    1x1 shortcut conv. conv1 is a :class:`QUpConv`, which runs at the low
    resolution; the shortcut conv runs before its upsample, with which a 1x1
    conv and its bias commute."""
    main = [
        QBN(f"{name}.bn1", i, dtype=dtype),
        Op(f"{name}.act1", ad.split_act, "relu"),
        QUpConv(f"{name}.conv1", i, o, dtype=dtype),
        QBN(f"{name}.bn2", o, dtype=dtype),
        Op(f"{name}.act2", ad.split_act, "relu"),
        _conv(f"{name}.conv2", 3, o, o, dtype),
    ]
    shortcut = [_conv(f"{name}.sc", 1, i, o, dtype), Op(f"{name}.sc_up", ad.upsample2x)]
    return Residual(name, main, shortcut)


def disc_block(name, i, o, downsample, dtype=np.float64) -> Residual:
    """Discriminator block, ``i`` to ``o`` quaternion channels, with spectral
    norm in place of QBN: conv1 ``i -> i``, conv2 ``i -> o``. The shortcut has
    a learnable 1x1 conv only when the block pools or changes width; the
    refiner, which does neither, keeps the identity. A downsampling block's
    conv2 is a :class:`QDownConv`, which runs at the pooled resolution, and
    its shortcut pools before the 1x1 conv, with which the pool and the
    conv's bias commute."""
    main = [
        Op(f"{name}.act1", ad.split_act, "relu"),
        _conv(f"{name}.conv1", 3, i, i, dtype),
        Op(f"{name}.act2", ad.split_act, "relu"),
        QDownConv(f"{name}.conv2", i, o, dtype=dtype) if downsample
        else _conv(f"{name}.conv2", 3, i, o, dtype),
    ]
    shortcut = [Op(f"{name}.sc_pool", ad.avg_pool, 2)] if downsample else []
    if downsample or i != o:
        shortcut.append(_conv(f"{name}.sc", 1, i, o, dtype))
    return Residual(name, main, shortcut)


def first_disc_block(name, o, dtype=np.float64) -> Residual:
    """Input block of the discriminator, the image's one quaternion channel
    to ``o``: no leading ReLU, conv2 a :class:`QDownConv`, and the shortcut
    pools before its 1x1 conv, as in :func:`disc_block`."""
    main = [
        _conv(f"{name}.conv1", 3, 1, o, dtype),
        Op(f"{name}.act", ad.split_act, "relu"),
        QDownConv(f"{name}.conv2", o, o, dtype=dtype),
    ]
    shortcut = [Op(f"{name}.sc_pool", ad.avg_pool, 2), _conv(f"{name}.sc", 1, 1, o, dtype)]
    return Residual(name, main, shortcut)


def _leaves(module: Module):
    """``module`` itself, or the leaves of a ``Residual``'s main path and
    shortcut, in that order."""
    if isinstance(module, Residual):
        for m in module.main + module.shortcut:
            yield from _leaves(m)
    else:
        yield module


# -- model ------------------------------------------------------------------------


class Model:
    """Ordered module list with a tape-forward entry point."""

    def __init__(self, name: str, modules: list[Module]):
        self.name = name
        self.modules = modules

    def parameters(self) -> dict[str, Param]:
        out = {}
        for m in self.modules:
            for pname, p in m.params():
                if pname in out:
                    raise ConfigError(f"duplicate parameter name {pname!r}")
                out[pname] = p
        return out

    def param_tensors(self) -> dict[str, QTensor | np.ndarray]:
        return {k: p.value for k, p in self.parameters().items()}

    def states(self) -> dict[str, np.ndarray]:
        """Every module's live state arrays by name (see :meth:`Module.states`)."""
        return {name: arr for m in self.modules for name, arr in m.states()}

    def init_params(self, rng: np.random.Generator, criterion: str = "glorot"):
        for m in self.modules:
            m.init_params(rng, criterion)

    def bind(self, tape: ad.Tape) -> dict[str, ad.Node]:
        return {name: tape.param(name, p.value) for name, p in self.parameters().items()}

    # The benchmark harness still passes ``training=True`` here and
    # ``update_stats`` to forward_array; both change nothing, and both
    # parameters go when the harness runs the shared training step.
    def forward(self, tape: ad.Tape, x: ad.Node, leaves=None, *,
                training: bool = True) -> ad.Node:
        """Run every module on ``x`` with parameters from ``leaves`` (bound to
        ``tape`` when not given). QBN has no eval mode, so ``training=False``
        raises :class:`DomainError`."""
        if not training:
            raise DomainError("QBN has no eval mode: every forward uses batch statistics")
        if leaves is None:
            leaves = self.bind(tape)
        h = x
        for m in self.modules:
            h = m.forward(leaves, h)
        return h

    def forward_array(self, x: QTensor | np.ndarray, *, training: bool = True,
                      update_stats: bool | None = None) -> QTensor:
        """Pure forward (no gradients recorded) as a C-contiguous array; see
        :meth:`forward`."""
        tape = ad.Tape(needs_grad=False)
        return QTensor(np.ascontiguousarray(self.forward(tape, tape.constant(x),
                                                         training=training).value.data))

    def leaf_modules(self):
        for m in self.modules:
            yield from _leaves(m)

    def weighted_modules(self):
        return (m for m in self.leaf_modules() if isinstance(m, _WeightedModule))


def _scalars(params) -> int:
    """Real scalars the parameters store: all four components of a
    quaternion parameter, every entry of a real one."""
    return sum(live_array(p.value).size for p in params)


def count_parameters(model) -> int:
    """Exact count of trainable real scalars."""
    return _scalars(model.parameters().values())


def apply_spectral_norm(model: Model):
    """Refresh every normalized weight's 1/sigma scale (one persisted power
    iteration per weight); called before each discriminator forward."""
    for m in model.weighted_modules():
        m.update_sn_scale()


def sn_warmup(model: Model, iters: int = 20):
    for _ in range(iters):
        apply_spectral_norm(model)


def _largest_singular_value(a: np.ndarray) -> float:
    """The spectral norm of ``a``: the square root of the top eigenvalue of
    its float64 Gram matrix, formed on the smaller side. It agrees with a
    float64 SVD to about 1e-15 relative and costs a fraction of one."""
    a = np.asarray(a, dtype=np.float64)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def measure_sigmas(model: Model) -> dict[str, float]:
    """True spectral norms of the effective weights, per weighted module.

    Full/no normalization measures the constructed real block matrix; split
    normalization measures the worst per-submatrix norm, matching what that
    mode claims to control.
    """
    return {m.name: max(_largest_singular_value(a)
                        for a in m.sn_matrices(m.effective_kernel()))
            for m in model.weighted_modules()}


# -- specs & builders ----------------------------------------------------------------


@dataclass
class ModelSpec:
    """Declarative architecture description read by the builders.

    ``g_widths`` lists real-channel widths: the initial feature width followed
    by each generator block's output width. ``d_widths`` lists the first
    block's width followed by each discriminator block's output width;
    ``d_downsample`` flags downsampling per post-first block (defaults to all
    but the last).
    """

    family: str
    image_size: int
    g_widths: list[int]
    d_widths: list[int]
    noise_dim: int = 128
    base_spatial: int = 4
    d_downsample: list[bool] | None = None
    sn: str = "full"

    def __post_init__(self):
        if self.family not in ("qsngan", "qdcgan"):
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.sn not in ("none", "split", "full"):
            raise ConfigError(f"unknown sn mode {self.sn!r}")
        for w in self.g_widths + self.d_widths:
            if w <= 0 or w % 4:
                raise ConfigError(f"filter width {w} is not a positive multiple of 4")
        if self.family == "qsngan":
            ups = len(self.g_widths) - 1
            if self.d_downsample is None:
                self.d_downsample = [True] * (len(self.d_widths) - 2) + [False]
            if len(self.d_downsample) != len(self.d_widths) - 1:
                raise ConfigError("d_downsample must cover every post-first block")
        else:
            ups = len(self.g_widths)
            if self.noise_dim % 4:
                raise ConfigError("qdcgan noise_dim must be divisible by 4")
        if self.base_spatial * 2 ** ups != self.image_size:
            raise ConfigError(
                f"image size {self.image_size} not reachable from base {self.base_spatial} "
                f"with {ups} doubling blocks"
            )


def build_gan(spec: ModelSpec, dtype=np.float64) -> tuple[Model, Model]:
    """Generator and discriminator of ``spec``'s family.

    This is the one builder: it enables spectral norm of mode ``spec.sn`` on
    every weighted module of the discriminator. Parameters keep their
    construction values until :meth:`Model.init_params` draws them.
    """
    build = _build_sngan if spec.family == "qsngan" else _build_dcgan
    g, d = build(spec, dtype)
    if spec.sn != "none":
        for m in d.weighted_modules():
            m.enable_sn(spec.sn)
    return g, d


def _build_sngan(spec: ModelSpec, dtype) -> tuple[Model, Model]:
    s = spec.base_spatial
    base = spec.g_widths[0]
    g_modules: list[Module] = [
        RealDense("g.fc", spec.noise_dim, base // 4, s, s, dtype=dtype),
    ]
    prev = base
    for i, w in enumerate(spec.g_widths[1:], start=1):
        g_modules.append(gen_block(f"g.b{i}", prev // 4, w // 4, dtype=dtype))
        prev = w
    g_modules += [
        QBN("g.out_bn", prev // 4, dtype=dtype),
        Op("g.out_act", ad.split_act, "relu"),
        _conv("g.out_conv", 3, prev // 4, 1, dtype),
        Op("g.out_tanh", ad.split_act, "tanh"),
    ]

    d_modules: list[Module] = [first_disc_block("d.b0", spec.d_widths[0] // 4, dtype=dtype)]
    prev = spec.d_widths[0]
    for i, (w, down) in enumerate(zip(spec.d_widths[1:], spec.d_downsample), start=1):
        d_modules.append(disc_block(f"d.b{i}", prev // 4, w // 4, down, dtype=dtype))
        prev = w
    d_modules += [
        Op("d.out_act", ad.split_act, "relu"),
        Op("d.pool", ad.global_sum_pool),
        Op("d.flat", ad.reshape, (-1, prev // 4)),
        QDense("d.fc", prev // 4, 1, dtype=dtype),
    ]
    return Model("g", g_modules), Model("d", d_modules)


def _build_dcgan(spec: ModelSpec, dtype) -> tuple[Model, Model]:
    s = spec.base_spatial
    widths = spec.g_widths
    g_modules: list[Module] = [
        QDense("g.fc", spec.noise_dim // 4, widths[0] // 4 * s * s, dtype=dtype),
        Op("g.reshape", ad.reshape, (-1, widths[0] // 4, s, s)),
    ]
    chain = widths + [4]
    for i in range(len(chain) - 1):
        g_modules.append(QTConv(f"g.t{i}", chain[i] // 4, chain[i + 1] // 4, 4, 2, 1,
                                dtype=dtype))
        if i < len(chain) - 2:
            g_modules.append(QBN(f"g.bn{i}", chain[i + 1] // 4, dtype=dtype))
            g_modules.append(Op(f"g.act{i}", ad.split_act, "relu"))
        else:
            g_modules.append(Op("g.tanh", ad.split_act, "tanh"))

    d_chain = [4] + widths[::-1]
    d_modules: list[Module] = []
    size = spec.image_size
    for i in range(len(d_chain) - 1):
        d_modules.append(QConv(f"d.c{i}", d_chain[i] // 4, d_chain[i + 1] // 4, 4, 2, 1,
                               dtype=dtype))
        if i > 0:
            d_modules.append(QBN(f"d.bn{i}", d_chain[i + 1] // 4, dtype=dtype))
        d_modules.append(Op(f"d.act{i}", ad.split_act, "relu"))
        size //= 2
    flat = d_chain[-1] // 4 * size * size
    d_modules += [
        Op("d.flat", ad.reshape, (-1, flat)),
        QDense("d.fc", flat, 1, dtype=dtype),
        Op("d.sigmoid", ad.split_act, "sigmoid"),
    ]
    return Model("g", g_modules), Model("d", d_modules)


# -- real twins -----------------------------------------------------------------------


def _twin_parameters(m: Module, in_ch: int | None = None, out_ch: int | None = None) -> int:
    """Parameters of the real layer that stands for ``m`` in the real twin.

    A quaternion weighted layer becomes the real layer of its Hamilton block
    (:func:`layers.hamilton_block`): ``4*out_q`` by ``4*in_q`` real channels
    per tap, four times the kernel's scalars, plus ``4*out_q`` biases.
    ``in_ch``/``out_ch`` replace those real channel counts where the twin
    differs from the block. A QBN over C quaternion channels becomes a real
    BN over 4C channels (gain and shift each); a ``RealDense`` is real already.
    """
    if isinstance(m, QBN):
        return 8 * m.channels
    if isinstance(m, RealDense):
        return _scalars(p for _, p in m.params())
    if not isinstance(m, _WeightedModule):
        return 0
    taps = m.kernel.value.data.size // (4 * m.in_q * m.out_q)
    in_ch, out_ch = in_ch or 4 * m.in_q, out_ch or 4 * m.out_q
    return out_ch * in_ch * taps + (out_ch if m.bias is not None else 0)


def count_twin_parameters(spec: ModelSpec) -> tuple[int, int]:
    """Parameter counts of the real-valued twins of the G and D of ``spec``.

    A twin has the topology of the quaternion model built by
    :func:`build_gan`, with each layer replaced as :func:`_twin_parameters`
    says. There are two exceptions. The image carries ``img_ch`` real
    channels: 3 for qsngan, whose twin models RGB, and 4 for qdcgan. So G's
    last weighted layer writes ``img_ch`` channels, and the layers of D's
    input module that read the image, the first weighted layer on each of its
    paths, read ``img_ch``. And D's last weighted layer, the decision head,
    has one real output.
    """
    img_ch = 3 if spec.family == "qsngan" else 4
    g, d = build_gan(spec)
    g_image = list(g.weighted_modules())[-1]
    d_head = list(d.weighted_modules())[-1]
    first = d.modules[0]
    paths = (first.main, first.shortcut) if isinstance(first, Residual) else ([first],)
    d_image = {next((w for m in path for w in _leaves(m) if isinstance(w, _WeightedModule)),
                    None) for path in paths}
    g_twin = sum(_twin_parameters(m, out_ch=img_ch if m is g_image else None)
                 for m in g.leaf_modules())
    d_twin = sum(_twin_parameters(m, in_ch=img_ch if m in d_image else None,
                                  out_ch=1 if m is d_head else None)
                 for m in d.leaf_modules())
    return g_twin, d_twin


# -- presets ------------------------------------------------------------------------


def preset_spec(name: str) -> ModelSpec:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown model preset {name!r}; known: {sorted(PRESETS)}") from None


PRESETS = {
    "qsngan_celeba128": lambda: ModelSpec(
        family="qsngan", image_size=128, base_spatial=4,
        g_widths=[1024, 1024, 512, 256, 128, 64],
        d_widths=[64, 128, 256, 512, 1024, 1024],
        d_downsample=[True, True, True, True, False],
    ),
    "qsngan_cifar32": lambda: ModelSpec(
        family="qsngan", image_size=32, base_spatial=4,
        g_widths=[256, 256, 256, 256],
        d_widths=[128, 128, 128, 128],
        d_downsample=[True, False, False],
    ),
    "qsngan_stl48": lambda: ModelSpec(
        family="qsngan", image_size=48, base_spatial=6,
        g_widths=[512, 256, 128, 64],
        d_widths=[64, 128, 256, 512, 1024],
        d_downsample=[True, True, True, False],
    ),
    "qsngan_toy16": lambda: ModelSpec(
        family="qsngan", image_size=16, base_spatial=4,
        g_widths=[64, 64, 32],
        d_widths=[32, 64, 64],
        d_downsample=[True, False],
    ),
    "qsngan_toy8": lambda: ModelSpec(
        family="qsngan", image_size=8, base_spatial=4,
        g_widths=[32, 32],
        d_widths=[32, 32],
        d_downsample=[False],
    ),
    "qdcgan_toy16": lambda: ModelSpec(
        family="qdcgan", image_size=16, base_spatial=4,
        g_widths=[64, 32], d_widths=[32, 64], sn="none",
    ),
    "qdcgan_toy8": lambda: ModelSpec(
        family="qdcgan", image_size=8, base_spatial=4,
        g_widths=[32], d_widths=[32], sn="none",
    ),
}
