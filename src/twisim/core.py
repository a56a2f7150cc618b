"""Shared domain types: time values, transmission-time distributions, RNG streams.

Times and durations are nonnegative floats in seconds.  Transmission times over
a digital link are opaque random variables with bounded nonnegative support;
no channel or queueing model is attached to them.  Each model checks its
parameters once, when it is built, and carries its own maths: support, mean,
tail, Laplace transform, expectations and sampling.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import reprlib
import sys
import types
import warnings
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Callable, ClassVar, Iterable, Optional, Union


class _Deferred(types.ModuleType):
    """A module that is imported when one of its attributes is first read.

    Each attribute read is stored on this object, so later reads are plain
    lookups.  ``import_module`` holds the module's import lock, so threads
    that read at once all get the module fully built."""

    def __getattr__(self, name: str):
        value = getattr(importlib.import_module(self.__name__), name)
        setattr(self, name, value)
        return value


# NumPy loads at the first array a command needs; twisim's modules take np from here
np = _Deferred("numpy")

TimePoint = float
Duration = float
RandomSeed = int


class ParameterError(ValueError):
    """Raised when a model or scenario parameter violates its invariants."""


# An error quotes what a field got, cut to a few elements and characters: a
# trace or a string of any length gives a message of bounded length.
_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxdict, _SHORT.maxlist, _SHORT.maxstring = 2, 4, 4, 40
_shown = _SHORT.repr


def ensure_duration(value: float, name: str = "duration") -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------


@functools.cache
def _quadpack():
    """SciPy's compiled QUADPACK module, loaded on its own, once.

    Importing ``scipy.integrate`` to reach it loads some 560 modules, about
    45 MB and 0.4 s of CPU (SciPy 1.17).  ``find_spec`` locates the package without
    importing it.  The extension registers itself in ``sys.modules`` as it
    loads; the entry is dropped, so that a later ``import scipy.integrate``
    loads its package as usual.
    """
    name = "scipy.integrate._quadpack"
    if name in sys.modules:  # scipy.integrate is imported already
        return sys.modules[name]
    package = importlib.util.find_spec("scipy").submodule_search_locations[0]
    finder = FileFinder(os.path.join(package, "integrate"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


@functools.cache
def _scipy_version() -> str:
    """SciPy's version, from its ``version.py`` loaded on its own, for a
    process that has run ``_quadpack`` but not imported the package."""
    package = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.util.spec_from_file_location("scipy.version", os.path.join(package, "version.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


def _quad(fn: Callable[[float], float], a: float, b: float) -> float:
    """The integral of fn over [a, b], a <= b, by the QUADPACK call that
    ``scipy.integrate.quad(fn, a, b, limit=200)`` makes: QAGS for a finite
    b, QAGI for b = +inf (an exponential's cut-off ``shift + 50 / rate``
    overflows to it for rates below about 2.8e-307).  A nonzero error code
    ``ier`` gives a RuntimeWarning where quad gives an IntegrationWarning."""
    if b == math.inf:
        value, _, ier = _quadpack()._qagie(fn, a, 1, (), 0, 1.49e-8, 1.49e-8, 200)
    else:
        value, _, ier = _quadpack()._qagse(fn, a, b, (), 0, 1.49e-8, 1.49e-8, 200)
    if ier:
        message = f"QUADPACK returned ier={ier}: the integral may be inaccurate"
        warnings.warn(message, RuntimeWarning, stacklevel=3)
    return value


# ---------------------------------------------------------------------------
# Transmission-time distributions
# ---------------------------------------------------------------------------


class _Model:
    """What every transmission-time model provides.

    Models are frozen dataclasses that check their parameters once, in
    ``__post_init__``.  ``mean``, ``tail``, ``laplace`` and ``clamped_ratio``
    default to ``expect`` over the matching function, which is exact for the
    finitely supported models; continuous models override them with closed
    forms.  Each model draws through one routine, ``sample_into``, which
    takes a fixed count of values from the stream per draw, so that streams
    replay bit-identically; ``core.sample`` wraps it.  A model whose draws
    take one or two exact values names them in ``atoms``; a two-atom model
    also draws which one each draw takes, by ``pick_into``.
    """

    kind: ClassVar[str]  # the model's name in configs

    def support(self) -> tuple[float, float]:
        """Tight support bounds (t_min, t_max); t_max may be +inf."""
        raise NotImplementedError

    def sample_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Write ``len(out)`` draws into the contiguous float64 array ``out``,
        say a column of a Fortran-order matrix, and no other memory."""
        raise NotImplementedError

    def atoms(self) -> Optional[tuple[float, ...]]:
        """The one or two exact values every draw takes, if the model has so
        few, else None.  A one-atom model takes no values from the stream."""
        return None

    def pick_into(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """For a two-atom model: take from ``rng`` the values ``sample_into``
        takes for ``len(out)`` draws, using the float64 array ``out`` as
        scratch, and return a boolean array, True where a draw is
        ``atoms()[0]``."""
        raise NotImplementedError

    def expect(self, fn: Callable[[float], float]) -> float:
        """E[fn(T)], by atom sums or adaptive quadrature."""
        raise NotImplementedError

    def mean(self) -> float:
        return self.expect(lambda t: t)

    def tail(self, w: float) -> float:
        """Pr[T > w]."""
        return self.expect(lambda t: 1.0 if t > w else 0.0)

    def laplace(self, lam: float) -> float:
        """E[exp(-lam * T)] for lam >= 0."""
        return self.expect(lambda t: math.exp(-lam * t))

    def clamped_ratio(self, w: float) -> float:
        """E[min(T / w, 1)] for w > 0."""
        return self.expect(lambda t: min(t / w, 1.0))


@dataclass(frozen=True)
class Constant(_Model):
    value: float

    kind = "constant"

    def __post_init__(self) -> None:
        ensure_duration(self.value, "Constant.value")

    def support(self) -> tuple[float, float]:
        return self.value, self.value

    def atoms(self) -> tuple[float]:
        return (self.value,)

    def sample_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        out.fill(self.value)

    def expect(self, fn: Callable[[float], float]) -> float:
        return fn(self.value)


@dataclass(frozen=True)
class UniformRange(_Model):
    low: float
    high: float

    kind = "uniform"

    def __post_init__(self) -> None:
        low = ensure_duration(self.low, "UniformRange.low")
        high = ensure_duration(self.high, "UniformRange.high")
        if low > high:
            raise ParameterError(f"UniformRange requires low <= high, got ({low}, {high})")

    def support(self) -> tuple[float, float]:
        return self.low, self.high

    def sample_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        # the values of rng.uniform(low, high), which computes low + (high - low) * u;
        # adding a zero low to draws >= +0 would change none of them
        rng.random(out=out)
        out *= self.high - self.low
        if self.low:
            out += self.low

    def expect(self, fn: Callable[[float], float]) -> float:
        if self.high == self.low:
            return fn(self.low)
        return _quad(fn, self.low, self.high) / (self.high - self.low)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def tail(self, w: float) -> float:
        if w < self.low:
            return 1.0
        if w >= self.high:
            return 0.0
        return (self.high - w) / (self.high - self.low)

    def laplace(self, lam: float) -> float:
        if self.high == self.low or lam == 0.0:
            return math.exp(-lam * self.low) if lam else 1.0
        return (math.exp(-lam * self.low) - math.exp(-lam * self.high)) / (
            lam * (self.high - self.low)
        )

    def clamped_ratio(self, w: float) -> float:
        a, b = self.low, self.high
        if b == a:
            return min(a / w, 1.0)
        if b <= w:
            return (a + b) / (2.0 * w)
        if a >= w:
            return 1.0
        ramp = (w * w - a * a) / (2.0 * w)  # integral of t/w over [a, w)
        return (ramp + (b - w)) / (b - a)


@dataclass(frozen=True)
class ShiftedExponential(_Model):
    shift: float
    rate: float

    kind = "shifted_exponential"

    def __post_init__(self) -> None:
        ensure_duration(self.shift, "ShiftedExponential.shift")
        rate = float(self.rate)
        if not math.isfinite(rate) or rate <= 0.0:
            raise ParameterError(f"ShiftedExponential.rate must be > 0, got {rate!r}")

    def support(self) -> tuple[float, float]:
        return self.shift, math.inf

    def sample_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        # the values of shift + rng.exponential(1 / rate); adding a zero
        # shift to draws >= +0 would change none of them
        rng.standard_exponential(out=out)
        out *= 1.0 / self.rate
        if self.shift:
            out += self.shift

    def expect(self, fn: Callable[[float], float]) -> float:
        # integrate the excess over an effectively full tail
        shift, rate = self.shift, self.rate
        upper = shift + 50.0 / rate
        if upper == shift:  # the tail is below half an ulp of shift: a point mass there
            return fn(shift)

        def weighted(x: float) -> float:
            return fn(x) * rate * math.exp(-rate * (x - shift))

        return _quad(weighted, shift, upper)

    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    def tail(self, w: float) -> float:
        if w < self.shift:
            return 1.0
        return math.exp(-self.rate * (w - self.shift))

    def laplace(self, lam: float) -> float:
        return math.exp(-lam * self.shift) * self.rate / (self.rate + lam)

    def clamped_ratio(self, w: float) -> float:
        # T = shift + X, X ~ Exp(rate)
        if self.shift >= w:
            return 1.0
        rate = self.rate
        m = w - self.shift
        decay = math.exp(-rate * m)
        ramp = (self.shift * (1.0 - decay) + (1.0 - decay) / rate - m * decay) / w
        return ramp + decay


@dataclass(frozen=True)
class TwoPoint(_Model):
    """Takes ``value_a`` with probability ``p_a``, else ``value_b``."""

    value_a: float
    value_b: float
    p_a: float = 0.5

    kind = "two_point"

    def __post_init__(self) -> None:
        ensure_duration(self.value_a, "TwoPoint.value_a")
        ensure_duration(self.value_b, "TwoPoint.value_b")
        p = float(self.p_a)
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"TwoPoint.p_a must be in [0, 1], got {p!r}")

    def support(self) -> tuple[float, float]:
        if self.p_a == 0.0:
            return self.value_b, self.value_b
        if self.p_a == 1.0:
            return self.value_a, self.value_a
        return min(self.value_a, self.value_b), max(self.value_a, self.value_b)

    def atoms(self) -> tuple[float, float]:
        return self.value_a, self.value_b

    def pick_into(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        # the one place the rule is written: a uniform u < p_a takes value_a
        rng.random(out=out)
        return out < self.p_a

    def sample_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        takes_a = self.pick_into(rng, out)
        # select the value bits without a branch or a gather: mask*(a^b) ^ b
        a, b = np.array((self.value_a, self.value_b), dtype=np.float64).view(np.uint64)
        bits = out.view(np.uint64)
        np.multiply(takes_a, a ^ b, out=bits)
        bits ^= b

    def expect(self, fn: Callable[[float], float]) -> float:
        return self.p_a * fn(self.value_a) + (1.0 - self.p_a) * fn(self.value_b)


@dataclass(frozen=True)
class Empirical(_Model):
    """Replays a measured trace; sampling draws uniformly from the values.

    ``array`` holds the same values as a read-only float64 array; it backs
    sampling, ``mean``, ``tail``, ``laplace`` and ``clamped_ratio``, and is
    not compared.
    """

    values: tuple[float, ...]

    kind = "empirical"

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if not values:
            raise ParameterError("Empirical requires at least one value")
        array = np.array(values, dtype=np.float64)
        bad = ~(np.isfinite(array) & (array >= 0.0))
        if bad.any():
            ensure_duration(values[int(bad.argmax())], "Empirical value")
        array.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "array", array)

    def support(self) -> tuple[float, float]:
        return min(self.values), max(self.values)

    def sample_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        idx = rng.integers(0, len(self.array), size=len(out))
        np.take(self.array, idx, out=out, mode="clip")  # "raise" would buffer; idx is in range

    def expect(self, fn: Callable[[float], float]) -> float:
        return self.average(map(fn, self.values))

    def average(self, terms: Iterable[float]) -> float:
        """The mean of one term per value, in trace order, by the built-in sum
        (compensated from Python 3.12 on) over Python floats: an array's terms
        are passed as ``.tolist()``, so their bits match the scalar terms' on
        any Python."""
        return sum(terms) / len(self.values)

    def mean(self) -> float:
        return float(np.mean(self.array))

    def tail(self, w: float) -> float:
        return float(np.mean(self.array > w))

    def laplace(self, lam: float) -> float:
        return float(np.mean(np.exp(-lam * self.array)))

    def clamped_ratio(self, w: float) -> float:
        # the default's terms min(t / w, 1.0); t / w may overflow to inf as
        # it does in Python, where it is clamped to 1
        with np.errstate(over="ignore"):
            terms = np.minimum(self.array / w, 1.0)
        return self.average(terms.tolist())


TransmissionTimeModel = Union[Constant, UniformRange, ShiftedExponential, TwoPoint, Empirical]

MODEL_KINDS: dict[str, type] = {
    cls.kind: cls for cls in (Constant, UniformRange, ShiftedExponential, TwoPoint, Empirical)
}


def validate_model(model: TransmissionTimeModel) -> None:
    """Reject anything that is not a transmission-time model.

    Models check their own parameters when they are built, so this is a type
    check for models handed in by a caller.
    """
    if not isinstance(model, _Model):
        raise ParameterError(f"unknown transmission-time model: {model!r}")


def sample(
    model: TransmissionTimeModel,
    rng: np.random.Generator,
    size: Optional[int] = None,
    out: Optional[np.ndarray] = None,
):
    """A float for size=None, else ``size`` draws as an ndarray: ``out``,
    written in place, if given, else a new one.  The Monte-Carlo estimators
    draw through here, into ``out``."""
    draws = np.empty(1 if size is None else size) if out is None else out
    model.sample_into(rng, draws)
    return float(draws[0]) if size is None else draws


# ---------------------------------------------------------------------------
# Reproducible per-chunk streams
# ---------------------------------------------------------------------------

# Chunk c draws from spawn_key=(_CHUNK_DOMAIN, c); fixed so that seeds replay.
_CHUNK_DOMAIN = 1


def chunk_rng(seed: RandomSeed, chunk_index: int) -> np.random.Generator:
    """Independent stream for one fixed-size chunk of trials.

    Chunk boundaries are fixed by the engine, never by the thread count, so
    estimates are identical for any degree of parallelism.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_CHUNK_DOMAIN, int(chunk_index)))
    return np.random.Generator(np.random.PCG64(ss))
