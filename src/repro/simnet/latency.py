"""Link latency models.

Each model is a callable ``(rng) -> seconds`` giving the one-way propagation
delay of a packet.  Transmission delay (size / bandwidth) is added separately
by the link.  The defaults are calibrated to the paper's testbed: a 100
Mbit/s switched Ethernet LAN, where the observed average application-level
RTT was roughly 0.5 ms.

Every datagram on the LAN draws one :class:`LogNormalLatency` delay, so that
model runs the standard library's normal-deviate loop inline rather than
through ``Random.lognormvariate``: the same ``random()`` draws and the same
float operations, hence the same delays and the same RNG state afterwards on
every CPython whose ``random`` uses Kinderman–Monahan (3.10 – 3.13;
``tests/simnet/test_latency_oracle.py`` holds it to the stdlib call).
"""

from __future__ import annotations

import math
import random
from math import exp as _exp, log as _log
from typing import Protocol

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "lan_latency",
    "parse_latency_spec",
]

#: The Kinderman–Monahan constant ``Random.normalvariate`` uses.
_NV_MAGICCONST = random.NV_MAGICCONST


class LatencyModel(Protocol):
    """Anything callable as ``model(rng) -> seconds``."""

    def __call__(self, rng: random.Random) -> float: ...


class ConstantLatency:
    """A fixed one-way delay."""

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError("latency must be non-negative")
        self.seconds = seconds

    def __call__(self, rng: random.Random) -> float:
        return self.seconds

    def __repr__(self) -> str:
        return f"ConstantLatency({self.seconds})"


class UniformLatency:
    """One-way delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if low < 0 or high < low:
            raise ValueError(f"invalid range [{low}, {high}]")
        self.low = low
        self.high = high

    def __call__(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class LogNormalLatency:
    """Heavy-tailed delay, the usual fit for switched-LAN measurements.

    Parametrised by the median and a shape factor sigma; an optional floor
    models the minimum switching delay.
    """

    def __init__(self, median: float, sigma: float = 0.3, floor: float = 0.0):
        if median <= 0:
            raise ValueError("median must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.median = median
        self.sigma = sigma
        self.floor = floor
        self._mu = math.log(median)

    def __call__(self, rng: random.Random) -> float:
        # ``max(floor, rng.lognormvariate(mu, sigma))`` with the stdlib's
        # Kinderman–Monahan loop written out: the same ``random()`` draws
        # and float operations, without its two Python-level calls.
        draw = rng.random
        while True:
            u1 = draw()
            u2 = 1.0 - draw()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -_log(u2):
                break
        delay = _exp(self._mu + z * self.sigma)
        return delay if delay > self.floor else self.floor

    def __repr__(self) -> str:
        return f"LogNormalLatency(median={self.median}, sigma={self.sigma})"


def lan_latency() -> LogNormalLatency:
    """The paper-calibrated 100 Mbit/s LAN one-way latency model.

    Median one-way delay of 0.2 ms with mild jitter; together with
    transmission delay for ~0.5 KiB messages this yields application RTTs
    of roughly 0.5 ms, matching §5.
    """
    return LogNormalLatency(median=0.0002, sigma=0.25, floor=0.00005)


# -- declarative latency specs --------------------------------------------------------

#: Duration suffixes accepted by :func:`parse_latency_spec`.
_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6}


def _duration(text: str, spec: str) -> float:
    """``"2ms"`` / ``"0.5s"`` / ``"200us"`` -> seconds."""
    text = text.strip()
    for suffix in sorted(_UNITS, key=len, reverse=True):
        if text.endswith(suffix):
            number = text[: -len(suffix)].strip()
            break
    else:
        raise ValueError(
            f"latency spec {spec!r}: duration {text!r} needs a unit "
            f"({', '.join(sorted(_UNITS))})"
        )
    try:
        value = float(number)
    except ValueError:
        raise ValueError(
            f"latency spec {spec!r}: cannot parse duration {text!r}"
        ) from None
    return value * _UNITS[suffix]


def parse_latency_spec(spec) -> LatencyModel:
    """One string grammar for every latency model.

    Accepted forms::

        "lan"                     the paper-calibrated LAN model
        "constant:2ms"            fixed one-way delay
        "uniform:1ms-5ms"         uniform over [low, high]
        "lognormal:40ms±15ms"     heavy-tailed; median 40 ms with a
                                  one-sigma spread of ±15 ms ("+-" is an
                                  ASCII alias for "±"; spread may omit
                                  the unit and inherits the median's)

    An already-constructed :class:`LatencyModel` passes through unchanged,
    so APIs can accept either and normalise with one call.
    """
    if callable(spec):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"latency spec must be a string or LatencyModel, got {spec!r}")
    text = spec.strip()
    if text == "lan":
        return lan_latency()
    kind, sep, rest = text.partition(":")
    kind = kind.strip().lower()
    rest = rest.strip()
    if not sep or not rest:
        raise ValueError(f"latency spec {spec!r}: expected '<kind>:<params>' or 'lan'")
    if kind == "constant":
        return ConstantLatency(_duration(rest, spec))
    if kind == "uniform":
        low_text, sep, high_text = rest.partition("-")
        if not sep:
            raise ValueError(f"latency spec {spec!r}: uniform needs 'low-high'")
        return UniformLatency(_duration(low_text, spec), _duration(high_text, spec))
    if kind == "lognormal":
        body = rest.replace("+-", "±")
        median_text, sep, spread_text = body.partition("±")
        median = _duration(median_text, spec)
        if not sep:
            return LogNormalLatency(median=median)
        spread_text = spread_text.strip()
        if not any(spread_text.endswith(u) for u in _UNITS):
            # Bare spread number inherits the median's unit: "40ms±15".
            for suffix in sorted(_UNITS, key=len, reverse=True):
                if median_text.strip().endswith(suffix):
                    spread_text += suffix
                    break
        spread = _duration(spread_text, spec)
        if spread <= 0 or spread >= median * 10:
            raise ValueError(f"latency spec {spec!r}: spread out of range")
        # Sigma such that one multiplicative sigma reaches median+spread.
        return LogNormalLatency(median=median, sigma=math.log1p(spread / median))
    raise ValueError(f"latency spec {spec!r}: unknown kind {kind!r}")
