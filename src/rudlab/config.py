"""Run configuration: flat key=value config files, CLI overrides, and the
factories (with caching) that turn a space spec string into an engine.

Unknown keys are rejected; every run embeds its fully resolved config, and
together with the seed that makes reports reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from importlib import import_module
from math import inf

from .coeffs import DEFAULT_ENUM_CAP, Coeffs, DomainError
from .exactnum import Scalar
from .rademacher import confidence_ok, samples_ok
from .rng import DEFAULT_SEED
from .spaces import (
    BmoRademacherSpace,
    JamesSpace,
    LpSpace,
    NormingSetSpace,
    RenormSpace,
    SmaxSpace,
    Space,
    SummingDualSpace,
    SummingSpace,
)


@dataclass(frozen=True)
class RunConfig:
    arithmetic: str = "exact"  # exact | float
    cap: int = 24
    samples: int = 100_000
    confidence: float = 0.95
    seed: int = DEFAULT_SEED
    format: str = "json"  # json | csv
    plot: str = "none"  # none | svg
    mr_levels: tuple[int, ...] = (2, 4, 8)
    mr_universe: int = 14
    mr_max_n: int = 3
    mr_width: int = 0
    bd_lambda: Fraction = Fraction(2)
    bd_b: Fraction = Fraction(1, 4)
    bd_levels: int = 4
    bd_cap: int = 200
    bd_seed: int = 0

    def with_overrides(self, pairs: dict[str, str]) -> "RunConfig":
        updates = {}
        for key, raw in pairs.items():
            attr = _KEYS.get(key)
            if attr is None:
                raise DomainError(f"unknown config key {key!r}")
            updates[attr] = _parse_value(key, attr, raw)
        out = replace(self, **updates)
        if updates.keys() & {"bd_lambda", "bd_b"}:
            bd = import_module(f"{__package__}.bd")
            if not bd.tree_params_ok(out.bd_lambda, out.bd_b):
                raise DomainError(f"config keys 'bd.lambda' and 'bd.b' take {bd.TREE_PARAMS}, "
                                  f"not bd.lambda={out.bd_lambda}, bd.b={out.bd_b}")
        return out

    def to_dict(self) -> dict:
        out = {}
        for key, attr in _KEYS.items():
            v = getattr(self, attr)
            if isinstance(v, Fraction):
                v = str(v)
            elif isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            out[key] = v
        return out


#: config key -> RunConfig attribute, in field order: the first "_" of an
#: attribute is the "." of its key (``mr_levels`` is ``mr.levels``)
_KEYS = {f.name.replace("_", ".", 1): f.name for f in fields(RunConfig)}

#: the values a string-valued key accepts
_CHOICES = {
    "arithmetic": ("exact", "float"),
    "format": ("json", "csv"),
    "plot": ("none", "svg"),
}

def _library(module: str, name: str):
    """The predicate ``name`` of ``rudlab.<module>``, imported when it is
    first called, so that a config that sets none of its keys does not load
    that module."""
    return lambda *values: getattr(import_module(f"{__package__}.{module}"), name)(*values)


#: the values a numeric key accepts, by the predicate of the code that
#: reads the key, and how its refusal states them; ``bd.lambda`` and
#: ``bd.b`` are checked together (:func:`rudlab.bd.tree_params_ok`)
_DOMAINS = {
    "cap": (lambda v: 1 <= v <= DEFAULT_ENUM_CAP, f"an integer from 1 to {DEFAULT_ENUM_CAP}"),
    "samples": (samples_ok, "an integer of at least 100"),
    "confidence": (confidence_ok, "a value strictly between 0 and 1"),
    "mr_levels": (_library("mr", "levels_ok"), "strictly increasing even integers >= 2"),
    "mr_universe": (_library("mr", "universe_ok"), "an integer from 0 to 24"),
    "mr_max_n": (_library("mr", "max_n_ok"), "an integer of at least 1"),
    "mr_width": (_library("mr", "width_ok"), "an integer of at least 0"),
    "bd_levels": (lambda v: v >= 1, "an integer of at least 1"),
    "bd_cap": (lambda v: v >= 2, "an integer of at least 2"),
}

#: parsers of the other keys, by the type of their default
_PARSERS = {
    int: lambda raw: int(raw, 0),
    float: float,
    Fraction: Fraction,
    tuple: lambda raw: tuple(int(x) for x in raw.split(",")),
}


def _parse_value(key: str, attr: str, raw: str):
    """The typed value of one config entry; a malformed value, or one
    outside the key's domain (``_CHOICES``, ``_DOMAINS``), is a DomainError
    that names the key and the raw text."""
    if attr in _CHOICES:
        if raw not in _CHOICES[attr]:
            raise DomainError(
                f"config key {key!r} takes one of {', '.join(_CHOICES[attr])}, "
                f"not {raw!r}"
            )
        return raw
    try:
        value = _PARSERS[type(getattr(RunConfig, attr))](raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad value {raw!r} for config key {key!r}") from exc
    if attr in _DOMAINS and not _DOMAINS[attr][0](value):
        raise DomainError(f"config key {key!r} takes {_DOMAINS[attr][1]}, not {raw!r}")
    return value


def load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}") from exc
    pairs: dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad config line {line!r} (expected key=value)")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def parse_coeff(token: str, exact: bool = True) -> Fraction | float:
    """One coefficient: a rational like 3/2 or a decimal like -0.5.

    Decimal tokens in exact mode parse as exact decimal fractions; in float
    mode a token past the float range, or a non-zero one whose float is
    0.0, is refused.
    """
    token = token.strip()
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad coefficient {token!r}") from exc
    if exact:
        return value
    try:
        out = float(value)
    except OverflowError as exc:
        raise DomainError(f"coefficient {token!r} is past the float range") from exc
    if value and not out:
        raise DomainError(f"coefficient {token!r} is below the float range: it underflows to 0.0")
    return out


def parse_coeffs(text: str, exact: bool = True) -> Coeffs:
    return Coeffs.from_values(
        [parse_coeff(tok, exact) for tok in text.split(",") if tok.strip() != ""]
    )


def _demo_norming_family(support: tuple[int, ...]):
    """A fixed small norming family used by the generic norming-set engine:
    tail functionals, root-two-scaled averages of consecutive index pairs
    (i, i + 1) and, last, the coordinate functionals.

    Pairing consecutive indices, not neighbours within the support, makes
    the family restrict consistently: on a smaller support a pair that
    loses one index leaves the weight sqrt(2)/2 * |a_i|, which the
    coordinate supremum dominates."""
    from .exactnum import QSum

    sup = sorted(support)
    out = []
    for k in range(len(sup)):
        out.append(Coeffs.from_pairs((i, 1) for i in sup[k:]))
    half_rt2 = QSum({2: Fraction(1, 2)})
    for a, b in zip(sup, sup[1:]):
        if b == a + 1:
            out.append(Coeffs.from_pairs([(a, half_rt2), (b, half_rt2)]))
    out.extend(Coeffs.from_pairs([(i, 1)]) for i in sup)
    return out


def _exponent(spec: str, text: str) -> int | float:
    """The exponent of an engine spec: an integer or a decimal."""
    if text.isdigit():
        return int(text)
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"space spec {spec!r}: exponent {text!r} is not a number") from None


class SpaceFactory:
    """Builds and caches engines (heavy contexts are shared per config)."""

    _shared: dict[RunConfig, "SpaceFactory"] = {}

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._mr = None
        self._gamma = None
        self._spaces: dict[str, Space] = {}
        #: spec -> vector index -> exact sign mean, filled by the sweep driver
        self.sweep_means: dict[str, dict[int, Scalar]] = {}
        #: spec -> vector index -> exact subset mean, filled beside it
        self.sweep_subset_means: dict[str, dict[int, Scalar]] = {}
        #: whether the run will read the sweep's subset means, which decides
        #: whether a sweep walk takes the masks with the signs; the CLI sets
        #: it from its experiment list, and None (a caller that has not
        #: said) counts as yes
        self.subsets_pending: bool | None = None

    @classmethod
    def shared(cls, cfg: RunConfig) -> "SpaceFactory":
        if cfg not in cls._shared:
            if len(cls._shared) > 8:
                cls._shared.clear()
            cls._shared[cfg] = cls(cfg)
        return cls._shared[cfg]

    @property
    def mr_context(self):
        if self._mr is None:
            from .mr import MrContext

            self._mr = MrContext(
                levels=self.cfg.mr_levels,
                universe=self.cfg.mr_universe,
                max_n=self.cfg.mr_max_n,
                width=self.cfg.mr_width,
            )
        return self._mr

    @property
    def gamma(self):
        if self._gamma is None:
            from .bd import BDParams, build_gamma

            self._gamma = build_gamma(
                BDParams(
                    lam=self.cfg.bd_lambda,
                    b=self.cfg.bd_b,
                    levels=self.cfg.bd_levels,
                    cap=self.cfg.bd_cap,
                    seed=self.cfg.bd_seed,
                )
            )
        return self._gamma

    def space(self, spec) -> Space:
        """Engine for a spec string like "lp:2"."""
        key = str(spec)
        if key not in self._spaces:
            self._spaces[key] = self._build(key)
        return self._spaces[key]

    def _build(self, spec: str) -> Space:
        head, _, rest = spec.partition(":")
        if head == "lp":
            p = inf if rest in ("inf", "oo") else _exponent(spec, rest)
            if not p >= 1:
                raise DomainError(f"space spec {spec!r}: lp requires p >= 1")
            return LpSpace(p)
        if head == "linf":
            return LpSpace(inf)
        if head == "summing":
            return SummingSpace()
        if head == "summing_dual":
            return SummingDualSpace()
        if head == "james":
            convention = rest or "chain"
            if convention not in ("chain", "pairs"):
                raise DomainError(f"unknown convention {convention!r}")
            return JamesSpace(f"james:{convention}", pairs=convention == "pairs")
        if head == "james_x":
            p = _exponent(spec, rest)
            if not 1 <= p < inf:
                raise DomainError(f"space spec {spec!r}: james_x requires 1 <= p < inf")
            return JamesSpace(f"james_x:{p}", p)
        if head in ("bmo", "bmo_rademacher"):
            return BmoRademacherSpace()
        if head in ("walsh", "walsh_l1"):
            from .dyadic import WalshL1Space

            return WalshL1Space()
        if head in ("haar", "haar_l1"):
            from .dyadic import HaarL1Space

            return HaarL1Space()
        if head == "smax":
            return SmaxSpace(_exponent(spec, rest))
        if head == "norming_set":
            return NormingSetSpace("norming_set:demo", _demo_norming_family)
        if head == "renorm":
            base_spec, _, delta = rest.rpartition(":")
            if not base_spec:
                raise DomainError("renorm spec is renorm:<base>:<delta>")
            try:
                d = Fraction(delta)
            except (ValueError, ZeroDivisionError):
                raise DomainError(
                    f"space spec {spec!r}: delta {delta!r} is not a rational") from None
            return RenormSpace(self.space(base_spec), d)
        if head == "zmr":
            return self.mr_context.zmr
        if head == "zruc":
            return self.mr_context.zruc
        if head == "zrud":
            return self.mr_context.zrud
        if head == "bd":
            from .bd import BdBasisSpace

            return BdBasisSpace(self.gamma)
        raise DomainError(f"unknown space spec {spec!r}")
