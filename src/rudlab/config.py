"""Run configuration: flat key=value config files, CLI overrides, and the
factories (with caching) that turn a space spec string into an engine.

Unknown keys are rejected; every run embeds its fully resolved config, and
together with the seed that makes reports reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import inf

from .coeffs import Coeffs, DomainError
from .rng import DEFAULT_SEED
from .spaces import (
    BmoRademacherSpace,
    JamesSpace,
    JamesXSpace,
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
    threads: int = 1
    mr_levels: tuple[int, ...] = (2, 4, 8)
    mr_universe: int = 14
    mr_max_n: int = 3
    mr_width: int = 0
    bd_lambda: Fraction = Fraction(2)
    bd_b: Fraction = Fraction(1, 4)
    bd_levels: int = 4
    bd_cap: int = 200
    bd_seed: int = 0

    _KEYMAP = {
        "arithmetic": "arithmetic",
        "cap": "cap",
        "samples": "samples",
        "confidence": "confidence",
        "seed": "seed",
        "format": "format",
        "plot": "plot",
        "threads": "threads",
        "mr.levels": "mr_levels",
        "mr.universe": "mr_universe",
        "mr.max_n": "mr_max_n",
        "mr.width": "mr_width",
        "bd.lambda": "bd_lambda",
        "bd.b": "bd_b",
        "bd.levels": "bd_levels",
        "bd.cap": "bd_cap",
        "bd.seed": "bd_seed",
    }

    def with_overrides(self, pairs: dict[str, str]) -> "RunConfig":
        updates = {}
        for key, raw in pairs.items():
            attr = self._KEYMAP.get(key)
            if attr is None:
                raise DomainError(f"unknown config key {key!r}")
            updates[attr] = _parse_value(key, attr, raw)
        return replace(self, **updates)

    def to_dict(self) -> dict:
        out = {}
        for key, attr in self._KEYMAP.items():
            v = getattr(self, attr)
            if isinstance(v, Fraction):
                v = str(v)
            elif isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            out[key] = v
        return out


#: the values a string-valued key accepts
_CHOICES = {
    "arithmetic": ("exact", "float"),
    "format": ("json", "csv"),
    "plot": ("none", "svg"),
}


def _parse_value(key: str, attr: str, raw: str):
    """The typed value of one config entry; a malformed value is a
    DomainError that names the key and the raw text."""
    if attr in _CHOICES:
        if raw not in _CHOICES[attr]:
            raise DomainError(
                f"config key {key!r} takes one of {', '.join(_CHOICES[attr])}, "
                f"not {raw!r}"
            )
        return raw
    try:
        if attr in ("cap", "samples", "seed", "threads", "mr_universe", "mr_max_n",
                    "mr_width", "bd_levels", "bd_cap", "bd_seed"):
            return int(raw, 0)
        if attr == "confidence":
            return float(raw)
        if attr == "mr_levels":
            return tuple(int(x) for x in raw.split(","))
        if attr in ("bd_lambda", "bd_b"):
            return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad value {raw!r} for config key {key!r}") from exc
    raise DomainError(f"unknown config attribute {attr!r}")


def load_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
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

    Decimal tokens in exact mode parse as exact decimal fractions.
    """
    token = token.strip()
    try:
        if exact:
            return Fraction(token)
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad coefficient {token!r}") from exc


def parse_coeffs(text: str, exact: bool = True) -> Coeffs:
    return Coeffs.from_values(
        [parse_coeff(tok, exact) for tok in text.split(",") if tok.strip() != ""]
    )


def _demo_norming_family(support: tuple[int, ...]):
    """A fixed small norming family used by the generic norming-set engine:
    tail functionals joined with root-two-scaled averages of consecutive
    index pairs (i, i + 1).

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
    return out


class SpaceFactory:
    """Builds and caches engines (heavy contexts are shared per config)."""

    _shared: dict[RunConfig, "SpaceFactory"] = {}

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._mr = None
        self._gamma = None
        self._spaces: dict[str, Space] = {}

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
            p = inf if rest in ("inf", "oo") else (
                int(rest) if rest.isdigit() else float(rest)
            )
            return LpSpace(p)
        if head == "linf":
            return LpSpace(inf)
        if head == "summing":
            return SummingSpace()
        if head == "summing_dual":
            return SummingDualSpace()
        if head == "james":
            return JamesSpace(rest or "chain")
        if head == "james_x":
            return JamesXSpace(int(rest) if rest.isdigit() else float(rest))
        if head in ("bmo", "bmo_rademacher"):
            return BmoRademacherSpace()
        if head in ("walsh", "walsh_l1"):
            from .dyadic import WalshL1Space

            return WalshL1Space()
        if head in ("haar", "haar_l1"):
            from .dyadic import HaarL1Space

            return HaarL1Space()
        if head == "smax":
            return SmaxSpace(int(rest) if rest.isdigit() else float(rest))
        if head == "norming_set":
            return NormingSetSpace(
                "norming_set:demo", _demo_norming_family, include_coord_sup=True
            )
        if head == "renorm":
            base_spec, _, delta = rest.rpartition(":")
            if not base_spec:
                raise DomainError("renorm spec is renorm:<base>:<delta>")
            return RenormSpace(self.space(base_spec), Fraction(delta))
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
