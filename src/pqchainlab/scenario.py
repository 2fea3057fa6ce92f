"""Experiment matrix: scenario naming, enumeration and placement classification.

A scenario fixes three axes: the key-establishment mode, the certificate
hierarchy depth (2 or 3), and the signature family assigned to each position
(root / intermediate / leaf).  Scenario ids are compositional, e.g.
``x25519mlkem768__slh_root__ml_int__ml_leaf``.  The four measurement
campaigns (A: leaf-only contrast, B: hybrid strategy matrix, C: depth
contrast, D: KEX contrast) together cover 17 distinct scenarios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Iterable, Optional, TypeVar

T = TypeVar("T")


class SigFamily(enum.Enum):
    ML_DSA_65 = "ML-DSA-65"
    SLH_DSA_SHAKE_192S = "SLH-DSA-SHAKE-192s"

    @property
    def token(self) -> str:
        """Short positional token used inside scenario ids."""
        return "ml" if self is SigFamily.ML_DSA_65 else "slh"

    @property
    def alg_id(self) -> int:
        """Algorithm identifier used in certificate fields and key files."""
        return 1 if self is SigFamily.ML_DSA_65 else 2

    @classmethod
    def from_token(cls, token: str) -> "SigFamily":
        try:
            return _FAMILY_BY_TOKEN[token]
        except KeyError:
            raise ValueError(f"unknown signature family token {token!r}") from None

    @classmethod
    def from_alg_id(cls, alg_id: int) -> "SigFamily":
        for fam in cls:
            if fam.alg_id == alg_id:
                return fam
        raise ValueError(f"unknown signature algorithm id {alg_id}")


_FAMILY_BY_TOKEN = {family.token: family for family in SigFamily}


class KexMode(enum.Enum):
    CLASSICAL = "x25519"
    HYBRID = "x25519mlkem768"
    PURE_PQC = "mlkem768"


# Hierarchy position names, root first, and the serial of each one's
# certificate; a depth-2 hierarchy has no ``int``, and its leaf keeps serial 3.
POSITION_SERIALS = {"root": 1, "int": 2, "leaf": 3}


def position_names(depth: int) -> tuple[str, ...]:
    """Position names of a depth-2 or depth-3 hierarchy, root first."""
    names = tuple(POSITION_SERIALS)
    return names[: depth - 1] + names[-1:]


@dataclass(frozen=True)
class Placement:
    """Signature family per hierarchy position; no intermediate means depth 2."""

    root: SigFamily
    intermediate: Optional[SigFamily]
    leaf: SigFamily

    def positions(self) -> tuple[tuple[str, SigFamily], ...]:
        """``(name, family)`` per position present, root first."""
        families = (self.root, self.intermediate, self.leaf)
        return tuple((n, f) for n, f in zip(POSITION_SERIALS, families) if f is not None)

    @property
    def depth(self) -> int:
        return len(self.positions())

    def families(self) -> tuple[SigFamily, ...]:
        return tuple(family for _, family in self.positions())


@dataclass(frozen=True)
class PlacementClass:
    """Non-exclusive placement flags; a scenario may carry several."""

    all_ml: bool
    root_slh_leaf_not_slh: bool
    intermediate_slh_any: bool
    leaf_slh: bool

    def flags(self) -> frozenset[str]:
        return frozenset(f.name for f in fields(self) if getattr(self, f.name))


def classify_placement(p: Placement) -> PlacementClass:
    slh = SigFamily.SLH_DSA_SHAKE_192S
    return PlacementClass(
        all_ml=all(f is SigFamily.ML_DSA_65 for f in p.families()),
        root_slh_leaf_not_slh=(p.root is slh and p.leaf is not slh),
        intermediate_slh_any=(p.intermediate is slh),
        leaf_slh=(p.leaf is slh),
    )


def conceptual_perf_group(p: Placement) -> str:
    """Three-way grouping used by the capacity and economic tables."""
    flags = classify_placement(p)
    return "leaf_slh" if flags.leaf_slh else "all_ml" if flags.all_ml else "root_slh_leaf_ml"


def compose_scenario_id(kex: KexMode, placement: Placement) -> str:
    """Canonical positional id: ``<group>__<f>_root[__<f>_int]__<f>_leaf``."""
    parts = [f"{family.token}_{name}" for name, family in placement.positions()]
    return "__".join([kex.value, *parts])


_LEGACY_LEAF_TOKENS = {
    "leaf_mldsa65": SigFamily.ML_DSA_65,
    "leaf_slhdsashake192s": SigFamily.SLH_DSA_SHAKE_192S,
}


def parse_scenario_id(scenario_id: str) -> tuple[KexMode, Placement]:
    """Inverse of :func:`compose_scenario_id`.

    Also accepts the legacy leaf-only aliases ``<group>__leaf_mldsa65`` /
    ``<group>__leaf_slhdsashake192s``, which denote uniform depth-2
    hierarchies (root and leaf share the family).
    """
    parts = scenario_id.split("__")
    if len(parts) < 2:
        raise ValueError(f"malformed scenario id {scenario_id!r}")
    kex = KexMode(parts[0])
    tokens = parts[1:]

    if len(tokens) == 1 and tokens[0] in _LEGACY_LEAF_TOKENS:
        fam = _LEGACY_LEAF_TOKENS[tokens[0]]
        return kex, Placement(root=fam, intermediate=None, leaf=fam)

    if len(tokens) not in (2, 3):
        raise ValueError(f"malformed scenario id {scenario_id!r}")
    families = {}
    for token, name in zip(tokens, position_names(len(tokens))):
        fam_token, _, pos = token.partition("_")
        if pos != name:
            raise ValueError(f"malformed scenario id {scenario_id!r}: expected *_{name}")
        families[name] = SigFamily.from_token(fam_token)
    return kex, Placement(families["root"], families.get("int"), families["leaf"])


@dataclass(frozen=True)
class Scenario:
    """One point of the experiment matrix: its inventory id and its campaign.

    The id is canonical or, in campaign A, a legacy leaf-only alias.  The KEX
    mode and placement are read from it once, here; a malformed id raises
    ``ValueError``.
    """

    display_id: str
    campaign: str
    kex: KexMode = field(init=False, repr=False, compare=False)
    placement: Placement = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kex, placement = parse_scenario_id(self.display_id)
        object.__setattr__(self, "kex", kex)
        object.__setattr__(self, "placement", placement)

    @property
    def depth(self) -> int:
        return self.placement.depth

    @property
    def placement_class(self) -> PlacementClass:
        return classify_placement(self.placement)


def enumerate_matrix() -> list[Scenario]:
    """The 17-scenario experimental inventory, ordered by (campaign, id).

    Campaign A names its uniform depth-2 hierarchies by their legacy
    ``leaf_<alg>`` aliases; the other campaigns use positional ids.
    """
    return [
        Scenario(scenario_id, campaign)
        for campaign, scenario_id in (
            ("A", "x25519__leaf_mldsa65"),
            ("A", "x25519__leaf_slhdsashake192s"),
            ("A", "x25519mlkem768__leaf_mldsa65"),
            ("A", "x25519mlkem768__leaf_slhdsashake192s"),
            ("B", "x25519mlkem768__ml_root__ml_int__ml_leaf"),
            ("B", "x25519mlkem768__ml_root__ml_int__slh_leaf"),
            ("B", "x25519mlkem768__ml_root__slh_int__slh_leaf"),
            ("B", "x25519mlkem768__slh_root__ml_int__ml_leaf"),
            ("B", "x25519mlkem768__slh_root__ml_int__slh_leaf"),
            ("B", "x25519mlkem768__slh_root__slh_int__slh_leaf"),
            ("C", "x25519mlkem768__ml_root__ml_leaf"),
            ("C", "x25519mlkem768__ml_root__slh_leaf"),
            ("C", "x25519mlkem768__slh_root__ml_leaf"),
            ("C", "x25519mlkem768__slh_root__slh_leaf"),
            ("D", "mlkem768__ml_root__ml_leaf"),
            ("D", "mlkem768__slh_root__ml_int__ml_leaf"),
            ("D", "mlkem768__slh_root__slh_leaf"),
        )
    ]


def resolve_id(
    entries: Iterable[T], scenario_id: str, key: Callable[[T], str] = attrgetter("scenario_id")
) -> T:
    """The entry that ``scenario_id`` names: an exact ``key`` wins, otherwise the first
    entry whose canonical id matches.

    A legacy alias and its positional spelling name one hierarchy, and the
    inventory measures some hierarchies under both, so canonical ids repeat;
    trying the exact id first keeps the answer independent of entry order.
    """
    entries = list(entries)
    for entry in entries:
        if key(entry) == scenario_id:
            return entry
    try:
        canonical = compose_scenario_id(*parse_scenario_id(scenario_id))
    except ValueError:
        canonical = None  # names no hierarchy, so only an exact id could match
    for entry in entries:
        if canonical and compose_scenario_id(*parse_scenario_id(key(entry))) == canonical:
            return entry
    raise KeyError(f"scenario {scenario_id!r} not present in input")


def find_scenario(scenarios: list[Scenario], scenario_id: str) -> Scenario:
    """Look up by display id, then by canonical id (:func:`resolve_id`)."""
    return resolve_id(scenarios, scenario_id, key=lambda s: s.display_id)

