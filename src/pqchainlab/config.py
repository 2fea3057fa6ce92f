"""Analysis configuration: thresholds, price model, service classes.

Values live in a flat ``key = value`` text file (``#`` comments allowed);
the defaults below reproduce the published reference tables.  The regime
and plausibility cut points are calibration constants documented here
rather than measured quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

BASELINE_ID = "x25519mlkem768__ml_root__ml_int__ml_leaf"


@dataclass(frozen=True)
class AnalysisConfig:
    baseline_id: str = BASELINE_ID
    price_per_cpu_hour: float = 0.04
    # handshakes per day for the illustrative deployment classes
    service_classes: dict = field(
        default_factory=lambda: {
            "small_internal": 100_000,
            "medium_api": 10_000_000,
            "high_volume_frontend": 100_000_000,
        }
    )
    # server/client task-clock ratio cut points
    regime_server_bound_ratio: float = 10.0
    regime_client_skewed_ratio: float = 0.5
    # latency-relative-to-baseline cut points
    plausibility_reasonable_max: float = 1.5
    plausibility_penalized_max: float = 20.0
    plausibility_problematic_max: float = 200.0
    counterexample_top_k: int = 5
    # a pair only counts as a counterexample when the fewer-bytes scenario is
    # materially slower; same-regime jitter pairs are not evidence
    counterexample_min_latency_ratio: float = 2.0

    def __post_init__(self):
        """Every configuration, loaded from a file or built, has finite numbers, a positive
        price, at least one counterexample per metric, ascending cut points and named
        service classes of at least one handshake a day; an error names the file's key."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{_file_key(f.name)}: must be finite, not {value}")
        if self.price_per_cpu_hour <= 0:
            raise ValueError(f"price_per_cpu_hour: must be positive, not {self.price_per_cpu_hour}")
        if self.counterexample_top_k < 1:
            raise ValueError(
                f"counterexample_top_k: must be at least 1, not {self.counterexample_top_k}")
        for lower, upper in (("regime_client_skewed_ratio", "regime_server_bound_ratio"),
                             ("plausibility_reasonable_max", "plausibility_penalized_max"),
                             ("plausibility_penalized_max", "plausibility_problematic_max")):
            low, high = getattr(self, lower), getattr(self, upper)
            if low >= high:
                raise ValueError(f"{_file_key(lower)}: must be below {_file_key(upper)} "
                                 f"({high}), not {low}")
        for name, volume in self.service_classes.items():
            if not name:
                raise ValueError("service_class.: a service class needs a name")
            if volume < 1:
                raise ValueError(f"service_class.{name}: must be at least 1, not {volume}")


# Field-name prefixes that config files spell with a dot: ``regime.server_bound_ratio``.
_DOTTED_GROUPS = ("regime", "plausibility")


def _file_key(name: str) -> str:
    group, _, rest = name.partition("_")
    return f"{group}.{rest}" if group in _DOTTED_GROUPS else name


def load_config(path: Path | str | None) -> AnalysisConfig:
    """Read ``key = value`` lines over the defaults; each value takes its default's type.

    The keys are the scalar fields' names (dotted for the regime and
    plausibility groups) and ``service_class.<name>``.
    """
    cfg = AnalysisConfig()
    if path is None:
        return cfg
    scalars = {_file_key(f.name): f.name for f in fields(cfg) if f.name != "service_classes"}
    classes = dict(cfg.service_classes)
    updates: dict = {}
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key.startswith("service_class."):  # handshakes per day: 1e6, not 100.5
                count = float(value)
                if not count.is_integer():
                    raise ValueError(f"must be a whole number, not {value}")
                classes[key.split(".", 1)[1]] = int(count)
            elif key in scalars:
                name = scalars[key]
                updates[name] = type(getattr(cfg, name))(value)
            else:
                raise ValueError("unknown config key")
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return replace(cfg, service_classes=classes, **updates)
