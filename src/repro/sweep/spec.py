"""Declarative scenario-grid specification for the sweep runner.

The paper's headline results come from a *matrix* of runs —
topologies × traffic dynamics × redundancy levels × failure
conditions (§6) — not from any single emulation.  A
:class:`SweepSpec` names that matrix declaratively: each axis is a
tuple of values and the grid is their Cartesian product, one
:class:`SweepCell` per combination, enumerated in a deterministic
order (axes vary right-to-left, like an odometer).

Two properties make the grid growable and cache-friendly:

* **stable cell identity** — :attr:`SweepCell.cell_id` is a pure
  function of the cell's axis values, so adding a topology or a seed
  to the spec never renames existing cells;
* **stable seed derivation** — :func:`derive_seed` hashes the base
  seed together with the cell's axis values (SHA-256, not Python's
  randomized ``hash``), so every cell gets an independent,
  reproducible RNG stream that does not shift when the grid grows.

Specs load from TOML (Python 3.11+) or JSON sweep files via
:func:`load_spec` and round-trip through ``to_dict``/``from_dict``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from typing import Dict, List, Sequence, Tuple

from ..control.chaos import NAMED_PLANS
from ..control.plane import PROFILES
from ..core.nids_lp import check_coverage

#: The fault-condition axis: ``none`` runs the scripted
#: steady → shift → failure → recovery scenario; every other value is
#: a chaos fault plan (the named plans plus seeded ``random``).
PLAN_AXIS_VALUES: Tuple[str, ...] = ("none",) + tuple(sorted(NAMED_PLANS)) + (
    "random",
)

#: The traffic/adversary-dynamics axis: named presets mapping to a
#: traffic profile plus :class:`~repro.traffic.dynamics.DiurnalBurstModel`
#: parameters.  ``adversarial`` drives the attack-heavy profile with
#: bursts — the NIPS adversaries' traffic shape.
DYNAMICS_PRESETS: Dict[str, Dict[str, object]] = {
    "steady": {
        "profile": "mixed",
        "diurnal_amplitude": 0.0,
        "burst_probability": 0.0,
    },
    "diurnal": {
        "profile": "mixed",
        "diurnal_amplitude": 0.08,
        "burst_probability": 0.0,
    },
    "bursty": {
        "profile": "mixed",
        "diurnal_amplitude": 0.08,
        "burst_probability": 0.25,
    },
    "adversarial": {
        "profile": "attack_heavy",
        "diurnal_amplitude": 0.08,
        "burst_probability": 0.25,
    },
}


def derive_seed(base: int, *axis_values: object) -> int:
    """A stable 32-bit seed for one cell of the grid.

    SHA-256 over the canonical JSON of ``[base, *axis_values]`` —
    deterministic across processes and Python versions (unlike
    ``hash``), independent per cell, and insensitive to grid growth:
    a cell's seed depends only on its own coordinates.
    """
    payload = json.dumps([base, *axis_values], sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class SweepCell:
    """One point of the evaluation matrix.

    A cell is pure data — it names *what* to run, not *how*; the
    worker (:mod:`repro.sweep.worker`) translates it into a
    :class:`~repro.control.plane.ScenarioConfig` with the cell's
    derived seed.
    """

    topology: str = "internet2"
    plan: str = "none"
    dynamics: str = "diurnal"
    redundancy: float = 1.0
    seed: int = 0
    epochs: int = 16
    base_sessions: int = 300
    #: Base seed the per-cell seed is derived from (copied off the
    #: spec so a cell is self-contained and content-addressable).
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.plan not in PLAN_AXIS_VALUES:
            raise ValueError(
                f"unknown plan axis value {self.plan!r};"
                f" choose from {PLAN_AXIS_VALUES}"
            )
        if self.dynamics not in DYNAMICS_PRESETS:
            raise ValueError(
                f"unknown dynamics preset {self.dynamics!r};"
                f" choose from {tuple(sorted(DYNAMICS_PRESETS))}"
            )
        check_coverage(self.redundancy, "redundancy")
        if self.epochs < 14 and self.plan != "none":
            raise ValueError(
                f"plan {self.plan!r} needs >= 14 epochs, got {self.epochs}"
            )
        profile = DYNAMICS_PRESETS[self.dynamics]["profile"]
        if profile not in PROFILES:
            raise ValueError(f"dynamics preset maps to unknown profile {profile!r}")

    @property
    def cell_id(self) -> str:
        """Stable human-readable identity, usable as a filename stem."""
        return (
            f"{self.topology.lower()}+{self.plan}+{self.dynamics}"
            f"+r{self.redundancy:g}+s{self.seed}"
        )

    @property
    def derived_seed(self) -> int:
        """The cell's independent RNG seed (see :func:`derive_seed`)."""
        return derive_seed(
            self.base_seed,
            self.topology.lower(),
            self.plan,
            self.dynamics,
            self.redundancy,
            self.seed,
        )

    def to_dict(self) -> dict:
        """JSON-compatible dict (the cache-key payload)."""
        return {
            "topology": self.topology,
            "plan": self.plan,
            "dynamics": self.dynamics,
            "redundancy": self.redundancy,
            "seed": self.seed,
            "epochs": self.epochs,
            "base_sessions": self.base_sessions,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepCell":
        """Rebuild a cell from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class SweepSpec:
    """The declarative grid: axis value tuples plus shared run shape."""

    name: str = "sweep"
    topologies: Tuple[str, ...] = ("internet2",)
    plans: Tuple[str, ...] = ("none",)
    dynamics: Tuple[str, ...] = ("diurnal",)
    redundancy: Tuple[float, ...] = (1.0,)
    seeds: Tuple[int, ...] = (0,)
    epochs: int = 16
    base_sessions: int = 300
    #: Base seed mixed into every cell's derived seed.
    seed: int = 0

    def __post_init__(self) -> None:
        for axis_name in ("topologies", "plans", "dynamics", "redundancy", "seeds"):
            if not getattr(self, axis_name):
                raise ValueError(f"sweep axis {axis_name!r} must be non-empty")
            values = getattr(self, axis_name)
            if len(set(values)) != len(values):
                raise ValueError(
                    f"sweep axis {axis_name!r} has duplicate values: {values}"
                )

    def cells(self) -> List[SweepCell]:
        """The grid, enumerated in deterministic odometer order."""
        return [
            SweepCell(
                topology=topology,
                plan=plan,
                dynamics=dynamics,
                redundancy=redundancy,
                seed=seed,
                epochs=self.epochs,
                base_sessions=self.base_sessions,
                base_seed=self.seed,
            )
            for topology, plan, dynamics, redundancy, seed in itertools.product(
                self.topologies,
                self.plans,
                self.dynamics,
                self.redundancy,
                self.seeds,
            )
        ]

    def __len__(self) -> int:
        return (
            len(self.topologies)
            * len(self.plans)
            * len(self.dynamics)
            * len(self.redundancy)
            * len(self.seeds)
        )

    def to_dict(self) -> dict:
        """JSON-compatible dict (axis tuples become lists)."""
        return {
            "name": self.name,
            "topologies": list(self.topologies),
            "plans": list(self.plans),
            "dynamics": list(self.dynamics),
            "redundancy": list(self.redundancy),
            "seeds": list(self.seeds),
            "epochs": self.epochs,
            "base_sessions": self.base_sessions,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` / sweep-file content."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown sweep spec keys {sorted(unknown)};"
                f" expected a subset of {sorted(known)}"
            )
        converted = dict(data)
        for axis_name in ("topologies", "plans", "dynamics", "seeds"):
            if axis_name in converted:
                converted[axis_name] = tuple(converted[axis_name])
        if "redundancy" in converted:
            converted["redundancy"] = tuple(
                float(value) for value in converted["redundancy"]
            )
        return cls(**converted)


def load_spec(path: str) -> SweepSpec:
    """Load a sweep file: TOML for ``.toml``, JSON otherwise.

    The file holds the :meth:`SweepSpec.to_dict` keys at top level, or
    nested under a ``[sweep]`` table (TOML convention)::

        [sweep]
        name = "nightly"
        topologies = ["internet2", "geant"]
        plans = ["none", "controller-outage"]
        seeds = [0, 1]
    """
    if path.endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError as error:  # Python < 3.11
            raise ValueError(
                f"cannot load {path!r}: TOML sweep files need Python 3.11+"
                " (tomllib); use the JSON form on older interpreters"
            ) from error

        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    if "sweep" in data and isinstance(data["sweep"], dict):
        data = data["sweep"]
    return SweepSpec.from_dict(data)
