"""Production-shaped traffic models (the workloads that actually break caches).

The paper's analysis (§4) rests on Poisson arrivals and the V compile
trace.  Real fleets add four failure modes that neither exhibits — skewed
hot-key popularity (Zipf/Pareto 80/20), diurnal load swings, flash crowds
piling onto one installed file, and working sets far larger than cache —
and lease-term / eviction-policy choices only differentiate under exactly
this kind of skewed, contended access.

:class:`WorkloadSpec` captures one such model as plain, serializable
data.  A single spec drives all three consumers of workload in this
repository through the adapters below:

* :func:`sample_events` — the canonical seeded event stream (the other
  adapters are thin views of it);
* :func:`generate_trace` — :class:`~repro.workload.events.TraceRecord`
  lists for the trace-driven simulator and the experiment grids;
* :func:`scenario_ops` — ``(at, client, kind, file)`` tuples for the
  ``repro.check`` scenario grammar (wrapped into
  :class:`~repro.check.scenario.Op` by the generator).

Determinism contract: every adapter is a pure function of
``(spec, shape, seed)``.  Each client's arrival stream is drawn from its
own ``random.Random(f"repro.workload.models/{seed}/{client}/...")``, so
streams are independent of client count and generation order — the
golden-digest tests (``tests/workload/test_models_golden.py``) pin the
byte-exact output per preset.

Timing fields (``flash_at``, ``flash_width``, ``diurnal_periods``) are
*fractions of the run duration*, not absolute seconds, so the same model
definition scales from a 20-second scenario to a one-hour figure sweep.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, fields

from repro.errors import ScenarioError
from repro.types import FileClass
from repro.workload.events import TraceRecord

#: Popularity-distribution kinds a spec may name.
POPULARITY_KINDS = ("uniform", "zipf", "pareto")

#: Seed namespace for every RNG this module derives.
_NS = "repro.workload.models"


# -- key-popularity samplers ---------------------------------------------------


class ZipfSampler:
    """Zipf(alpha) popularity over ``n_keys`` ranked keys.

    Key ``k`` (0-based rank) has weight proportional to
    ``1 / (k + 1) ** alpha``; weights are normalized to sum to 1 and
    sampled by inverse-CDF lookup, so draws cost ``O(log n)``.
    """

    def __init__(self, n_keys: int, alpha: float = 1.1):
        if n_keys < 1:
            raise ValueError(f"need at least one key: {n_keys}")
        if alpha <= 0:
            raise ValueError(f"zipf alpha must be positive: {alpha}")
        self.n_keys = n_keys
        self.alpha = alpha
        raw = [1.0 / (k + 1) ** alpha for k in range(n_keys)]
        total = sum(raw)
        self.weights = [w / total for w in raw]
        self._cdf = _cumulative(self.weights)

    def sample(self, rng: random.Random) -> int:
        """Draw one key index."""
        return bisect.bisect_right(self._cdf, rng.random(), hi=self.n_keys - 1)


class ParetoSampler:
    """The 80/20 hot-set popularity: ``hot_mass`` of traffic on the first
    ``hot_fraction`` of keys, the remainder spread uniformly over the rest.

    With one key (or a hot set covering every key) the distribution
    degenerates to uniform, which keeps the tail-mass invariant trivially
    true.
    """

    def __init__(self, n_keys: int, hot_fraction: float = 0.2, hot_mass: float = 0.8):
        if n_keys < 1:
            raise ValueError(f"need at least one key: {n_keys}")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction out of (0, 1]: {hot_fraction}")
        if not 0.0 < hot_mass < 1.0:
            raise ValueError(f"hot_mass out of (0, 1): {hot_mass}")
        self.n_keys = n_keys
        self.hot_fraction = hot_fraction
        self.hot_mass = hot_mass
        self.hot_keys = max(1, round(n_keys * hot_fraction))
        cold_keys = n_keys - self.hot_keys
        if cold_keys == 0:
            self.weights = [1.0 / n_keys] * n_keys
        else:
            hot_w = hot_mass / self.hot_keys
            cold_w = (1.0 - hot_mass) / cold_keys
            if hot_w < cold_w:
                # An inverted "hot" set (hot keys lighter per key than the
                # tail) is a misconfiguration, not a distribution.
                raise ValueError(
                    f"inverted hot set: {self.hot_keys}/{n_keys} hot keys "
                    f"carrying only {hot_mass} of the mass"
                )
            self.weights = [hot_w] * self.hot_keys + [cold_w] * cold_keys
        self._cdf = _cumulative(self.weights)

    def sample(self, rng: random.Random) -> int:
        """Draw one key index."""
        return bisect.bisect_right(self._cdf, rng.random(), hi=self.n_keys - 1)


class UniformSampler:
    """Equal popularity over ``n_keys`` keys (the legacy behaviour)."""

    def __init__(self, n_keys: int):
        if n_keys < 1:
            raise ValueError(f"need at least one key: {n_keys}")
        self.n_keys = n_keys
        self.weights = [1.0 / n_keys] * n_keys

    def sample(self, rng: random.Random) -> int:
        """Draw one key index."""
        return rng.randrange(self.n_keys)


def _cumulative(weights: list[float]) -> list[float]:
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc)
    return cdf


# -- the model definition ------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One composable traffic model, as plain data.

    Attributes:
        kind: key-popularity distribution (``uniform``/``zipf``/``pareto``).
        n_files: working-set size (key space the popularity ranks).
        alpha: Zipf exponent (``kind="zipf"``).
        hot_fraction: hot-set size as a fraction of keys (``pareto``).
        hot_mass: traffic fraction landing on the hot set (``pareto``).
        rate: peak per-client operation rate (ops/second).
        p_write: write probability at the start of the run.
        p_write_end: write probability at the end of the run — the mix
            shifts linearly between the two; negative means constant.
        diurnal_depth: 0 disables; otherwise the arrival rate is thinned
            down to ``(1 - depth)`` of peak at the trough of a cosine
            "day" — a compressed diurnal swing.
        diurnal_periods: number of diurnal cycles across the run.
        flash_at: flash-crowd onset as a fraction of the run duration;
            negative disables the flash.
        flash_width: flash-crowd window width (fraction of duration).
        flash_boost: extra per-client read rate during the window, as a
            multiple of ``rate`` — every client piles onto one file.
        flash_file: the key everyone stampedes (the one installed file).
    """

    kind: str = "uniform"
    n_files: int = 64
    alpha: float = 1.1
    hot_fraction: float = 0.2
    hot_mass: float = 0.8
    rate: float = 2.0
    p_write: float = 0.1
    p_write_end: float = -1.0
    diurnal_depth: float = 0.0
    diurnal_periods: float = 1.0
    flash_at: float = -1.0
    flash_width: float = 0.1
    flash_boost: float = 10.0
    flash_file: int = 0

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check field ranges; raises :class:`ValueError` on nonsense."""
        if self.kind not in POPULARITY_KINDS:
            raise ValueError(f"unknown popularity kind {self.kind!r}")
        if self.n_files < 1:
            raise ValueError(f"need at least one file: {self.n_files}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate}")
        if not 0.0 <= self.p_write <= 1.0:
            raise ValueError(f"p_write out of [0, 1]: {self.p_write}")
        if self.p_write_end > 1.0:
            raise ValueError(f"p_write_end above 1: {self.p_write_end}")
        if not 0.0 <= self.diurnal_depth < 1.0:
            raise ValueError(f"diurnal_depth out of [0, 1): {self.diurnal_depth}")
        if self.diurnal_depth and self.diurnal_periods <= 0:
            raise ValueError(f"diurnal_periods must be positive: {self.diurnal_periods}")
        if self.has_flash:
            if not 0.0 <= self.flash_at < 1.0:
                raise ValueError(f"flash_at out of [0, 1): {self.flash_at}")
            if not 0.0 < self.flash_width <= 1.0:
                raise ValueError(f"flash_width out of (0, 1]: {self.flash_width}")
            if self.flash_boost <= 0:
                raise ValueError(f"flash_boost must be positive: {self.flash_boost}")
            if not 0 <= self.flash_file < self.n_files:
                raise ValueError(f"flash_file out of range: {self.flash_file}")
        # Samplers validate their own parameters.
        self.sampler()

    @property
    def has_flash(self) -> bool:
        """True when the spec schedules a flash crowd."""
        return self.flash_at >= 0.0

    def sampler(self):
        """The key-popularity sampler this spec names."""
        if self.kind == "zipf":
            return ZipfSampler(self.n_files, self.alpha)
        if self.kind == "pareto":
            return ParetoSampler(self.n_files, self.hot_fraction, self.hot_mass)
        return UniformSampler(self.n_files)

    def p_write_at(self, t: float, duration: float) -> float:
        """The write probability at time ``t`` of a ``duration`` run."""
        if self.p_write_end < 0.0 or duration <= 0:
            return self.p_write
        frac = min(1.0, max(0.0, t / duration))
        return self.p_write + (self.p_write_end - self.p_write) * frac

    def rate_factor(self, t: float, duration: float) -> float:
        """Diurnal thinning factor in ``[1 - depth, 1]`` at time ``t``."""
        if not self.diurnal_depth or duration <= 0:
            return 1.0
        phase = 2.0 * math.pi * self.diurnal_periods * t / duration
        # Trough at t=0 so short scenarios see the rate *ramp up*.
        return 1.0 - self.diurnal_depth * (0.5 + 0.5 * math.cos(phase))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """Plain-data form with default-valued fields pruned.

        Pruning keeps scenario files small and — because a default spec
        serializes to ``{}`` — keeps digests of workload-free scenarios
        unchanged.
        """
        data: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                data[f.name] = value
        return data

    @classmethod
    def from_json(cls, data: dict) -> "WorkloadSpec":
        """Rebuild from :meth:`to_json` output.

        Raises:
            ScenarioError: ``data`` contains a field this model does not
                define.  Unknown fields are *rejected*, never dropped —
                silently ignoring them would replay a different workload
                than the artifact claims to describe.
        """
        if not isinstance(data, dict):
            raise ScenarioError(f"workload must be an object, got {type(data).__name__}")
        known = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ScenarioError(
                f"unknown workload field(s) {unknown}: a replay with these "
                "silently dropped would not reproduce the recorded run"
            )
        kwargs: dict = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            kwargs[f.name] = str(value) if f.name == "kind" else (
                int(value) if f.name in ("n_files", "flash_file") else float(value)
            )
        spec = cls(**kwargs)
        try:
            spec.validate()
        except ValueError as exc:
            raise ScenarioError(f"invalid workload: {exc}") from exc
        return spec


# -- the canonical event stream ------------------------------------------------


def sample_events(
    spec: WorkloadSpec,
    n_clients: int,
    duration: float,
    seed: int,
) -> list[tuple[float, int, str, int]]:
    """The seeded event stream: time-ordered ``(at, client, kind, file)``.

    Per-client base streams are thinned Poisson processes at the spec's
    (possibly diurnally modulated) rate, with keys drawn from the
    popularity sampler and the read/write mix shifting across the run.
    The flash crowd adds a second read-only stream per client, pinned to
    ``flash_file``, inside the flash window.

    Every stream draws from its own seed-derived RNG, so the events of
    client ``i`` are identical whether the run has 2 clients or 200.
    """
    spec.validate()
    if n_clients < 1:
        raise ValueError(f"need at least one client: {n_clients}")
    if duration <= 0:
        raise ValueError(f"duration must be positive: {duration}")
    sampler = spec.sampler()
    events: list[tuple[float, int, str, int]] = []
    for client in range(n_clients):
        rng = random.Random(f"{_NS}/{seed}/{client}/base")
        t = 0.0
        while True:
            t += rng.expovariate(spec.rate)
            if t >= duration:
                break
            if rng.random() >= spec.rate_factor(t, duration):
                continue  # thinned away by the diurnal trough
            kind = "write" if rng.random() < spec.p_write_at(t, duration) else "read"
            file = spec.flash_file if _in_flash(spec, t, duration) and kind == "read" \
                else sampler.sample(rng)
            events.append((t, client, kind, file))
        if spec.has_flash:
            frng = random.Random(f"{_NS}/{seed}/{client}/flash")
            start = spec.flash_at * duration
            end = min(duration, start + spec.flash_width * duration)
            t = start
            while True:
                t += frng.expovariate(spec.rate * spec.flash_boost)
                if t >= end:
                    break
                events.append((t, client, "read", spec.flash_file))
    events.sort()
    return events


def _in_flash(spec: WorkloadSpec, t: float, duration: float) -> bool:
    if not spec.has_flash:
        return False
    start = spec.flash_at * duration
    return start <= t < start + spec.flash_width * duration


# -- consumer adapters ---------------------------------------------------------


def generate_trace(
    spec: WorkloadSpec,
    n_clients: int,
    duration: float,
    seed: int = 0,
    path_prefix: str = "/wl",
) -> list[TraceRecord]:
    """The event stream as trace records (tracesim / experiment grids).

    The flash-crowd target is tagged :data:`FileClass.INSTALLED` — the
    paper's "one installed file" everyone stampedes — so installed-file
    machinery engages when the replay provides a cover manager.
    """
    records = []
    for at, client, kind, file in sample_events(spec, n_clients, duration, seed):
        file_class = (
            FileClass.INSTALLED
            if spec.has_flash and file == spec.flash_file
            else FileClass.NORMAL
        )
        records.append(
            TraceRecord(at, f"c{client}", kind, f"{path_prefix}/f{file}", file_class)
        )
    return records


def scenario_ops(
    spec: WorkloadSpec,
    n_clients: int,
    duration: float,
    seed: int,
) -> list[tuple[float, int, str, int]]:
    """The event stream in scenario-grammar shape (``repro.check``).

    Identical to :func:`sample_events`; named separately so the scenario
    generator's dependency is explicit and greppable.
    """
    return sample_events(spec, n_clients, duration, seed)


# -- presets -------------------------------------------------------------------

#: Named model definitions shared by the CLI, the adversarial scenario
#: grammar, the experiment grids and the golden-digest tests.
PRESETS: dict[str, WorkloadSpec] = {
    "uniform": WorkloadSpec(),
    "zipf": WorkloadSpec(kind="zipf", alpha=1.2, n_files=48, rate=2.0, p_write=0.15),
    "pareto": WorkloadSpec(kind="pareto", hot_fraction=0.2, hot_mass=0.8, n_files=48),
    "diurnal": WorkloadSpec(
        kind="zipf", alpha=1.1, n_files=32, diurnal_depth=0.8, diurnal_periods=2.0
    ),
    "flash-crowd": WorkloadSpec(
        kind="zipf",
        alpha=1.1,
        n_files=8,
        rate=2.5,
        p_write=0.15,
        flash_at=0.35,
        flash_width=0.25,
        flash_boost=10.0,
        flash_file=0,
    ),
    "mix-shift": WorkloadSpec(
        kind="pareto", n_files=24, p_write=0.02, p_write_end=0.5
    ),
}


def preset(name: str) -> WorkloadSpec:
    """Look up a named preset; raises :class:`ValueError` on unknown names."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload preset {name!r} (have: {', '.join(sorted(PRESETS))})"
        ) from None


def with_capacity_ratio(spec: WorkloadSpec, ratio: float) -> int:
    """Cache capacity giving a working-set-to-cache ratio of ``ratio``.

    ``ratio=4.0`` means the working set is four times the cache — the
    capacity-pressure regime where eviction policy differentiates.
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be positive: {ratio}")
    return max(1, round(spec.n_files / ratio))


__all__ = [
    "POPULARITY_KINDS",
    "PRESETS",
    "ParetoSampler",
    "UniformSampler",
    "WorkloadSpec",
    "ZipfSampler",
    "generate_trace",
    "preset",
    "sample_events",
    "scenario_ops",
    "with_capacity_ratio",
]
