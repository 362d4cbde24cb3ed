"""The one timing protocol every perf bench measures with.

:func:`interleave` runs named contenders in rounds.  Each round calls every
contender once, and the order flips every round (forward, reversed,
forward, ...), so drift in machine speed cannot land on one contender.
A contender receives a fresh :class:`Region` per sample and times only its
measured region with it; setup and checks stay outside::

    def contender(region):
        network = build()             # untimed
        with region:
            result = network.run()    # the sample
        return digest(result)         # kept in Series.results

The region collects garbage before it starts, so earlier samples' garbage
is not collected on its clock, and it records process CPU time and wall
time.  Benches compare process CPU time; wall time is for benches whose
work runs in other processes.  A contender whose region ran in a child
process hands the child's numbers to :meth:`Region.report` instead.

Ambient load only ever inflates a sample, so the minimum is the least
disturbed estimate; the median and quartiles record the spread.
:func:`write_result` writes a bench's payload to
``benchmarks/results/BENCH_<name>.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import pathlib
import statistics
from time import perf_counter, process_time
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class Region:
    """The measured region of one sample: enter it once, or :meth:`report`."""

    def __init__(self) -> None:
        self._start: Tuple[float, float] = (0.0, 0.0)
        self._sample: Optional[Tuple[float, float]] = None

    def __enter__(self) -> "Region":
        gc.collect()
        self._start = (process_time(), perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        cpu, wall = self._start
        self.report(process_time() - cpu, perf_counter() - wall)

    def report(self, cpu_s: float, wall_s: float) -> None:
        """Record a region timed elsewhere, e.g. inside a child process."""
        if self._sample is not None:
            raise RuntimeError("a region is timed once per sample")
        self._sample = (cpu_s, wall_s)

    @property
    def sample(self) -> Tuple[float, float]:
        """``(cpu_s, wall_s)`` of the timed region."""
        if self._sample is None:
            raise RuntimeError("the contender never timed its region")
        return self._sample


@dataclasses.dataclass(frozen=True)
class Stats:
    """One clock's samples for one contender, with min, median and quartiles."""

    samples: Tuple[float, ...]
    min: float
    q1: float
    median: float
    q3: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Stats":
        values = tuple(samples)
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = median = q3 = values[0]
        return cls(values, min(values), q1, median, q3)

    def to_json(self) -> Dict[str, Any]:
        return {
            "min": round(self.min, 6),
            "q1": round(self.q1, 6),
            "median": round(self.median, 6),
            "q3": round(self.q3, 6),
            "samples": [round(v, 6) for v in self.samples],
        }


@dataclasses.dataclass(frozen=True)
class Series:
    """What :func:`interleave` measured for one contender."""

    cpu: Stats
    wall: Stats
    results: Tuple[Any, ...]

    def to_json(self) -> Dict[str, Any]:
        return {"cpu_s": self.cpu.to_json(), "wall_s": self.wall.to_json()}


def interleave(
    contenders: Mapping[str, Callable[[Region], Any]],
    repeats: int,
    warmup: bool = True,
) -> Dict[str, Series]:
    """Time every contender ``repeats`` times in order-flipping rounds.

    With ``warmup`` every contender first runs once untimed, so all are
    compared warm; benches whose contenders start fresh processes pass
    ``False``.  Returns each contender's :class:`Series`, in input order.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup:
        for run in contenders.values():
            run(Region())
    order = list(contenders)
    samples: Dict[str, list] = {name: [] for name in order}
    results: Dict[str, list] = {name: [] for name in order}
    for round_no in range(repeats):
        for name in order if round_no % 2 == 0 else reversed(order):
            region = Region()
            results[name].append(contenders[name](region))
            samples[name].append(region.sample)
    return {
        name: Series(
            cpu=Stats.of([cpu for cpu, _wall in samples[name]]),
            wall=Stats.of([wall for _cpu, wall in samples[name]]),
            results=tuple(results[name]),
        )
        for name in order
    }


def write_result(name: str, payload: Mapping[str, Any]) -> pathlib.Path:
    """Write ``payload`` to ``benchmarks/results/BENCH_<name>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
