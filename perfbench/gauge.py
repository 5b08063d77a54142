"""A fixed workload of the benchmark's own that reads the host's current speed.

The benchmark's host is shared: other machines' load makes all code run
up to two and a half times slower, in phases that last from a fraction of
a second to minutes.  No statistic over one measurement removes a phase
that covers all of it.  So the benchmark runs :class:`HostGauge` right
before and after every timed piece of a simulation and scales that piece
to the speed at which one gauge unit takes :data:`REFERENCE_S`.

The gauge is this file's own code and never calls the simulator, so a
change to the program cannot move it.  One unit mixes the three kinds of
work a simulation does, about a millisecond each at full speed:

- an event loop over a spatial grid of a few thousand objects (heap, dict
  and attribute traffic that stays in cache);
- a walk over a hundred thousand objects in random order (cache misses);
- vectorized distance tests over a few thousand positions (numpy, like
  the channel's audience selection).

Host slowdowns do not hit every kind of code alike, so the correction is
close, not exact: on a 2-vCPU Xeon container, a simulation chunk's
slowdown against one part's ran with log-log slopes of 0.8 to 1.3 and
correlations of about 0.8.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import Any, Dict, List, Tuple

import numpy as np

#: seconds one gauge unit takes at the reference speed (about its time on
#: an unloaded 2-vCPU Xeon container)
REFERENCE_S = 0.003


class _Sensor:
    def __init__(self, index: int, rng: random.Random) -> None:
        self.index = index
        self.x = rng.random() * 50.0
        self.y = rng.random() * 50.0
        self.energy = 1.0
        self.state = 0
        self.heard: Dict[int, int] = {}


class _Link:
    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.count = 0
        self.next: Any = None


class HostGauge:
    """Calling it runs one fixed unit of work and returns its host seconds."""

    def __init__(self, sensors: int = 3000, links: int = 100_000, seed: int = 7) -> None:
        rng = random.Random(seed)
        self._rng = rng
        self._sensors = [_Sensor(index, rng) for index in range(sensors)]
        self._grid: Dict[Tuple[int, int], List[_Sensor]] = {}
        for sensor in self._sensors:
            self._grid.setdefault((int(sensor.x // 3), int(sensor.y // 3)), []).append(sensor)
        self._queue = [(rng.random(), index, index) for index in range(sensors)]
        heapq.heapify(self._queue)
        self._sequence = sensors
        chain = [_Link(key, rng.random()) for key in range(links)]
        order = list(range(links))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            chain[here].next = chain[there]
        self._chain = chain
        self._link = chain[0]
        self._table: Dict[int, float] = {}
        generator = np.random.default_rng(seed)
        self._xs = generator.random(sensors) * 50.0
        self._ys = generator.random(sensors) * 50.0
        self._centres = generator.integers(0, sensors, 40)
        self._load = np.zeros(sensors)
        self()  # first touch of every structure, outside any measurement

    def __call__(self) -> float:
        start = time.perf_counter()
        self._events(50)
        self._walk(1500)
        self._audiences()
        return time.perf_counter() - start

    def _events(self, count: int) -> None:
        queue, sensors, grid, rng = self._queue, self._sensors, self._grid, self._rng
        for _ in range(count):
            now, _sequence, index = heapq.heappop(queue)
            sensor = sensors[index]
            cx, cy = int(sensor.x // 3), int(sensor.y // 3)
            heard = 0
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for other in grid.get((cx + dx, cy + dy), ()):
                        if (other.x - sensor.x) ** 2 + (other.y - sensor.y) ** 2 < 9.0:
                            heard += 1
                            other.heard[sensor.state] = other.heard.get(sensor.state, 0) + 1
            sensor.energy -= 1e-6 * (1.0 + math.sin(now))
            sensor.state = heard & 3
            self._sequence += 1
            heapq.heappush(queue, (now + rng.expovariate(1.0), self._sequence, index))

    def _walk(self, steps: int) -> None:
        link, table, total = self._link, self._table, 0.0
        for _ in range(steps):
            link = link.next
            link.count += 1
            total += link.value
            table[link.key & 16383] = total
        self._link = link

    def _audiences(self) -> None:
        xs, ys, load = self._xs, self._ys, self._load
        for centre in self._centres:
            distance = (xs - xs[centre]) ** 2 + (ys - ys[centre]) ** 2
            heard = np.nonzero(distance < 9.0)[0]
            load[heard] += distance[heard]


def at_reference(host_s: float, gauge_before: float, gauge_after: float) -> float:
    """``host_s`` scaled to the reference speed, by the gauge read around it."""
    return host_s * 2.0 * REFERENCE_S / (gauge_before + gauge_after)
