"""Deterministic named random-number streams.

Every stochastic component of the reproduction (sleeping durations, REPLY
backoffs, packet loss, deployment positions, failure times, ...) draws from
its own named stream derived from a single master seed.  This gives:

* **reproducibility** — one integer reproduces an entire run;
* **variance isolation** — changing, say, the failure process does not perturb
  the deployment positions, which keeps parameter sweeps comparable (the
  common random numbers technique).

Streams are ``random.Random`` instances seeded by a stable 64-bit hash of
``(master_seed, name)`` computed with BLAKE2b, so stream derivation does not
depend on Python's randomized ``hash()``.  Every name must be declared in
the :data:`~repro.sim.streams.STREAM_NAMES` catalogue: the registry raises
:class:`UndeclaredStreamError` the first time it would create a stream
under any other name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator

from .streams import stream_declared

__all__ = ["RngRegistry", "UndeclaredStreamError", "derive_seed"]


class UndeclaredStreamError(ValueError):
    """A stream name the ``STREAM_NAMES`` catalogue does not declare."""


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``(master_seed, name)``."""
    digest = hashlib.blake2b(
        f"{master_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class RngRegistry:
    """A factory of named, independently seeded ``random.Random`` streams.

    Example
    -------
    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("deployment")
    >>> b = rngs.stream("deployment")
    >>> a is b
    True
    >>> RngRegistry(seed=42).stream("deployment").random() == a.random()
    False  # a already consumed one draw; fresh registries replay identically
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Raises :class:`UndeclaredStreamError` when a stream would be
        created under a name :func:`~repro.sim.streams.stream_declared`
        rejects.
        """
        stream = self._streams.get(name)
        if stream is None:
            if not stream_declared(name):
                raise UndeclaredStreamError(
                    f"undeclared RNG stream name {name!r}; add it to "
                    "repro.sim.streams.STREAM_NAMES"
                )
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def names(self) -> Iterator[str]:
        """Names of streams created so far (diagnostic)."""
        return iter(sorted(self._streams))
