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
depend on Python's randomized ``hash()``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Iterator, List

__all__ = ["RngRegistry", "derive_seed"]


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
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RngRegistry":
        """Create a sub-registry whose master seed is derived from ``name``.

        Used to give each node its own family of streams without every
        caller having to agree on globally unique stream names.
        """
        return RngRegistry(derive_seed(self.seed, name))

    def exponential(self, name: str, rate: float) -> float:
        """Draw from Exp(rate) on stream ``name``; rate must be positive."""
        if rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {rate}")
        return self.stream(name).expovariate(rate)

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw Uniform(low, high) on stream ``name``."""
        return self.stream(name).uniform(low, high)

    def names(self) -> Iterator[str]:
        """Names of streams created so far (diagnostic)."""
        return iter(sorted(self._streams))

    # ------------------------------------------------------------- snapshot
    def state_dict(self) -> Dict[str, Any]:
        """Serializable per-stream generator state.

        ``random.Random.getstate()`` is ``(version, (625 ints), gauss_next)``
        — plain integers and an optional float, so the Mersenne Twister
        state round-trips through JSON exactly.
        """
        streams: Dict[str, List[Any]] = {}
        for name in sorted(self._streams):
            version, internal, gauss_next = self._streams[name].getstate()
            streams[name] = [version, list(internal), gauss_next]
        return {"seed": self.seed, "streams": streams}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore stream states saved by :meth:`state_dict`.

        Streams absent from ``state`` are left untouched (still lazily
        created from their derived seeds): a stream first drawn from after
        the checkpoint starts at its derived seed, as it would have in the
        uninterrupted run.
        """
        if int(state["seed"]) != self.seed:
            raise ValueError(
                f"RNG state was captured under master seed {state['seed']}, "
                f"cannot load into a registry seeded {self.seed}"
            )
        for name, (version, internal, gauss_next) in state["streams"].items():
            self.stream(name).setstate((version, tuple(internal), gauss_next))
