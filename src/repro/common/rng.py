"""Deterministic seed derivation for workload generators.

Every workload derives all of its random state from a single integer seed via
``derive_seed`` so that traces (and therefore every figure) regenerate
identically run-to-run and machine-to-machine.

Seed salting (``seed_scope``): sweep infrastructure that wants *variants* of
a trace (e.g. confidence intervals over trace realizations) activates a salt
that is mixed into every derived seed.  The salt is scoped, explicit, and
carried by the :class:`repro.runner.Job` that requested it - never by ambient
process state - so a worker process rebuilding a trace from a job description
produces bit-identical streams regardless of which process builds it, what
``random.seed`` the process happens to have, or how many jobs it ran before.
A salt of 0 (the default) leaves derivation exactly as unsalted.
"""

from __future__ import annotations

import contextlib
import random
import zlib
from typing import Iterator

#: Active trace-variant salt.  Mutated only via ``seed_scope``.
_seed_salt: int = 0


@contextlib.contextmanager
def seed_scope(salt: int) -> Iterator[None]:
    """Mix ``salt`` into every ``derive_seed`` call inside the block.

    Nested scopes restore the previous salt on exit, so trace construction
    for one job can never leak its salt into the next.
    """
    global _seed_salt
    previous = _seed_salt
    _seed_salt = int(salt)
    try:
        yield
    finally:
        _seed_salt = previous


def derive_seed(*parts: int | str) -> int:
    """Mix arbitrary parts (workload name, thread id, phase...) into a seed."""
    digest = 0
    if _seed_salt:
        digest = zlib.crc32(str(_seed_salt).encode("utf-8") + b"\x1f", digest)
    for part in parts:
        # The separator keeps part boundaries significant:
        # ("a", "b") must not collide with ("ab",).
        data = str(part).encode("utf-8") + b"\x1f"
        digest = zlib.crc32(data, digest)
    return digest & 0x7FFFFFFF


def make_rng(*parts: int | str) -> random.Random:
    """Return a ``random.Random`` seeded deterministically from ``parts``."""
    return random.Random(derive_seed(*parts))
