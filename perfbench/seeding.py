"""The benchmark's seeded input streams."""

import hashlib
import random


def stream(seed: int, workload: str) -> random.Random:
    """The stream sha256(f"{seed}:{workload}") every input of a workload
    is drawn from."""
    digest = hashlib.sha256(f"{seed}:{workload}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))
