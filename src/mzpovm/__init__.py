"""POVM toolkit and Mach-Zehnder interferometry simulator.

Simulates path detection, interference detection, path marking, quantum
erasure and quantitative erasure as measurement schemes on a photon-probe
pair, extracts the measured input POVM of each scheme, and audits the
uncertainty, duality and erasure trade-off relations they satisfy. A
brute-force oracle (direct joint-state probabilities, seeded random-state
sampling, Bloch-sphere grid optimization) validates every closed form.
"""

import importlib

from . import cli, errors, extraction, interferometer, linalg, oracle, povm, relations

__all__ = [
    "cli",
    "complementarity",
    "errors",
    "extraction",
    "interferometer",
    "linalg",
    "oracle",
    "povm",
    "relations",
    "verify",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # The invariant suite and complementarity, which only it calls, are
    # imported on first use, so `run` and `sweep` do not compile them.
    if name in ("complementarity", "verify"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
