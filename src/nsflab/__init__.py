"""nsflab: a desk-scale laboratory for compressible heat-conducting flow.

The package bundles an explicit finite-volume solver for the compressible
Navier-Stokes-Fourier system with Dirichlet temperature data, atomic Young
measures with defect bookkeeping, relative-energy (Bregman) machinery, and
experiment drivers that test weak-strong uniqueness statements numerically.

``cli`` is imported on first use (``from nsflab import cli``) rather than
here, so ``python3 -m nsflab.cli`` runs the module once, as ``__main__``.
"""

from . import (
    config,
    experiments,
    grid,
    manufactured,
    relenergy,
    reports,
    solver,
    testfuns,
    thermo,
    transport,
    young,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "cli",
    "config",
    "experiments",
    "grid",
    "manufactured",
    "relenergy",
    "reports",
    "solver",
    "testfuns",
    "thermo",
    "transport",
    "young",
]
