"""Shared fixtures and helpers: studies that several tests read, run once
per session, and a model that counts its equation-of-state evaluations."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from nsflab import experiments, thermo, transport


@dataclass(frozen=True)
class CountingModel(thermo.MolecularRadiation):
    """Molecular-radiation law that records, for each ``partials`` call, how
    many cells reach it (``sizes``) and the keys it asks for (``keys``)."""

    sizes: list = field(default_factory=list, compare=False)
    keys: list = field(default_factory=list, compare=False)

    def partials(self, rho, theta, keys=thermo.PARTIALS):
        self.sizes.append(np.broadcast(rho, theta).size)
        self.keys.append(tuple(keys))
        return super().partials(rho, theta, keys)


@pytest.fixture(scope="session")
def claim_three_report():
    """The default claim-3 study: molecular radiation with the degenerate
    kernel (a = 1) and the default power-law conduction."""
    spec = experiments.ExperimentSpec(theorem="3", model=thermo.MolecularRadiation(a=1.0),
                                      transport_model=transport.PowerKappa())
    return experiments.run_theorem(spec)
