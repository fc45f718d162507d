"""Shared fixtures: studies that several tests read, run once per session."""

import pytest

from nsflab import experiments, thermo, transport


@pytest.fixture(scope="session")
def claim_three_report():
    """The default claim-3 study: molecular radiation with the degenerate
    kernel (a = 1) and the default power-law conduction."""
    spec = experiments.ExperimentSpec(theorem="3", model=thermo.MolecularRadiation(a=1.0),
                                      transport_model=transport.PowerKappa())
    return experiments.run_theorem(spec)
