"""Shared fixtures and helpers: studies that several tests read, run once
per session, and a model that counts its equation-of-state evaluations.
The report header, or a quiet run's summary, names numpy's CPU dispatch,
on which the bit goldens depend."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from nsflab import experiments, thermo, transport


def pytest_report_header(config):
    """numpy's version, its baseline CPU features and the dispatch targets
    enabled in this process: exp, log and their kin run other SIMD kernels
    per target, whose last bits differ, so a bit golden that fails on one
    machine and not another shows why in the log."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (f"numpy {np.__version__}: baseline {' '.join(umath.__cpu_baseline__)}; "
            f"dispatch {' '.join(enabled) or 'none'}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the report header, so a quiet run writes the line at its end
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


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
