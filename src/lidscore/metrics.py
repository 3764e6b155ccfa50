"""Goodness-of-fit and event statistics for simulated series."""

from dataclasses import dataclass

import numpy as np

from lidscore.errors import ValidationError


@dataclass(frozen=True)
class FitReport:
    nse: float
    n_points: int

    @property
    def passed(self) -> bool:
        return self.nse > 0.5


def nse(observed, simulated, *, observed_step_s=None, simulated_step_s=None) -> FitReport:
    """Nash-Sutcliffe efficiency of `simulated` against `observed`.

    NSE = 1 - sum((O - S)^2) / sum((O - mean(O))^2); 1.0 for identical
    series, 0.0 when the simulation is no better than the observed mean.
    When both step sizes are given and differ, the simulated series is
    linearly interpolated onto the observed timestamps.
    """
    obs = np.asarray(observed, dtype=float)
    sim = np.asarray(simulated, dtype=float)
    if observed_step_s and simulated_step_s and observed_step_s != simulated_step_s:
        t_obs = np.arange(obs.size) * float(observed_step_s)
        t_sim = np.arange(sim.size) * float(simulated_step_s)
        sim = np.interp(t_obs, t_sim, sim)
    if obs.size != sim.size:
        raise ValidationError("observed and simulated series differ in length")
    if obs.size < 2:
        raise ValidationError("need at least 2 points")
    denom = float(np.sum((obs - obs.mean()) ** 2))
    if denom == 0.0:
        raise ValidationError("zero variance in observed series")
    value = 1.0 - float(np.sum((obs - sim) ** 2)) / denom
    return FitReport(nse=value, n_points=int(obs.size))


def peak_stats(flows, step_s):
    """Peak flow (L/s) of `flows` at `step_s` and its time (s). Ties
    break to the earliest step."""
    flows = np.asarray(flows, dtype=float)
    if flows.size == 0:
        raise ValidationError("empty hydrograph")
    idx = int(np.argmax(flows))
    return float(flows[idx]), idx * float(step_s)

