"""Diagnostics: energy conservation, communication lower bounds and the
Section 5.3 asymptotic cost formulas."""
from repro.analysis.energy import EnergyBudget, energy_budget
from repro.analysis.lower_bounds import (
    fourier_filter_lower_bound,
    summation_lower_bound,
    section53_costs,
    Sec53Costs,
)
from repro.analysis.climatology import Climatology, ClimatologyAccumulator

__all__ = [
    "EnergyBudget",
    "energy_budget",
    "fourier_filter_lower_bound",
    "summation_lower_bound",
    "section53_costs",
    "Sec53Costs",
    "Climatology",
    "ClimatologyAccumulator",
]
