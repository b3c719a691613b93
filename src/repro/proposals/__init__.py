"""LAMARC-style neighbourhood-resimulation proposal mechanism."""

from .intervals import FeasibleIntervals, Region, build_intervals, extract_region, inactive_lineage_count
from .neighborhood import NeighborhoodResimulator, ResimulationOutcome, eligible_targets

__all__ = [
    "Region",
    "FeasibleIntervals",
    "extract_region",
    "build_intervals",
    "inactive_lineage_count",
    "NeighborhoodResimulator",
    "ResimulationOutcome",
    "eligible_targets",
]
