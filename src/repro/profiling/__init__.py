"""Plotting for the bottleneck analysis (paper Fig. 4).

The stage table itself is a view of the trace:
:class:`repro.telemetry.StageTiming`.
"""

from repro.profiling.plot import bar_chart, line_plot, scatter_plot

__all__ = [
    "scatter_plot",
    "line_plot",
    "bar_chart",
]
