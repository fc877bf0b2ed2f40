"""Monitor and knob selection toolkit for HPC parameter sweeps.

The pipeline, end to end: simulate (or ingest) a full-factorial knob
sweep with eleven measured monitors per configuration, derive the five
system requirements from the monitors, run a correlation-driven
reduction that prunes redundant columns and maps each requirement to
one monitor, select the knobs that actually move those monitors, and
validate the reduced search against exhaustive ranking.

Names are imported from the submodules (``hpckit.sweep``,
``hpckit.simulator``, ``hpckit.metrics``, ``hpckit.reducer``,
``hpckit.search``, ``hpckit.defaults``, ``hpckit.cli``); the package
itself exports only ``__version__``.
"""

__version__ = "0.1.0"
