"""objsearch: search-in-time / search-in-space object retrieval engine.

A tri-index episodic memory over patrol observations, a desk-scale dynamic
household simulator, a budget-aware agent loop with a unified temporal and
spatial action space, and a benchmark harness with scripted baselines.
"""

from . import agent, artifacts, bench, core, embed, homesim, memstore

__version__ = "0.1.0"

__all__ = ["agent", "artifacts", "bench", "core", "embed", "homesim", "memstore", "__version__"]
