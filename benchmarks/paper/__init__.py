"""Paper-table projection: the simulated GPU and the DGX-1 cost model.

This package is not part of the installed classifier.  It regenerates
the paper's evaluation tables and figures (Tables 1-6, Figs. 4-5) from
mini-scale runs of :mod:`repro` and projects them to the paper's
DGX-1 scale with a calibrated cost model.  Every projected number is
modeled, not measured; measured speed is owned by ``benchmarks/e2e/``.

- :mod:`paper.gpu` -- simulated CUDA substrate, warp-level kernel
  emulations and the DGX-1 cost model;
- :mod:`paper.bench` -- mini-scale workloads, experiment runners and
  table renderers;
- ``bench_*.py`` -- one pytest module per table or figure;
- ``multi_gpu_scaling.py`` -- a runnable multi-GPU walk-through;
- ``tests/`` -- the substrate's own tests (collected by tier-1).

Run the tables with ``benchmarks/`` on the import path::

    PYTHONPATH=src:benchmarks python -m pytest -q benchmarks/paper/bench_*.py

:mod:`paper` imports :mod:`repro`; nothing under ``src/repro/`` may
import :mod:`paper` (repro-lint RL007).
"""
