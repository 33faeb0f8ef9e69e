"""Desk-scale 2D emission-tomography Plug-and-Play ADMM reconstruction.

Modules: sim (phantoms, projector, Poisson data), recon (likelihood and
OSEM baselines), prox (penalized-likelihood data step), net (denoiser and
differentiation engine), train (two-phase learning), admm (the PnP loop),
config (the config format), cli (batch experiment commands), util (atomic
writes, CSV, seeds, the worker pool).
"""

__version__ = "0.1.0"

from . import admm, net, prox, recon, sim, train  # noqa: F401
