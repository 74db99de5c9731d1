"""Stability and controllability toolkit for a two-component
reaction-diffusion pulse under proportional feedback control.

Submodules:
    model     -- pulse data and the (alpha, beta, nu) reduction
    spectral  -- explicit spectral function R, root equation, verdict
    oracle    -- brute-force Sturm-Liouville cross-checks
    regions   -- parameter-plane classification and sweep
    pde_sim   -- direct time integration of the controlled system
    cli       -- command-line front end
    errors    -- the exception hierarchy

Import each name from its submodule, such as
``from pulsectrl.spectral import assemble_spectrum``; the package itself
exports nothing, so ``import pulsectrl`` loads no submodule.
"""

__version__ = "1.0.0"
