"""Structured-grid simulator and verification suite for gravity-driven
porous-media transport with velocity-dependent hydrodynamic dispersion.

The package root exports nothing: each name is imported from the module
that defines it, for example ``from dispersim import transport``."""
