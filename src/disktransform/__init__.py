"""Real-linear integral transforms on the unit disk.

Closed-form action of the disk Cauchy transform and its relatives on
two-variable polynomials, exact rational bookkeeping, quadrature oracles,
Galerkin norm estimation, and the extremal-function toolkit.  Import from
the modules: diskalg, transforms, oracle, spectral, specfun, extremal, cli.
"""

__version__ = "0.1.0"
