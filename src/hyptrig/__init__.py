"""hyptrig: closed forms and a quadrature audit for hyperbolic-
trigonometric definite integrals from the Gradshteyn-Ryzhik table."""

from .errors import DomainError, UnknownEntryError
from .specfun import (SpecialValue, gamma, log_gamma, hurwitz_zeta,
                      dirichlet_beta, dirichlet_eta, bessel_j, theta1_prime0)
from .quad import (Integrand, IntervalSpec, QuadResult, integrate,
                   integrate_many, euler_transform)
from . import catalog
from . import auditor

__version__ = "0.1.0"
