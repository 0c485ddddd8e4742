"""curvforms: curvature operators on 2-forms, Hodge-star commuting tests,
normal forms, and Euler/signature integrands in dimensions 3, 4 and n.

The public API, the ``__all__`` of every submodule, is re-exported flat;
``import curvforms as cf`` is the intended style.  Submodules group the
machinery:

``bivectors``
    canonical bases of the second exterior power, wedges, induced scalar
    products, decomposability.
``hodge``
    Hodge stars on 2-forms for Riemannian and Lorentzian 4-metrics,
    self-dual/anti-self-dual splitting, the Lorentz companion metric.
``curvature``
    the curvature tensor container, validation of the pair symmetries and the
    first Bianchi identity, operators against g / h / the Lorentz companion,
    sectional quadratic forms, space forms.
``normal_forms``
    the batched Lambda^2 kernel, the star-commuting (Einstein) test,
    curvature normal forms in dimensions 4, 3 and n, scaled normal forms,
    critical-plane diagnostics.
``complex_forms``
    the complex 3x3 normal-form classification of Lorentz-commuting tensors
    and the spacelike critical-plane counter.
``topology``
    Euler/signature integrand densities, weighted-sample integration,
    self-dual Weyl splitting, connected-sum bookkeeping.
``zoo``
    point-sample containers, the JSONL interchange format, and generators for
    closed-form and synthetic curvature families.
``cli``
    the ``curvforms`` batch command line.
"""

from . import bivectors, complex_forms, curvature, exceptions, hodge, normal_forms, topology, zoo
from .bivectors import *  # noqa: F403
from .complex_forms import *  # noqa: F403
from .curvature import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .hodge import *  # noqa: F403
from .normal_forms import *  # noqa: F403
from .topology import *  # noqa: F403
from .zoo import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (exceptions, bivectors, hodge, curvature, normal_forms, complex_forms, topology, zoo)
    for name in module.__all__
]
