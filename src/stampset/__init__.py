"""stampset: exact structure of N-fold sumsets of finite integer sets.

The package answers, with certificates and exhaustive small-case scans,
questions of the form "which integers are sums of exactly N stamps drawn
from a fixed denomination set A?" and verifies the interval-minus-two-gap-
sets description of NA together with the thresholds at which it starts to
hold.

Each public name is listed once, in the ``__all__`` of the module that
defines it; the package re-exports those lists.
"""

from . import core, errors, families, modular, scan, verifier
from .core import *
from .errors import *
from .families import *
from .modular import *
from .scan import *
from .verifier import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += errors.__all__
__all__ += families.__all__
__all__ += modular.__all__
__all__ += scan.__all__
__all__ += verifier.__all__
