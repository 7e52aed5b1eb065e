"""Exact arithmetic for circular units of Z[alpha], alpha a 2^n-th root of
unity, their mod-2 congruence calculus, the funnel subgroups F and sqrt(F),
and the induced units of the group ring Z[C_{2^n}]."""

from .circular_units import *
from .congruence import *
from .cyclotomic import *
from .errors import *
from .funnel import *
from .group_ring import *
from .real_basis import *
from .version import *

__version__ = TOOL_VERSION

# importing a submodule binds its name here, so each list is reachable
__all__ = [
    *circular_units.__all__,
    *congruence.__all__,
    *cyclotomic.__all__,
    *errors.__all__,
    *funnel.__all__,
    *group_ring.__all__,
    *real_basis.__all__,
    *version.__all__,
]
