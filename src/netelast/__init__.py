"""netelast: throughput elasticity of network topologies under attack.

The library measures how gracefully a topology's deliverable traffic decays
as nodes are removed at random or by targeting degree/betweenness, provides
the analytic bounds attained by the complete graph, and ranks topologies
with a cost-aware tradeoff score.
"""

# each module's __all__ is the one list of its public names
from .errors import *
from .generators import *
from .graph import *
from .throughput import *
from .robustness import *
from .experiment import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += errors.__all__
__all__ += generators.__all__
__all__ += graph.__all__
__all__ += throughput.__all__
__all__ += robustness.__all__
__all__ += experiment.__all__
