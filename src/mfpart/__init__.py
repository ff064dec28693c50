"""Mean-field partitioning of qubit Hamiltonians.

Splits a Pauli-word Hamiltonian into fragments whose energy can be read
off one qubit at a time with feedforward single-qubit measurements, and
samples those fragments on dense statevectors.
"""

from . import entangler, hamio, meanfield, partition, pauli, qwc, simulator
from .entangler import *  # noqa: F403
from .hamio import *  # noqa: F403
from .meanfield import *  # noqa: F403
from .partition import *  # noqa: F403
from .pauli import *  # noqa: F403
from .qwc import *  # noqa: F403
from .simulator import *  # noqa: F403

__version__ = "0.1.0"

# Each library module's own list; cli stays out, as it loads argparse.
__all__ = ["__version__"] + [
    name
    for module in (pauli, qwc, meanfield, entangler, partition, simulator, hamio)
    for name in module.__all__
]
