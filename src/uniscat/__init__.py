"""uniscat: momentum-space scattering and one-way-invisible potentials.

The package splits along the physics pipeline:

* :mod:`uniscat.grids` for wavenumber bookkeeping and the momentum grid,
* :mod:`uniscat.envelopes` and :mod:`uniscat.potentials` for potential
  specifications and their Fourier transforms,
* :mod:`uniscat.construct` for the three-harmonic one-way-invisible family,
* :mod:`uniscat.born` for first-order amplitudes (numeric and closed form),
* :mod:`uniscat.xfermat` for the full transfer matrix, its conservation
  laws, and scattering classification,
* :mod:`uniscat.empower` for power observables and the screen benchmark,
* :mod:`uniscat.cli` for the command-line front end.

Each module's ``__all__`` is its one export list; the package re-exports
those of every module but the command-line front end.
"""

from . import born, construct, empower, envelopes, grids, potentials, xfermat
from .born import *  # noqa: F401,F403
from .construct import *  # noqa: F401,F403
from .empower import *  # noqa: F401,F403
from .envelopes import *  # noqa: F401,F403
from .grids import *  # noqa: F401,F403
from .potentials import *  # noqa: F401,F403
from .xfermat import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (born, construct, empower, envelopes, grids, potentials, xfermat)
    for name in module.__all__
]
