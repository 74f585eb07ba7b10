"""Canonical dynamics of particles, matrices and strings on a complexified
Clifford algebra: Gram resolutions of Hermitian matrices, the single-particle
canonical system and its generalized bracket, U(N) matrix mechanics, the
flat-worldsheet string, and the Noether-current algebra checks.
"""

from . import (acceptance, clifford, current_algebra, matrixmech, particle,
               sampling, spinors, tolerances, worldsheet)
from .clifford import (GeneratorSpace, allocate, allocate_blocks, bullet,
                       hermitian_eig, resolve_hermitian, resolve_pair,
                       standard_basis)
from .errors import CliffdynError, InputError, PreconditionError, VerificationError
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"
