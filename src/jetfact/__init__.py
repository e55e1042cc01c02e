"""jetfact: exact jet-algebra vertex operators, disk-based factorization
structure on the complex plane, and numeric contour cross-checks.

The symbolic layer works over the Gaussian rationals with a weight
truncation bound, so every algebraic identity is checked exactly; the
numeric layer evaluates the same insertion series in floating point and
recovers its coefficients by contour integration.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .errors import InputError
from .scalars import Scalar
from .grading import GradedElement
from .jetalg import AlgebraPresentation, lift_hom
from .vertex import VertexAlgebra, vertex_op
from .diskgeom import BasisElement, Disk, GroupElement
from .factalg import TensorSection, SupportedOpen
from .reconstruct import insert, mode_of

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "InputError",
    "Scalar",
    "GradedElement",
    "AlgebraPresentation",
    "lift_hom",
    "VertexAlgebra",
    "vertex_op",
    "BasisElement",
    "Disk",
    "GroupElement",
    "TensorSection",
    "SupportedOpen",
    "insert",
    "mode_of",
]
