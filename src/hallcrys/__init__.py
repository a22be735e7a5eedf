"""hallcrys: exact Hall algebras over finite-field quiver representations,
with integrality and crystal-basis certification for exceptional modules."""

from .checks import CheckFailed
from .classtable import ClassTable, IsoClass
from .crystal import Crystal, certify_exceptional
from .exseq import CertificateEngine
from .generic import GenericContext
from .quivers import Quiver

__version__ = "0.1.0"

__all__ = ["CheckFailed", "ClassTable", "IsoClass", "Crystal", "certify_exceptional",
           "CertificateEngine", "GenericContext", "Quiver", "__version__"]
