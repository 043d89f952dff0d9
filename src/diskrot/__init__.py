"""diskrot: a numerical laboratory for area-preserving disk maps.

Winding numbers, action functions and Calabi invariants, Birkhoff and
double-Birkhoff averages, radial-foliation angle calculus, and
continued-fraction strip-measure checks for pseudo-rotation families.
"""

from .action import (
    ActionField,
    CalabiResult,
    action_winding_gap,
    calabi,
)
from .ergodic import (
    ConvergenceReport,
    linking_average,
    mean_action,
    right_handedness_certificate,
)
from .errors import DiskrotError
from .farey import (
    Convergent,
    convergents,
    product_integral_winding,
    rotation_of_measure,
    strip_measure,
)
from .foliation import lambda_int
from .geometry import GOLDEN
from .maps import (
    ConjugacyMap,
    ConjugatedRotation,
    Isotopy,
    PlaneExtension,
    RigidRotation,
    from_config,
)
from .winding import pair_windings, winding_tangent

__version__ = "0.1.0"
