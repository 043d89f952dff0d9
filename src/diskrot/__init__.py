"""diskrot: a numerical laboratory for area-preserving disk maps.

Winding numbers, action functions and Calabi invariants, Birkhoff and
double-Birkhoff averages, radial-foliation angle calculus, and
continued-fraction strip-measure checks for pseudo-rotation families.
"""

from .action import (
    ActionField,
    CalabiResult,
    PrimitiveOneForm,
    action,
    action_winding_gap,
    calabi,
)
from .ergodic import (
    ConvergenceReport,
    EmpiricalMeasure,
    OrbitCache,
    empirical_weak_convergence,
    linking_average,
    mean_action,
    right_handedness_certificate,
)
from .errors import DiskrotError
from .farey import (
    Convergent,
    InvariantCircleSpec,
    StripRegion,
    convergents,
    product_integral_winding,
    rotation_of_measure,
    strip_measure,
)
from .foliation import (
    QuarterTurn,
    RadialFoliation,
    annulus_sums,
    big_lambda,
    displacement,
    lambda_int,
    quarter_turn,
    rotation_number,
    tau,
    winding_distance_probe,
)
from .geometry import GOLDEN, CoverPoint, DiskPoint, lift
from .maps import (
    ConjugacyMap,
    ConjugatedRotation,
    IteratedIsotopy,
    Isotopy,
    PlaneExtension,
    RigidRotation,
    from_config,
)
from .winding import winding, winding_tangent

__version__ = "0.1.0"
