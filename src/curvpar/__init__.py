"""Second-order geometry of corank-1 surface germs in R^4.

Parse a polynomial map germ, normalize it to prenormal form, and compute the
curvature parabola, its orbit and stratum, asymptotic and binormal
directions, the umbilic curvature, the height-function degeneracy cone, and
the associated regular surfaces, with brute-force oracles cross-checking the
closed forms.
"""

from .adapt import AdaptedGerm, CorankError, adapt, check_corank
from .associated import (
    RegularSurfaceR4,
    RegularSurfaceR5,
    curvature_ellipse,
    lift_to_r5,
    project_to_s,
    s_asymptotic_directions,
    verify_transfer,
)
from .config import DEFAULT_TOL, Tolerances
from .directions import (
    AsymptoticSet,
    Binormal,
    BinormalSet,
    asymptotic_directions,
    binormal_directions,
    ik_classify,
    osculating_hyperplanes,
    point_type,
)
from .forms import FirstForm, SecondForm, II_along, first_form, rank_second_form, second_form
from .germs import (
    GermParseError,
    Jet2,
    MapGermR4,
    TruncatedPoly2,
    extract_jet2,
    parse_map_germ,
    parse_poly,
    template_parameters,
)
from .heights import (
    DegeneracyCone,
    cone_parabola_orthogonality,
    corank2_conditions,
    degeneracy_cone,
    height_hessian,
    sample_cone,
)
from .oracle import (
    ScanResult,
    VerificationReport,
    affine_hull_distance,
    asymptotic_scan,
    finite_difference_hessian,
    parabola_hull_distance,
)
from .parabola import (
    ParabolaProfile,
    ReducedTwoJet,
    build_parabola,
    classify_two_jet,
    reduce_to_normal_form,
    sample_parabola,
)
from .report import AnalysisResult, analyze_germ
from .umbilic import UmbilicResult, kappa_stratum_check, umbilic_curvature

__version__ = "0.1.0"
