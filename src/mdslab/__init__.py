"""Finite and limiting multidimensional scaling on metric measure spaces.

Pipeline: build or sample a metric measure space (``spaces``), double-center
its squared-distance kernel and decompose (``mds_core``), compare against
analytic sphere spectra (``sphere_spectral``), quantify stability under
couplings (``stability``), and merge product spectra (``products``). The
``mdslab`` CLI drives the same operations from config files.
"""

__version__ = "0.1.0"

from .spaces import (
    AnalyticSpace,
    FiniteSpace,
    SampleSpec,
    Snowflake,
    Sphere,
    Torus,
    finite_space_from_matrix,
    fourth_moment_norm,
    sample,
)
from .mds_core import (
    CenteredOperator,
    EmbeddingResult,
    double_center,
    eigendecompose,
    embed,
    embed_negative,
    spectral_embedding,
)
from .sphere_spectral import (
    AsymptoticScan,
    asymptotic_scan,
    coeff,
    eigenvalue_closed,
    eigenvalue_quadrature,
    eigenvalue_series,
    multiplicity,
    s_peak,
    snowflake_identity_error,
    theta,
)
from .stability import (
    AlignmentResult,
    Coupling,
    convergence_experiment,
    coupling_nearest,
    eigen_perturbation_check,
    gw_cost,
    hs_gap,
    procrustes,
    w4_circle_grid,
)
from .products import (
    ProductPrediction,
    predict_product_spectrum,
    product_space,
    torus_check,
    verify_product_embedding,
)
