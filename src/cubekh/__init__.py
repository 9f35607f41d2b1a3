"""Khovanov-type homologies over GF(2), branched double cover arithmetic,
and surgery/L-space bookkeeping for link diagrams given as PD codes.

Only the modules some CLI job runs are imported here; the diagram corpora
and the real-graded complexes are imported from `cubekh.corpus` and
`cubekh.rgraded`."""

from .branched import (
    FillingReport,
    GoeritzData,
    QACertificate,
    RankInequalityReport,
    goeritz,
    h1_sigma,
    link_det,
    oriented_resolution_filling,
    qa_certify,
    rank_inequality_check,
    verify_certificate,
)
from .complexes import (
    FilteredComplexF2,
    GradedComplexF2,
    SpectralPages,
    homology_ranks,
    mapping_cone,
    spectral_pages,
    total_complex,
)
from .diagram import (
    ArcMarking,
    Diagram,
    PlanarMap,
    ResolvedState,
    canonical_key,
    parse_pd,
    planar_map,
    resolve,
    simplify_greedy,
    smooth_crossing,
)
from .khovanov import (
    CubeComplex,
    EdgeShape,
    TwistedComplex,
    build_cube,
    edge_map,
    grading_tables,
    hd_even_subcomplex,
    kh_complex,
    kh_ranks,
    khr_complex,
    khr_ranks,
    state_sum_det,
    twisted_complex,
    twisted_total_ranks,
    weight_ss,
)
from .linalg import (
    AbelianGroup,
    MatF2,
    cokernel_group,
    det_bareiss,
    f2_kernel_basis,
    f2_rank,
    smith_normal_form,
)
from .surgery import (
    FramedLinkPresentation,
    LSpaceVerdict,
    PlumbingGraph,
    large_surgery_family,
    plumbing_linking_matrix,
    plumbing_lspace_check,
    surgered_h1,
    triad_additivity_check,
)

__version__ = "0.1.0"
