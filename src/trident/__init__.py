"""trident: exact triangle/clique counting on degree-bounded graphs,
extremal bounds, peeling certificates, and exhaustive verification."""

from .bounds import (
    BoundParams,
    binomial,
    complement_identity_check,
    gls_bound,
    merge_bound,
    shift_inequality_check,
)
from .certify import (
    PeelCertificate,
    PeelStep,
    VerifyResult,
    peel,
    select_vertex,
    verify_certificate,
)
from .counting import (
    CountsReport,
    count_cliques,
    count_triangles,
    count_w,
    full_report,
    meeting_counts,
    triangles_meeting,
)
from .enumerator import (
    EnumerationReport,
    build_extremal,
    canonical_form,
    enumerate_and_verify,
    random_bounded_graph,
)
from .formats import (
    graph_hash,
    load_graph,
    read_edge_list,
    read_graph6,
    save_graph,
    write_edge_list,
    write_graph6,
)
from .graph import (
    Graph,
    build_graph,
    closed_neighborhood,
    complement,
    delete_vertices,
    max_degree,
)

__version__ = "0.1.0"

__all__ = [
    "BoundParams",
    "CountsReport",
    "EnumerationReport",
    "Graph",
    "PeelCertificate",
    "PeelStep",
    "VerifyResult",
    "binomial",
    "build_extremal",
    "build_graph",
    "canonical_form",
    "closed_neighborhood",
    "complement",
    "complement_identity_check",
    "count_cliques",
    "count_triangles",
    "count_w",
    "delete_vertices",
    "enumerate_and_verify",
    "full_report",
    "gls_bound",
    "graph_hash",
    "load_graph",
    "max_degree",
    "meeting_counts",
    "merge_bound",
    "peel",
    "random_bounded_graph",
    "read_edge_list",
    "read_graph6",
    "save_graph",
    "select_vertex",
    "shift_inequality_check",
    "triangles_meeting",
    "verify_certificate",
    "write_edge_list",
    "write_graph6",
]
