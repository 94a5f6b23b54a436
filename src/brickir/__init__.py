"""brickir: graph-backed parametrization of LDraw brick structures.

Parse LDraw assemblies into typed connectivity graphs, serialize spanning
trees as executable build-sequence programs, run those programs back to
6-DoF poses, and validate connectivity and collisions.
"""

from .catalog import Catalog, PartDef, TriMesh
from .connectors import AnnotatedConnector, ConnectorFamily, DofSpec, dof_spec
from .geometry import ConnectorFrame, QuantizedParams, RigidTransform, compose, relative
from .graph import (
    BuildPath,
    ConnEdge,
    ConnectivityGraph,
    MatchTolerances,
    match_connectors,
    sample_corpus_paths,
    sample_path,
)
from .ldraw import PartInstance, parse_structure, scan_primitives
from .program import (
    BuildProgram,
    ValidityReport,
    execute,
    parse_program,
    serialize,
    validate_prefix,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedConnector",
    "BuildPath",
    "BuildProgram",
    "Catalog",
    "ConnEdge",
    "ConnectivityGraph",
    "ConnectorFamily",
    "ConnectorFrame",
    "DofSpec",
    "MatchTolerances",
    "PartDef",
    "PartInstance",
    "QuantizedParams",
    "RigidTransform",
    "TriMesh",
    "compose",
    "dof_spec",
    "execute",
    "match_connectors",
    "parse_program",
    "parse_structure",
    "relative",
    "sample_corpus_paths",
    "sample_path",
    "scan_primitives",
    "serialize",
    "validate_prefix",
]
