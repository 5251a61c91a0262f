"""Desk-scale workbench for extremal hypergraph computations."""

__version__ = "0.1.0"

from .rgraph import (  # noqa: F401
    RGraph,
    VertexPartition,
    blowup,
    class_energy,
    delete_vertices,
    equivalence_classes,
    induced,
    is_design_system,
    is_symmetrized,
    is_two_covered,
    link,
    shadow,
)
