"""psilab: a numerical laboratory for hidden-variable no-go arguments.

Modules:
    qcore     -- qubit states, product-state measurement bases, Born rule
    ontology  -- finite hidden-variable models and model-to-Born prediction
    simplex   -- phase-1 feasibility via HiGHS, verdicts checked in numpy
    nogo      -- zero-constraint extraction, analytic and LP contradiction
                 engines, and the contextual escape constructions
    bohm      -- 1-D spinor wave-packet simulator with quantile-map trajectories
    svgplot   -- dependency-free SVG line plots
    cli       -- scenario runner (console script: psilab; imported on
                 demand so `python -m psilab.cli` runs it only once)
"""

from . import bohm, nogo, ontology, qcore, simplex, svgplot
from .nogo import (
    ContradictionCertificate,
    NoContradiction,
    analytic_contradiction,
    construct_disjoint_model,
    contextual_escape,
    determinism_check,
    lp_feasibility,
    pbr_scene_problem,
    zero_constraints,
)
from .ontology import LambdaSpace, OntModel, PreparationDensity, PsiClass, classify
from .qcore import (
    MeasurementBasis,
    QState,
    born,
    coefficient_table,
    make_qubit_pair,
    pbr_basis_2qubit,
    pbr_basis_n,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "bohm", "cli", "nogo", "ontology", "qcore", "simplex", "svgplot",
    "QState", "MeasurementBasis", "born", "tensor", "make_qubit_pair",
    "pbr_basis_2qubit", "pbr_basis_n", "coefficient_table",
    "LambdaSpace", "PreparationDensity", "OntModel", "PsiClass", "classify",
    "zero_constraints", "analytic_contradiction", "lp_feasibility",
    "pbr_scene_problem", "construct_disjoint_model", "contextual_escape",
    "determinism_check", "ContradictionCertificate", "NoContradiction",
]
