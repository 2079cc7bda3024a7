"""psilab: a numerical laboratory for hidden-variable no-go arguments.

Modules (import each one by name; `import psilab` loads none of them):
    qcore     -- qubit states, product-state measurement bases, Born rule
    ontology  -- finite hidden-variable models and model-to-Born prediction
    simplex   -- phase-1 feasibility via HiGHS, verdicts checked in numpy
    nogo      -- zero-constraint extraction, analytic and LP contradiction
                 engines, and the contextual escape constructions
    bohm      -- 1-D spinor wave-packet simulator with quantile-map trajectories
    svgplot   -- dependency-free SVG line plots
    cli       -- scenario runner (console script: psilab)
"""

__version__ = "0.1.0"
