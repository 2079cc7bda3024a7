"""psilab: a numerical laboratory for hidden-variable no-go arguments.

Modules (import each one by name; `import psilab` loads none of them):
    qcore     -- qubit states, product-state measurement bases, Born rule
    ontology  -- finite hidden-variable models and model-to-Born prediction
    simplex   -- phase-1 feasibility via HiGHS, answer returned unjudged
    nogo      -- zero constraints, analytic and LP contradiction engines (its
                 lp_feasibility judges each LP in numpy), contextual escapes
    bohm      -- 1-D spinor wave-packet simulator with quantile-map trajectories
    svgplot   -- dependency-free SVG line plots
    cli       -- scenario runner (console script: psilab); only bohm-sg,
                 bohm-bs and selftest import bohm (and scipy.linalg), and
                 only the first two svgplot
"""

__version__ = "0.1.0"
