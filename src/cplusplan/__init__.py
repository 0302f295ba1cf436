"""cplusplan: a planner for action descriptions in the definite fragment of C+.

The pipeline runs in four stages: parse a CCalc-style description, ground
its causal laws, translate the result into a Boolean rule program that
grows step by step with the horizon, and enumerate the program's stable
models, which correspond one to one with the plans.  The horizon search
starts at the query's lower step bound and stops at the first horizon
with models.

The usual flow through the public names below:

    desc = parse_files(["my-domain"])
    gls = ground_description(desc)
    result = solve_incremental(incremental_program(gls, gls.queries["go"]),
                               SolveConfig(max_solutions=0))
    for model in result.models:
        print(render_plan_view(to_plan_view(model, gls, result.found_step, "go"),
                               hide_false=True))
"""

from .ground import GroundLawSet, ground_description
from .parser import parse_files, parse_text
from .plans import render_plan_view, to_plan_view
from .solve import SolveConfig, solve_incremental
from .translate import incremental_program, to_prop

__version__ = "0.1.0"

__all__ = [
    "GroundLawSet",
    "SolveConfig",
    "ground_description",
    "incremental_program",
    "parse_files",
    "parse_text",
    "render_plan_view",
    "solve_incremental",
    "to_plan_view",
    "to_prop",
    "__version__",
]
