"""`solve_horizons` with each horizon's models listed, for the tests that
compare whole model lists.  The driver itself yields each horizon's
models as an iterator that the search fills as it is read."""

from cplusplan.solve import solve_horizons


def listed_horizons(inc, config, stats):
    """Yields (k, the list of horizon k's models) over the query's range."""
    for k, models in solve_horizons(inc, config, stats):
        yield k, list(models)
