"""Library and CLI for the eight formula-assignment game rulesets.

Two players alternately write Boolean values into indexed variables of a
formula.  Three binary rule toggles (play location, value choice, and goal)
generate eight rulesets; this package provides the position engine, exact
solvers (`solve` decides all eight, the two choice-free rulesets by walking
their one forced line), and executable reductions from four classic source
games with empirical winner-preservation checks.

Import from the submodules: `formula`, `cnf`, `engine`, `solver`,
`reductions`, `generators` and `cli`.
"""

__version__ = "0.1.0"
