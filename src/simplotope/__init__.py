"""Exact lower bounds and triangulation verification for products of simplices.

The package re-exports nothing: each command imports only the modules it
needs (see `simplotope.cli`), so import names from their modules, e.g.
`from simplotope.lptable import bounds_table`.
"""

__version__ = "0.1.0"
