"""Exact computation in the annular Hecke-type algebra: normal forms,
the positive-power trace, the induced link invariant for the solid torus,
and the band-move equation systems for its lens-space quotients.

Importing the package loads none of its modules; import the one a job
needs: `heckeb.words`, `heckeb.algebra`, `heckeb.trace`, `heckeb.lens`,
`heckeb.verify` or `heckeb.cli`."""

__version__ = "0.1.0"

# The polynomial implementation behind every result; benchmark runs
# record it so that results from different implementations are not mixed.
BACKEND = "python"
