"""Unfolded sparse-coding networks with learned linear group actions on filters.

The package re-exports nothing: import each name from the module that
defines it (`from orbitnet.network import UnfoldedNetwork`). Importing the
package, or `orbitnet.cli`, loads no numpy, so `--threads` can set the
BLAS thread variables before numpy starts its thread pool.
"""
