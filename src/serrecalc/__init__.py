"""Exact combinatorics of Serre-weight families.

Weight-profile enumeration, the attached monomial ideals and their exact
(bi)graded Hilbert series, Tor/Ext dimension oracles via simplicial homology
and Taylor complexes, rank checks in the truncated PBW algebra, and the
closed-form verifiers tying them together.  The library API is the
submodules (``serrecalc.weights``, ``serrecalc.ideals``, ...); importing the
package loads none of them.
"""

__version__ = "0.1.0"
