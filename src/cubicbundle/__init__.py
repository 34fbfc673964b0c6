"""Desk-scale toolkit for rational points on the Fermat cubic surface bundle.

Exact enumeration of points of bounded anticanonical height, membership in
the thin exceptional set, Picard ranks of diagonal cubic surface fibers by
two independent methods, and the divisor-class intersection calculus behind
the expected growth exponents.  Each name is imported from its module, such
as ``cubicbundle.enumeration`` or ``cubicbundle.intersection``; importing the
package loads none of them.
"""

__version__ = "0.1.0"
