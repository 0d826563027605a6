"""atlab: analytic-torsion lab.

Zeta-regularized determinants of flat-torus Laplacians, genus-1 Arakelov
invariants, effective upper bounds on log det for genus g > 1, and an audit
that recomputes every numeric claim of the source document it implements.
"""

__version__ = "0.1.0"
