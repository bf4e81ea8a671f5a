"""Reference V oracle: the largest class by exhaustive enumeration.

Every (d+1)-subset of the simplotope's vertices from `itertools.combinations`,
each with its own exact determinant, and no symmetry or pruning.  It is kept
only for the tests to compare the brute-force search against.
"""

import itertools

from simplotope.core import SimplotopeSpec
from simplotope.exact import det


def v_by_enumeration(s, t):
    spec = SimplotopeSpec.seg_tri(s, t)
    verts = spec.vertices()
    rows = [(1,) + v.reduced(verts[0]) for v in verts]
    return max(abs(det(sub)) for sub in itertools.combinations(rows, spec.dim + 1))
