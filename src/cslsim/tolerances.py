"""Global tolerance ladder.

Every numerical check in the package draws its tolerance from this ladder
instead of inventing a local constant.  The three rungs correspond to the
three kinds of deterministic statements the code makes (Monte Carlo
checks state their bands in standard errors where they are made):

* construction-time identities (hermiticity, normalization): ``CONSTRUCTION``
* algebraic identities between exactly representable objects: ``ALGEBRA``
* deterministic quadrature / integration results: ``QUADRATURE``

``SEAM_MASS`` is not a rung but a diagnosis threshold: the probability
within ``seam_margin`` points of the periodic grid's wrap-around edge
above which a failed grid halving check is blamed on the seam rather
than on the step.
"""

CONSTRUCTION = 1e-12
ALGEBRA = 1e-10
QUADRATURE = 1e-6
SEAM_MASS = 1e-4
