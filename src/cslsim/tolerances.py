"""Global tolerance ladder.

Every numerical check in the package draws its tolerance from this ladder
instead of inventing a local constant.  The three rungs correspond to the
three kinds of deterministic statements the code makes (Monte Carlo
checks state their bands in standard errors where they are made):

* construction-time identities (hermiticity, normalization): ``CONSTRUCTION``
* algebraic identities between exactly representable objects: ``ALGEBRA``
* deterministic quadrature / integration results: ``QUADRATURE``
"""

CONSTRUCTION = 1e-12
ALGEBRA = 1e-10
QUADRATURE = 1e-6
