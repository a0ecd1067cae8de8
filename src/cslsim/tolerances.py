"""Global tolerance ladder.

The three rungs are the shared tolerances of the three kinds of
deterministic statements the code makes:

* construction-time identities (hermiticity, normalization): ``CONSTRUCTION``
* algebraic identities between exactly representable objects: ``ALGEBRA``
* deterministic quadrature / integration results: ``QUADRATURE``; the
  energy ledger reads it only through ``ledger.balance_tolerance``, one
  budget for both its balance and its quadrature's error at every sample

A tolerance that is the contract of one module lives there, next to its
check: ``ensemble.ESS_FLOOR`` (weighted statistics),
``ensemble.DENSE_HALVING_TOL`` and ``ensemble.GRID_HALVING_TOL`` (the
deterministic integrators' accuracy), ``postulate.ORTHO_TOL``
(orthogonality of constructed pairs) and ``hilbert.DEGENERACY_RTOL``
(grouping of outcome eigenvalues).  Monte Carlo checks state their bands
in standard errors where they are made.

``SEAM_MASS`` and ``SEAM_MARGIN`` are not rungs but the seam diagnosis:
``SEAM_MASS`` bounds the probability within ``SEAM_MARGIN`` points of
the periodic grid's wrap-around edge.  The grid split-step refuses a run
whose finer run measured more than that bound, before it reads its
halving comparison; the closed-form grid channels refuse a run whose
estimated seam mass exceeds it.
"""

CONSTRUCTION = 1e-12
ALGEBRA = 1e-10
QUADRATURE = 1e-6
SEAM_MASS = 1e-4
SEAM_MARGIN = 10
