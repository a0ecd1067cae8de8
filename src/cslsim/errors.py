"""Exception types raised by the numerical core."""


class NonHermitianError(ValueError):
    """A matrix fails the hermiticity check.

    Carries the measured asymmetry so callers can report how far off the
    input was, not just that it was rejected.
    """

    def __init__(self, asymmetry, tolerance):
        self.asymmetry = asymmetry
        self.tolerance = tolerance
        super().__init__(
            f"matrix is not Hermitian: max |M - M^dag| = {asymmetry:.3e} "
            f"exceeds tolerance {tolerance:.3e}"
        )


class ZeroNormError(ValueError):
    """An operation that requires a normalizable state got a zero-norm one."""


class ConfigError(ValueError):
    """A run configuration failed validation.

    ``field`` holds the dotted path of the offending entry.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class NumericalFailure(RuntimeError):
    """A computation could not reach its accuracy or stability contract."""


class LowEffectiveSampleError(NumericalFailure):
    """Importance weights too degenerate to report headline statistics.

    Raw-mode weights are heavy tailed; when the effective sample size
    (sum w)^2 / sum w^2 drops below the floor, weighted frequencies are
    dominated by a handful of paths and the run refuses to report them.
    """

    def __init__(self, ess, floor, n):
        self.ess = ess
        self.floor = floor
        self.n = n
        super().__init__(
            f"effective sample size {ess:.2f} of {n} raw trajectories is "
            f"below the floor {floor}; weighted statistics would be "
            f"dominated by a few paths"
        )
