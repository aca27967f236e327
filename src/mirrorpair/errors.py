"""Exception types shared across the package."""


class MirrorPairError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(MirrorPairError, ValueError):
    """A value is out of range: an argument, or a config value that parsed."""


class ConfigError(MirrorPairError, ValueError):
    """Faulty config text: not UTF-8, bad syntax, unknown or clashing keys."""


class DriftUnstableError(MirrorPairError, RuntimeError):
    """The drift matrix has eigenvalues with non-negative real part."""

    def __init__(self, eigenvalues):
        self.eigenvalues = eigenvalues
        offending = [complex(z) for z in eigenvalues if z.real >= 0]
        super().__init__(
            "drift matrix is unstable; offending eigenvalues: %s" % (offending,)
        )


class SingularityError(MirrorPairError, RuntimeError):
    """A frequency-domain solve hit a singular shifted drift matrix."""


class DegenerateCommutatorError(MirrorPairError, RuntimeError):
    """The commutator denominator vanished.

    The commutator is proportional to omega, so a grid that holds
    omega = 0 raises this: E(0) is undefined.  At any other omega it
    indicates a convention bug.
    """


class UnphysicalStateError(MirrorPairError, ValueError):
    """A covariance matrix violates the uncertainty-principle constraint."""

    def __init__(self, margin, message=None):
        self.margin = margin
        super().__init__(
            message or "covariance matrix is unphysical (margin %.3e)" % margin
        )
