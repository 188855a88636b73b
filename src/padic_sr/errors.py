"""Exception types shared across the package.

Every error that callers are expected to branch on gets its own class; all of
them derive from ArtifactError so the CLI can map any domain failure to a
nonzero exit code in one place.
"""


class ArtifactError(Exception):
    """Base class for all domain errors raised by this package."""


# -- tower -------------------------------------------------------------------

class IrreducibilityUnverified(ArtifactError):
    """A tower step is, or may be, reducible over the p-adic completion.

    The p-adic valuation of elements of such a tower would be ambiguous, so
    construction refuses.
    """


class ZeroRadicand(ArtifactError):
    pass


class ZeroElement(ArtifactError):
    """Valuation of 0 requested; v(0) = +infinity and callers must branch."""


# -- series ------------------------------------------------------------------

class CenterOnBranchLocus(ArtifactError):
    """Disk center collides with a branch point (0, 1 or infinity)."""


class PrecisionExhausted(ArtifactError):
    """The tail bound cannot certify the coefficients past the expansion:
    a premise of the per-term bound fails on the disk, the tail slope is not
    positive, or the bound at some l does not clear the threshold."""


# -- ramification ------------------------------------------------------------

class MalformedFiltration(ArtifactError):
    pass


class EmptyList(ArtifactError):
    pass


class SearchInconclusive(ArtifactError):
    """The unit-filtration search could not settle an exact conductor.

    Operations that can fall back to a bound catch this internally and never
    surface a wrong exact value.
    """


# -- graph -------------------------------------------------------------------

class MissingSigma(ArtifactError):
    pass


class MissingSigmaEff(ArtifactError):
    pass


class EdgeNotOutward(ArtifactError):
    pass


class NegativeDifferent(ArtifactError):
    pass


# -- analyzer ----------------------------------------------------------------

class Disconnected(ArtifactError):
    """Fewer than two of a, b, a+b are prime to p: the cover is disconnected."""


class NotThreePoint(ArtifactError):
    """A branching index equals 1; the cover is not branched at three points."""


class CertificationFailed(ArtifactError):
    """A valuation fact quoted by a proof does not hold for this input."""


# -- metacyclic --------------------------------------------------------------

class NoSolution(ArtifactError):
    pass


class NotFaithful(ArtifactError):
    pass
