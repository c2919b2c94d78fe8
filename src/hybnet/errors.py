"""Exception hierarchy shared by all hybnet modules."""


class HybnetError(Exception):
    """Base class for every error raised by this package."""


class NewickSyntaxError(HybnetError):
    """Malformed Newick text."""


class NonBinaryError(HybnetError):
    """A node with more than two children was encountered."""


class DuplicateLabel(HybnetError):
    """A leaf label occurs more than once (or collides with the root label)."""


class UnknownLabel(HybnetError):
    """A label was requested that the tree does not carry."""


class LabelMismatch(HybnetError):
    """Input trees do not share the same taxon set."""


class MissingSubstitution(HybnetError):
    """A synthetic label has no entry in the taxon map."""


class TooManyReticulations(HybnetError):
    """Display check refused: 2^k switchings over the enumeration guard."""


class UnsupportedFormat(HybnetError):
    """Unknown output format name."""


class InvalidCNET(HybnetError):
    """The coloured DAG violates a structural CNET condition."""


class InternalInconsistency(HybnetError):
    """Bug guard: an accepted reconstruction failed its own validation."""


class InputError(HybnetError):
    """Bad user input to the driver or CLI."""


class BudgetExceeded(HybnetError):
    """solve hit its time limit, or an oracle was asked to run outside its
    intended tiny-instance range."""


class NoSolutionWithin(HybnetError):
    """No hybridization network exists within the given budget."""

    def __init__(self, max_k):
        super().__init__(f"no solution with hybridization number <= {max_k}")
        self.max_k = max_k
