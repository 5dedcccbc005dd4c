"""Shape conventions and the shape error shared by the whole package.

A matrix here is a 2-D float64 ``numpy.ndarray``; samples are stored as
columns everywhere in the package, and intercepts are (n x 1) columns that
broadcast across the batch. The block arithmetic is plain numpy, which
already rejects nonconforming operands; this module only names the error
the package raises when its own inputs do not conform.
"""


class ShapeError(ValueError):
    """Operand dimensions do not conform."""
