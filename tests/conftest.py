"""Test-suite configuration: property tests draw the same examples on every
machine and run, and are never failed for being slow.  ``factor_branches``
is the one spy on the regression factor's branches, and ``filled_blocks``
the one spy on the blocks a model's design fills."""

from contextlib import contextmanager
from typing import NamedTuple

import pytest
from hypothesis import settings

from sparsedyn import optimize
from sparsedyn.model import _Design

settings.register_profile("sparsedyn", derandomize=True, deadline=None)
settings.load_profile("sparsedyn")


@contextmanager
def _factor_branches(nbytes=None):
    """The factor branches taken inside, in order: "factor" for every
    ``_Rows._factor`` call, then "qr" where the pivot test refuses the
    Cholesky factor and the rows are factored by TSQR.  With ``nbytes``, run
    with ``BLOCK_BYTES = nbytes``."""
    branches = []
    factor, cholesky = optimize._Rows._factor, optimize._cholesky

    def spy_factor(self, gram):
        branches.append("factor")
        return factor(self, gram)

    def spy_cholesky(gram, n_features):
        R = cholesky(gram, n_features)
        if R is None:
            branches.append("qr")
        return R

    with pytest.MonkeyPatch.context() as mp:
        if nbytes is not None:
            mp.setattr(optimize, "BLOCK_BYTES", nbytes)
        mp.setattr(optimize._Rows, "_factor", spy_factor)
        mp.setattr(optimize, "_cholesky", spy_cholesky)
        yield branches


@pytest.fixture(scope="session")  # a @given test refuses function-scoped fixtures
def factor_branches():
    """``with factor_branches(nbytes=None) as branches``: see ``_factor_branches``."""
    return _factor_branches


class Filled(NamedTuple):
    """A block a design filled: its rows as the (start, stop) of the slice
    asked for, and its layout, "F" where column-major, else "C" (a block of
    one row or column is both: "F")."""

    rows: tuple
    layout: str


@contextmanager
def _filled_blocks():
    """Every block ``_Design.fill`` fills inside, in order, as ``Filled``;
    the spy passes on whatever arguments the fill takes."""
    blocks = []
    fill = _Design.fill

    def spy(self, at, *args, **kwargs):
        block = fill(self, at, *args, **kwargs)
        blocks.append(Filled((at.start, at.stop), "F" if block.flags.f_contiguous else "C"))
        return block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Design, "fill", spy)
        yield blocks


@pytest.fixture(scope="session")
def filled_blocks():
    """``with filled_blocks() as blocks``: see ``_filled_blocks``."""
    return _filled_blocks
