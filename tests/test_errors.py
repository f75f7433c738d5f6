import pickle

import pytest

from varlex import errors

# One instance of every error type, built with every argument set.
EXAMPLES = [
    errors.VarlexError("plain message"),
    errors.ParseFailure("p.V600", 6, "no mutant residue"),
    errors.UnknownResidue("Xaa"),
    errors.FileUnreadable("/missing/kb.tsv", "no such file"),
    errors.MalformedRow(12, "gene", "empty"),
    errors.DuplicateKey(40, ("BRAF", "c.1799T>A"), "rs1", "rs2"),
    errors.MalformedLine(7, "annotation has 4 columns"),
    errors.OffsetMismatch("123", 4, 9, "V600E", "V600K"),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_examples_cover_every_error_type():
    assert {type(e) for e in EXAMPLES} == (
        {errors.VarlexError, *_subclasses(errors.VarlexError)}
    )


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("error", EXAMPLES, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(error, protocol):
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
