"""The package's immutable records: tuples of named fields.

`BernsteinIndex`, `PadicContext`, `IdentityReport`, `IdentitySpec`, the
option table's `_Option` and `_Command` and the parser's `_Bounds` are
`collections.namedtuple` subclasses with no instance dict.  Each refuses
bad input when it is built, by its constructor or by `_replace`, refuses
attribute assignment and compares (and, where every field is hashable,
hashes) by value."""

import pytest

from qgenocchi.bernstein import BernsteinIndex
from qgenocchi.cli import COMMANDS, IdentitySpec, _Command, _Option
from qgenocchi.errors import DomainError
from qgenocchi.exactq import _Bounds
from qgenocchi.identities import CORRECTED_PASS, FAIL, PASS, IdentityReport, verify_complement
from qgenocchi.padic import PadicContext

# each record type with the fields of one valid value and, for the checked
# types, changes to it that must be refused, with the error
RECORDS = [
    (BernsteinIndex, (2, 5), [({"k": 6}, IndexError), ({"k": -1}, IndexError),
                              ({"n": -1}, IndexError)]),
    (PadicContext, (5, 12), [({"p": 4}, DomainError), ({"p": 2}, DomainError),
                             ({"precision": 0}, DomainError)]),
    (IdentityReport, ("THM1", {"n": 3}, PASS), [
        ({"identity_id": "THM9"}, ValueError),
        ({"verdict": "MAYBE"}, ValueError),
        ({"verdict": FAIL}, ValueError),  # no witness
        ({"verdict": CORRECTED_PASS, "witness": ("a", "b")}, ValueError),  # no corrected_form
    ]),
    (IdentitySpec, ("THM2_EQ10", 20, verify_complement), []),
    (_Option, ("--nmax", "n_max", int), []),
    (_Command, (COMMANDS["table"].run, "help", (), ("text",)), []),
    (_Bounds, (1, 2, 0, 3.0, 0.0), []),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("kind, fields, bad", RECORDS, ids=IDS)
def test_bad_input_is_refused_when_built(kind, fields, bad):
    good = kind(*fields)
    with pytest.raises(TypeError):
        kind()
    for change, error in bad:
        with pytest.raises(error):
            kind(**{**good._asdict(), **change})
        with pytest.raises(error):
            good._replace(**change)


@pytest.mark.parametrize("kind, fields, bad", RECORDS, ids=IDS)
def test_assignment_is_refused(kind, fields, bad):
    record = kind(*fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], fields[0])
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("kind, fields, bad", RECORDS, ids=IDS)
def test_equal_values_compare_and_hash_equal(kind, fields, bad):
    a, b = kind(*fields), kind(*fields)
    assert a == b and a is not b and isinstance(a, tuple)
    assert a._replace(**{a._fields[1]: fields[1]}) == a
    if kind is IdentityReport:
        # `params` is a dict, so a report has no hash, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_defaults_are_the_documented_ones():
    report = IdentityReport("THM1", {}, PASS)
    assert (report.corrected_form, report.witness, report.probes, report.is_probe) == \
        (None, None, (), False)
    spec = IdentitySpec("THM1", 20, verify_complement)
    assert (spec.nmax_min, spec.nmax_max, spec.sides, spec.expect_pass) == \
        (0, float("inf"), None, True)
    option = _Option("--k", "k", int)
    assert (option.default, option.help, option.metavar, option.choices) == (None,) * 4
    assert _Bounds(1, 0, 0, 0.0, 0.0)[5:] == (None, None)
