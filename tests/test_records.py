"""Every record of the package is a named tuple: its repr, its immutability,
and, for a record with checks, the checks on every way of building one.

The reprs are the ones the records printed as frozen dataclasses, so a
report or an error message that echoes one reads as before.
"""

from __future__ import annotations

import pickle

import pytest

from crown.baselines import BaselineTable, FieldYearCell
from crown.cli import Report
from crown.corpus import (
    CitationWindow,
    Corpus,
    CorpusError,
    GroupSelection,
    Journal,
    Paper,
    build_corpus,
)
from crown.diagnostics import (
    Counterexample,
    PaperSensitivity,
    RankSumResult,
    SearchBounds,
    SensitivityReport,
)
from crown.indicators import IndicatorReport, ScoredPaper
from crown.synth import FieldSpec, SynthConfig, Written

CELL = FieldYearCell("a", 2005, (3, 1, 2))
REPORT = IndicatorReport("g", 2, 1, 1.0, 1.5, 1.25, 0.5, 0.75, "harmonic", "years5", 1.0,
                         (("p2", "zero baseline"),))
SENSITIVITY = PaperSensitivity("p1", 1.0, None, 50.0, 75.0, 0.0)
FIELD = FieldSpec("math", 6.0, 50)
CORPUS = build_corpus(
    [Paper("p0", 2004, "j"), Paper("p1", 2005, "j", ("p0",))],
    [Journal("j", "J", ("a", "b"))],
    CitationWindow.fixed_years(5),
)

_REPORT_REPR = (
    "IndicatorReport(group='g', n_total=2, n_scorable=1, cpp_fcsm=1.0, mncs=1.5, "
    "mdncs=1.25, pp_top=0.5, mean_fractional=0.75, weighting='harmonic', "
    "window='years5', top_x=1.0, unscorable=(('p2', 'zero baseline'),))"
)
_SENSITIVITY_REPR = (
    "PaperSensitivity(paper_id='p1', ncs_a=1.0, ncs_b=None, percentile_a=50.0, "
    "percentile_b=75.0, fractional_delta=0.0)"
)
_CELL_REPR = "FieldYearCell(category='a', year=2005, sorted_citations=(1, 2, 3))"
_FIELD_REPR = "FieldSpec(name='math', mean_references=6.0, papers_per_year=50)"

REPRS = {
    "Journal": (
        Journal("j", "J", ("a", "b")),
        "Journal(id='j', title='J', categories=('a', 'b'))",
    ),
    "CitationWindow": (CitationWindow.fixed_years(5), "CitationWindow(years=5)"),
    "CitationWindow all": (CitationWindow.all(), "CitationWindow(years=None)"),
    "Corpus": (
        CORPUS,
        "Corpus(papers={'p0': Paper(id='p0', year=2004, journal_id='j', references=(), "
        "raw_citation_count=None), 'p1': Paper(id='p1', year=2005, journal_id='j', "
        "references=('p0',), raw_citation_count=None)}, journals={'j': Journal(id='j', "
        "title='J', categories=('a', 'b'))}, citation_counts=(1, 0), n_external=0, "
        "window=CitationWindow(years=5))",
    ),
    "GroupSelection": (
        GroupSelection("g", ("p1",)), "GroupSelection(name='g', paper_ids=('p1',))"
    ),
    "FieldYearCell": (CELL, _CELL_REPR),
    "BaselineTable": (
        BaselineTable({("a", 2005): CELL}), f"BaselineTable(cells={{('a', 2005): {_CELL_REPR}}})"
    ),
    "IndicatorReport": (REPORT, _REPORT_REPR),
    "Report": (
        Report("score", (("papers", "x"),), ("a", "b"), [(1, 2)], ["n"], {"k": 1}),
        "Report(command='score', settings=(('papers', 'x'),), columns=('a', 'b'), "
        "rows=[(1, 2)], notes=['n'], body={'k': 1})",
    ),
    "Report defaults": (
        Report("synth", (("seed", "0"),)),
        "Report(command='synth', settings=(('seed', '0'),), columns=(), rows=(), "
        "notes=(), body={})",
    ),
    "SearchBounds": (
        SearchBounds(2, 4, 4),
        "SearchBounds(max_group_size=2, max_citations=4, max_expected=4)",
    ),
    "Counterexample": (
        Counterexample("cpp_fcsm", ((0, 1),), ((1, 2),), (0, 2), 0.0, 0.5, 0.0, 1 / 3),
        "Counterexample(indicator='cpp_fcsm', group_a=((0, 1),), group_b=((1, 2),), "
        "added_paper=(0, 2), before_a=0.0, before_b=0.5, after_a=0.0, "
        "after_b=0.3333333333333333)",
    ),
    "PaperSensitivity": (SENSITIVITY, _SENSITIVITY_REPR),
    "SensitivityReport": (
        SensitivityReport("g", "harmonic", (SENSITIVITY,), REPORT, REPORT),
        f"SensitivityReport(group='g', weighting='harmonic', papers=({_SENSITIVITY_REPR},), "
        f"report_a={_REPORT_REPR}, report_b={_REPORT_REPR})",
    ),
    "RankSumResult": (
        RankSumResult(3.0, 0.5, 0.6, 2, 3),
        "RankSumResult(u_statistic=3.0, z=0.5, p_two_sided=0.6, n_a=2, n_b=3, "
        "degenerate=False)",
    ),
    "FieldSpec": (FIELD, _FIELD_REPR),
    "SynthConfig": (
        SynthConfig((FIELD,), (2000, 2001), 0.1, 1.0, 0.0, 42),
        f"SynthConfig(fields=({_FIELD_REPR},), years=(2000, 2001), cross_field_fraction=0.1, "
        "multi_category_journal_fraction=1.0, skew_fraction=0.0, seed=42)",
    ),
    "Written": (Written("00", 2), "Written(sha256='00', papers=2)"),
}


@pytest.mark.parametrize("name", REPRS)
def test_record_keeps_its_repr_and_is_immutable(name) -> None:
    record, text = REPRS[name]
    assert repr(record) == text
    assert isinstance(record, tuple)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert repr(record) == text


def test_no_record_has_an_instance_dict() -> None:
    records = [record for record, _ in REPRS.values()] + [
        Paper("p1", 2005, "j", ("p0",)),
        ScoredPaper("p1", 3, 2.0, 1.5, 50.0, 1.0, True),
    ]
    assert Corpus in map(type, records)
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
    # so a cell's mean is read, not kept, and no attribute can be added
    for record in (CELL, CORPUS):
        with pytest.raises(AttributeError):
            record.extra = 1
    assert CELL.mean_citations == 2.0


# Each checked record: valid fields, then flawed fields with the error the
# checks raise for them.
CHECKED = {
    "Paper": (Paper, ("p1", 2005, "j", ("p0",)), ("p1", 2005, "j", ("p1",)),
              CorpusError, "^paper 'p1' references itself$"),
    "Journal": (Journal, ("j", "J", ("a",)), ("j", "J", ("a", "a")),
                CorpusError, "^journal 'j' repeats a category$"),
    "Journal categories": (Journal, ("j", "J", ("math",)), ("j", "J", "math"),
                           CorpusError, "^journal 'j': categories must be a tuple$"),
    "Journal id": (Journal, ("j", "J", ("a",)), (7, "J", ("a",)),
                   CorpusError, "^journal id must be a string, got 7$"),
    "Journal title": (Journal, ("j", "J", ("a",)), ("j", None, ("a",)),
                      CorpusError, "^journal 'j': title must be a string$"),
    # not a raw TypeError from the echo check
    "Journal category": (Journal, ("j", "J", ("a",)), ("j", "J", (5,)),
                         CorpusError, "^journal 'j': categories must be strings$"),
    "CitationWindow": (CitationWindow, (5,), (0,),
                       ValueError, "^fixed-years window requires n >= 1$"),
    "CitationWindow bool": (CitationWindow, (1,), (True,), ValueError,
                            "^fixed-years window requires an integer n, got True$"),
    "CitationWindow float": (CitationWindow, (5,), (2.5,), ValueError,
                             r"^fixed-years window requires an integer n, got 2\.5$"),
    "CitationWindow str": (CitationWindow, (5,), ("3",), ValueError,
                           "^fixed-years window requires an integer n, got '3'$"),
    # a window given as its CLI spelling; then a count column one entry
    # short, a negative count, a count that is a bool, and a bad n_external
    "Corpus window": (Corpus, tuple(CORPUS), (*CORPUS[:4], "all"),
                      ValueError, "^window must be a CitationWindow, got 'all'$"),
    "Corpus counts": (Corpus, tuple(CORPUS), (*CORPUS[:2], (1,), *CORPUS[3:]), ValueError,
                      r"^citation counts must be a tuple of 2 non-negative ints$"),
    "Corpus negative count": (Corpus, tuple(CORPUS), (*CORPUS[:2], (1, -1), *CORPUS[3:]),
                              ValueError, r"^citation counts must be a tuple of 2 "),
    "Corpus bool count": (Corpus, tuple(CORPUS), (*CORPUS[:2], (True, 0), *CORPUS[3:]),
                          ValueError, r"^citation counts must be a tuple of 2 "),
    "Corpus column list": (Corpus, tuple(CORPUS), (*CORPUS[:2], [1, 0], *CORPUS[3:]),
                           ValueError, r"^citation counts must be a tuple of 2 "),
    "Corpus n_external": (Corpus, tuple(CORPUS), (*CORPUS[:3], -1, CORPUS.window),
                          ValueError, "^n_external must be a non-negative int, got -1$"),
    "FieldYearCell": (FieldYearCell, ("a", 2005, (3, 1, 2)), ("a", 2005, ()),
                      ValueError, r"^empty cell \('a', 2005\)$"),
    # an iterator is truthy however many counts it yields
    "FieldYearCell iterator": (FieldYearCell, ("a", 2005, (3, 1, 2)), ("a", 2005, iter(())),
                               ValueError, r"^empty cell \('a', 2005\)$"),
    # a negative mean could cancel a positive one into a zero expected value
    "FieldYearCell negative": (FieldYearCell, ("a", 2005, (3, 1, 2)), ("a", 2005, (2, -3)),
                               ValueError, r"^negative citation count -3 in cell \('a', 2005\)$"),
    # a bound of another type would leak a raw TypeError from the range checks
    "SearchBounds type": (SearchBounds, (2, 4, 4), ("2", 4, 4), ValueError,
                          r"^search bounds must be integers, got SearchBounds\("
                          r"max_group_size='2', max_citations=4, max_expected=4\)$"),
    "SearchBounds": (SearchBounds, (2, 4, 4), (0, 4, 4), ValueError,
                     r"^degenerate search bounds SearchBounds\(max_group_size=0, "
                     r"max_citations=4, max_expected=4\)$"),
    "SearchBounds limit": (SearchBounds, (2, 4, 4), (10**6, 4, 4), ValueError,
                           r"^search bounds SearchBounds\(max_group_size=1000000, "
                           r"max_citations=4, max_expected=4\) exceed the limit of "
                           r"100000000 instances$"),
    # checked before the sort, which would raise a raw TypeError on ("1", 2)
    "FieldYearCell count": (FieldYearCell, ("a", 2005, (3, 1, 2)), ("a", 2005, ("1", 2)),
                            ValueError, r"^citation counts in cell \('a', 2005\) must be integers$"),
    # a bool is an int to ``isinstance``, but not to these checks
    "FieldYearCell year": (FieldYearCell, ("a", 2005, (3, 1, 2)), ("a", True, (1,)), ValueError,
                           r"^bad cell \('a', True\): the category must be a string and the "
                           "year an integer$"),
    "FieldYearCell category": (FieldYearCell, ("a", 2005, (1,)), (3, 2005, (1,)),
                               ValueError, r"^bad cell \(3, 2005\): "),
    "SensitivityReport": (
        SensitivityReport, ("g", "harmonic", (SENSITIVITY,), REPORT, REPORT),
        ("g", "harmonic", (SENSITIVITY._replace(fractional_delta=0.5),), REPORT, REPORT),
        AssertionError, r"^fractional scores moved with the category scheme: \['p1'\]$",
    ),
    "FieldSpec": (FieldSpec, ("math", 6.0, 50), ("math", 6.0, 0),
                  ValueError, "^field 'math': papers per year must be >= 1$"),
    # a float count would fail only in ``generate_corpus``, a bool not at all
    "FieldSpec per year": (FieldSpec, ("math", 6.0, 50), ("math", 6.0, 2.5),
                           ValueError, "^field 'math': papers per year must be an integer$"),
    "FieldSpec name": (FieldSpec, ("math", 6.0, 50), (5, 6.0, 50),
                       ValueError, "^bad field name 5$"),
    "SynthConfig": (SynthConfig, ((FIELD,), (2000, 2001), 0.1, 1.0, 0.0, 42),
                    ((FIELD, FIELD), (2000, 2001), 0.1, 1.0, 0.0, 42),
                    ValueError, "^field names must be unique$"),
    # a float seed would generate; test_synth checks the other fields' types
    "SynthConfig seed": (SynthConfig, ((FIELD,), (2000, 2001)), ((FIELD,), (2000, 2001), 0, 0, 0, 1.5),
                         ValueError, "^seed must be an integer$"),
    "SynthConfig fields": (SynthConfig, ((FIELD,), (2000, 2001)), ([FIELD], (2000, 2001)),
                           ValueError, "^fields must be a tuple of FieldSpec$"),
}


def _builders(cls, valid) -> dict:
    """Every way of building a ``cls`` from its fields: a call, keywords,
    ``_make``, ``_replace`` on a valid record, and unpickling, under every
    protocol, a record that was built without its checks."""
    return {
        "call": lambda fields: cls(*fields),
        "keywords": lambda fields: cls(**dict(zip(cls._fields, fields))),
        "_make": cls._make,
        "_replace": lambda fields: cls(*valid)._replace(**dict(zip(cls._fields, fields))),
        **{
            f"pickle protocol {protocol}": (
                lambda fields, protocol=protocol: pickle.loads(
                    pickle.dumps(tuple.__new__(cls, fields), protocol)
                )
            )
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        },
    }


@pytest.mark.parametrize("name", CHECKED)
def test_every_way_of_building_a_checked_record_runs_its_checks(name) -> None:
    cls, valid, flawed, error, message = CHECKED[name]
    expected = cls(*valid)
    for how, build in _builders(cls, valid).items():
        record = build(valid)
        assert type(record) is cls, how
        assert record == expected, how
        with pytest.raises(error, match=message):
            build(flawed)
