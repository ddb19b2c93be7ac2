"""Fuzz test of the CLI's input boundary: generated malformed specs and
flags must each end in a documented exit code (0/1/2/3) with a message,
never in an exception, and every line the CLI writes to stdout must parse
as JSON (a successful twist-table's rows, after its JSON header, are the
plain-text table).

Each spec starts from a valid problem and has some keys replaced, each by
a plausible value three times in four and by arbitrary JSON otherwise, so
that inputs also reach the checks behind the first one.  Each flag run
picks flags and values from a pool of well-formed and malformed texts.
Ranks stay at 4 or below and levels at 11 or below, so every input is
cheap to answer.  derandomize=True and a fixed max_examples keep the test
deterministic.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsubgroups.cli import EXIT_GUARD, EXIT_INVALID, EXIT_OK, EXIT_PARSE, main

SUBCOMMANDS = ["validate-phi", "kernel", "datum", "enumerate", "twist-table",
               "paper-examples"]
BASE_SPECS = [
    {"type": "A", "rank": 2, "ell": 5},
    {"type": "B", "rank": 2, "ell": 5, "y": [[0, 0], [0, 0]], "iplus": [1]},
    {"type": "C", "rank": 3, "ell": 11, "family_c3": [1, 2, 0], "iplus": [2],
     "sigma": {"symbols": [["ktilde", 1], ["kbar", 2]]}},
    {"type": "C", "rank": 3, "ell": 11, "family_c3": [1, 2, 0], "iplus": [2],
     "datum": {"n_generators": [[3, 1, 1]],
               "gamma": {"factors": [11], "embedding": [[1], [0], [0]]},
               "delta": [[4]]}},
]

small = st.integers(-1, 4)
junk = st.recursive(
    st.one_of(st.none(), st.booleans(), small, st.sampled_from([0.5, 1.0, -2.5]),
              st.sampled_from(["", "x", "1", "A", "1,2", "kbar", "kbar:1"])),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["generators", "symbols", "factors"]), inner,
                      max_size=2),
    max_leaves=6,
)


def vectors(size=st.integers(0, 4)):
    return size.flatmap(lambda k: st.lists(small, min_size=k, max_size=k))


def rows(width=st.integers(0, 4)):
    return width.flatmap(lambda k: st.lists(vectors(st.just(k)), max_size=3))


def either(plausible):
    """A plausible value three times in four, arbitrary JSON otherwise."""
    return st.one_of(plausible, plausible, plausible, junk)


symbols = st.lists(st.tuples(st.sampled_from(["kbar", "ktilde", "tau", "vector", "x"]),
                             st.one_of(small, vectors())).map(list), max_size=3)
SPEC_VALUES = {
    "type": st.sampled_from(["A", "B", "C", "D", "G", "Q"]),
    "rank": st.integers(0, 4),
    "cartan": st.sampled_from([[[2, -1], [-1, 2]], [[2, -1], [-3, 2]], [[2]], []]),
    "ell": st.sampled_from([1, 3, 5, 9, 11]),
    "y": rows(),
    "family_c3": vectors(),
    "iplus": vectors(),
    "iminus": vectors(),
    "sigma": st.fixed_dictionaries({}, optional={"generators": rows(),
                                                 "symbols": symbols}),
    "datum": st.fixed_dictionaries({}, optional={
        "n_generators": rows(),
        "gamma": st.fixed_dictionaries({}, optional={
            "factors": st.lists(st.sampled_from([1, 2, 3, 4, 5, 11]), max_size=2),
            "embedding": rows()}),
        "delta": rows(),
    }),
}
specs = st.builds(
    lambda base, changes: base | changes,
    st.sampled_from(BASE_SPECS),
    st.fixed_dictionaries({}, optional={k: either(v) for k, v in SPEC_VALUES.items()}),
)

PROBLEM_FLAGS = ["--type", "--rank", "--cartan", "--ell", "--y", "--family-c3",
                 "--iplus", "--iminus", "--sigma-gen", "--sigma-sym"]
FLAGS = {sub: PROBLEM_FLAGS for sub in SUBCOMMANDS}
FLAGS |= {"enumerate": PROBLEM_FLAGS + ["--max-results"],
          "twist-table": PROBLEM_FLAGS + ["--cap"],
          "paper-examples": ["--ell", "--family-c3"]}
TEXTS = ["", "x", "-1", "0", "1", "2", "3", "5", "11", "A", "C", "G", "1,2", "1,x",
         "1,2,0", "[[0.5,0],[0,0]]", "[[true,0],[0,0]]", "[[2,-1],[-1,2]]", "[[2]]",
         "[1]", "{}", "kbar:1", "kbar:9", "tau:x", "vector:1,2", "nonsense"]


def flag_runs(sub):
    return st.lists(st.tuples(st.sampled_from(FLAGS[sub]), st.sampled_from(TEXTS)),
                    max_size=5)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_GUARD, EXIT_PARSE), (argv, code)
    lines = out.getvalue().splitlines()
    if argv[0] == "twist-table" and code == EXIT_OK:
        # the table rows after the JSON header are space-separated residues
        assert all(tok.isdigit() for row in lines[1:] for tok in row.split()), argv
        lines = lines[:1]
    for line in lines:
        json.loads(line)
    if code:
        assert err.getvalue().strip() or out.getvalue().strip(), argv


FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(sub=st.sampled_from(SUBCOMMANDS[:-1]), doc=specs)
def test_fuzz_spec_files(tmp_path, sub, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    _run([sub, "--spec", str(path)])


@FUZZ
@given(data=st.data())
def test_fuzz_flags(data):
    sub = data.draw(st.sampled_from(SUBCOMMANDS))
    argv = [sub] if sub == "paper-examples" else [sub, "--type", "A", "--rank", "2",
                                                   "--ell", "5"]
    argv += [f"{flag}={text}" for flag, text in data.draw(flag_runs(sub))]
    _run(argv)
