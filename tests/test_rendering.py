"""How the CLI renders large output: the --json document against the json
module, its memory against its size, and integers past Python's
4300-digit int/str limit, which main() lifts while it runs and the json
module oracle needs lifted too."""

import contextlib
import json
import sys
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from pglspectra import cli


@contextlib.contextmanager
def all_int_digits():
    """Lift the int/str digit limit, where this Python has one, for the oracle."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class Sink:
    """A stdout that keeps only the length of what is written, and the last write."""

    def __init__(self):
        self.size = 0
        self.last = ""

    def write(self, text):
        self.size += len(text)
        self.last = text
        return len(text)


class SubInt(int):
    """An int subclass, which json.dumps renders as int.__repr__ does."""


CHUNK = cli._CHUNK
SIZES = (CHUNK - 1, CHUNK, CHUNK + 1, 7 * CHUNK // 2)
HUGE = st.builds(lambda digits, sign: sign * (10**digits - 7), st.integers(4301, 4400),
                 st.sampled_from([1, -1]))
# kept in an int list, these leave it all of type int; the others do not
SAME_TYPE = HUGE | st.integers()
OTHER_TYPE = st.booleans() | st.builds(SubInt, st.integers()) | st.none()


@st.composite
def int_sequences(draw):
    """A list or tuple of ints, one to four chunks long, with some members
    replaced around the chunk boundaries."""
    size = draw(st.sampled_from(SIZES))
    start = draw(st.integers(-(10**30), 10**30))
    step = draw(st.integers(-(10**20), 10**20))
    values = [start + i * step for i in range(size)]
    spots = [i for i in (0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, size - 1) if i < size]
    for at in draw(st.lists(st.sampled_from(spots), max_size=3)):
        values[at] = draw(SAME_TYPE | OTHER_TYPE)
    return draw(st.sampled_from([list, tuple]))(values)


@settings(max_examples=40, deadline=None)
@given(int_sequences(), st.lists(st.integers(0, 3), max_size=3))
def test_render_document_matches_json_dumps_on_long_int_lists(seq, others):
    result = {"seq": seq, "nested": [[seq, others]], "tuple": (seq, seq[:2])}
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": "x", "inputs": {"n": len(seq)},
           "result": result, "diagnostics": []}
    with all_int_digits():
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert cli.render_document("x", {"n": len(seq)}, result, []) == expected


def test_omega_document_peak_memory_is_bounded_by_its_size():
    # the peak holds omega once as ints, the pieces of the text and the text
    # joined once; one str per element, or a copy per nesting level, exceeds it
    argv = ["--json", "--budget", "200000", "omega", "psl2", "37", "24"]
    sink = Sink()
    with contextlib.redirect_stdout(Sink()):
        cli.main(argv)  # the factorizations are cached, as in any later call
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.last.endswith("}\n")
    assert sink.size > 2_000_000
    assert peak < 4.5 * sink.size, peak / sink.size


def test_ppd_above_prints_a_residual_past_4300_digits(capsys):
    code = cli.main(["ppd-above", "2", "100000", "3"])
    out = capsys.readouterr().out
    assert code == 0
    verdict, residual = out.splitlines()
    assert verdict == "primitive prime divisor of 2^100000 - 1 above 3: true"
    assert len(residual) > 4300 + len("residual after stripping: ")
    code = cli.main(["--json", "ppd-above", "2", "100000", "3"])
    with all_int_digits():
        doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["result"]["exists_above_threshold"] is True


def test_mu_of_a_field_past_4300_digits(capsys):
    code = cli.main(["--json", "mu", "pgl2", "7", "100000"])
    with all_int_digits():
        doc = json.loads(capsys.readouterr().out)
        q = 7**100000
        assert code == 0
        assert doc["result"]["label"] == f"PGL(2,{q})"
        assert doc["result"]["mu"] == [7, q - 1, q + 1]


def test_factor_takes_an_argument_past_4300_digits(capsys):
    with all_int_digits():
        n = str(10**5000)
    assert cli.main(["--budget", "0", "factor", n]) == 0
    assert capsys.readouterr().out == f"{n} = 2^5000*5^5000\n"


def test_main_puts_the_digit_limit_back(capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        return
    before = sys.get_int_max_str_digits()
    assert cli.main(["ppd", "7", "5"]) == 0
    assert cli.main(["ppd", "7", "0"]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert sys.get_int_max_str_digits() == before
    capsys.readouterr()
