"""Fuzz the file readers and the CLI commands that read files.

Each case takes a valid file, as the package writes it, and mutates its
bytes. A reader must raise ValueError or return; the matrix reader must
return or raise what the ``np.loadtxt`` reference does. A CLI command
must exit 0, 2 (bad input) or 3 (I/O error), never 4 (internal invariant
breach), and must let no exception escape.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dphist.cli import main
from dphist.grid import FrequencyMatrix, load_matrix, load_points, save_matrix, save_points
from dphist.histogram import PrivateHistogram
from dphist.htf import HtfParams, release
from dphist.privacy import NoiseSource
from dphist.queries import Workload, load_workload, save_workload

from oracles import load_matrix_loadtxt, outcome

# byte strings a mutation splices in: huge and edge integers, non-numbers, comments, separators, non-UTF-8
SPLICES = [
    b"99999999999999999999999",
    b"9223372036854775807",
    b"-9223372036854775809",
    b"1e999",
    b"nan",
    b"inf",
    b"-1",
    b"0",
    b"#",
    b",",
    b" ",
    b"\n",
    b"\xff",
    b"\xc3\x28",
    b"\x00",
]


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` after one to three edits: a byte run dropped, duplicated or replaced, a splice, a changed digit."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        kind = draw(st.sampled_from(["drop", "duplicate", "replace", "insert", "digit"]))
        digits = [k for k, byte in enumerate(data) if ord("0") <= byte <= ord("9")]
        if kind == "digit" and digits:  # a well-formed file that holds other numbers
            data[draw(st.sampled_from(digits))] = ord(draw(st.sampled_from("0123456789")))
        elif kind == "drop":
            del data[i:j]
        elif kind == "duplicate":
            data[i:i] = data[i:j]
        elif kind == "replace":
            data[i:j] = draw(st.one_of(st.sampled_from(SPLICES), st.binary(min_size=1, max_size=4)))
        elif kind == "insert":
            data[i:i] = draw(st.sampled_from(SPLICES))
    return bytes(data)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The path of a valid file of each kind, all on one 6 x 5 grid."""
    d = tmp_path_factory.mktemp("valid")
    counts = np.random.default_rng(3).integers(0, 9, size=(6, 5))
    matrix = FrequencyMatrix(counts)
    paths = {kind: d / f"{kind}.txt" for kind in ("points", "matrix", "workload", "hist")}
    save_points(np.random.default_rng(4).uniform(0, 5, size=(12, 2)), paths["points"])
    save_matrix(matrix, paths["matrix"])
    save_workload(Workload([(0, 6, 0, 5), (1, 3, 2, 4), (5, 6, 0, 1)]), paths["workload"])
    release(matrix, HtfParams(eps_total=1.0, stop_count=5), NoiseSource(1)).save(paths["hist"])
    return paths


READERS = {"points": load_points, "matrix": load_matrix, "workload": load_workload, "hist": PrivateHistogram.load}
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class Drawn:
    """Stands for ``st.data()`` in an ``@example``: every draw returns ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, _strategy):
        return self.value


@pytest.mark.parametrize("kind", READERS)
@FUZZ
@given(data=st.data())
# a blank line inside a .hist leaf block: finding the malformed line once leaked numpy's "no data" warning
@example(data=Drawn(b"6 5 1 2\n\n0 6 0 3 76.2776895638\n0 6 3 5 25.0007092411\n"))
def test_reader_raises_value_error_or_returns(valid, tmp_path_factory, kind, data):
    path = tmp_path_factory.getbasetemp() / f"mutant-{kind}.txt"
    path.write_bytes(data.draw(mutations(valid[kind].read_bytes())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor may it warn
        result = outcome(READERS[kind], path)
    if kind == "matrix":  # the array parse reads every file as np.loadtxt does, or hands it over
        assert result == outcome(load_matrix_loadtxt, path)


def cli_runs(valid, mutant):
    """``ingest``, ``release`` and ``evaluate`` argument lists, each reading ``mutant`` in place of one valid file."""
    out = mutant.parent
    files = {kind: str(path) for kind, path in valid.items()}
    return {
        "points": [["ingest", "--points", mutant, "--grid", 6, "--grid-cols", 5, "--out", out / "m.txt"]],
        "matrix": [
            ["release", "--matrix", mutant, "--out", out / "h.txt"],
            ["evaluate", "--matrix", mutant, "--hist", files["hist"], "--workload", files["workload"],
             "--out", out / "r.csv"],
        ],
        "hist": [["evaluate", "--matrix", files["matrix"], "--hist", mutant, "--queries", 20, "--out", out / "r.csv"]],
        "workload": [
            ["evaluate", "--matrix", files["matrix"], "--hist", files["hist"], "--workload", mutant,
             "--out", out / "r.csv"],
        ],
    }


@pytest.mark.parametrize("kind", READERS)
@FUZZ
@given(data=st.data())
def test_cli_on_a_mutated_file_exits_0_2_or_3(valid, tmp_path_factory, kind, data, capsys):
    mutant = tmp_path_factory.getbasetemp() / f"cli-mutant-{kind}.txt"
    mutant.write_bytes(data.draw(mutations(valid[kind].read_bytes())))
    for args in cli_runs(valid, mutant)[kind]:
        code = main([str(a) for a in args])
        assert code in (0, 2, 3), (args, capsys.readouterr().err)
