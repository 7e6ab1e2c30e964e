import contextlib
import io
import itertools
import json
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ghw.cli as cli
from ghw.betti import betti_fine_matroid
from ghw.matroid import Matroid
from ghw.simplicial import SimplicialComplex
from ghw.weights import weight_report
from workeddata import DATA, diagram_rows

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_weights_h1(capsys):
    code, out, _ = run(capsys, "weights", str(DATA / "h1.txt"))
    assert code == 0
    assert out == "d: 2 4 6\n"


def test_weights_dual_complex(capsys):
    code, out, _ = run(capsys, "weights", str(DATA / "g7.txt"), "--complex", "dual")
    assert code == 0
    assert out == "d: 3 4 5\n"


def test_weights_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"uniform": [3, 6]}'))
    code, out, _ = run(capsys, "weights", "-")
    assert code == 0
    assert out == "d: 4 5 6\n"


def test_weights_json_report(capsys):
    code, out, _ = run(capsys, "weights", str(DATA / "h1.txt"), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["weights"] == [2, 4, 6]
    assert obj["support"] == 6
    assert obj["whitney"][0] == [3, 0, 1]


def test_diagram_golden_h1(capsys):
    code, out, _ = run(capsys, "diagram", str(DATA / "h1.txt"))
    assert code == 0
    assert out == golden("diagram_h1.txt")


def test_diagram_alexander_h1(capsys):
    code, out, _ = run(capsys, "diagram", str(DATA / "h1.txt"), "--complex", "alexander")
    assert code == 0
    assert out == golden("diagram_h1_alexander.txt")
    assert diagram_rows(out.rstrip("\n")) == ["2 | 13 25 17 4"]


def test_diagram_golden_h6(capsys):
    code, out, _ = run(capsys, "diagram", str(DATA / "h6.txt"))
    assert code == 0
    assert out == golden("diagram_h6.txt")


def test_diagram_golden_g7_dual(capsys):
    code, out, _ = run(capsys, "diagram", str(DATA / "g7.txt"), "--complex", "dual")
    assert code == 0
    assert out == golden("diagram_g7_dual.txt")


def test_whitney_golden(capsys):
    code, out, _ = run(capsys, "whitney", str(DATA / "h1.txt"))
    assert code == 0
    assert out == golden("whitney_h1.txt")


def test_betti_fine_json_round_trip(capsys, m1):
    code, out, _ = run(capsys, "betti", str(DATA / "h1.txt"), "--fine", "--json")
    assert code == 0
    table = betti_fine_matroid(m1)
    assert cli.BettiTable.from_json_dict(json.loads(out), 6) == table
    assert out == golden("betti_h1_fine.json")


def test_betti_text(capsys):
    code, out, _ = run(capsys, "betti", str(DATA / "h2.txt"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "global: 1 3 2"
    assert "1 2 1" in lines


def test_mds_output(capsys):
    code, out, _ = run(capsys, "mds", str(DATA / "h6.txt"))
    assert code == 0
    assert "weights: 3 5 6" in out
    assert "mds level: 2" in out
    code, out, _ = run(capsys, "mds", str(DATA / "u_3_6.json"))
    assert code == 0
    assert "is mds: yes" in out
    assert "alexander dual is a matroid: yes" in out


def test_weights_and_mds_build_no_complex(capsys, monkeypatch):
    # The fast path and the MDS profile read the rank table only; a
    # SimplicialComplex is the Hochster oracle's, and verify's.
    def refuse(self, face):
        raise AssertionError("built a SimplicialComplex")

    monkeypatch.setattr(SimplicialComplex, "_adopt", refuse)
    M = Matroid.uniform(3, 6)
    assert weight_report(M, betti_fine_matroid(M)).mds_level == 1
    code, out, _ = run(capsys, "mds", str(DATA / "u_3_6.json"))
    assert code == 0
    assert "alexander dual is a matroid: yes" in out
    code, out, _ = run(capsys, "weights", str(DATA / "u_3_6.json"), "--json")
    assert code == 0
    assert json.loads(out)["mds_level"] == 1


def test_mds_degenerate(capsys):
    code, out, _ = run(capsys, "mds", str(DATA / "g7.txt"), "--complex", "dual")
    assert code == 0
    assert "mds level: none" in out
    assert "linear resolution: yes" in out
    assert "isthmuses: 2" in out


def test_verify_corpus(capsys):
    for path in sorted(DATA.iterdir()):
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0, (path.name, out)
        assert "FAIL" not in out


def test_verify_reports_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_matroid", lambda M, cap: [("forced", False)])
    code, out, _ = run(capsys, "verify", str(DATA / "h2.txt"))
    assert code == cli.EXIT_VERIFY
    assert "forced: FAIL" in out


def test_wei_not_applicable_reported(capsys):
    code, out, _ = run(capsys, "verify", str(DATA / "h4.txt"))
    assert code == 0
    assert "Wei duality partition: not applicable" in out


def test_input_error_composite_field(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("field 4\n1 0\n0 1\n")
    code, _, err = run(capsys, "weights", str(bad))
    assert code == 1
    assert "not prime" in err


def test_large_prime_field(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text(f"field {2**61 - 1}\n1 1 0\n0 1 1\n")
    code, out, _ = run(capsys, "weights", str(big))
    assert code == 0
    assert out == "d: 3\n"  # the code is spanned by (1, -1, 1)
    big.write_text(f"field {2**64 + 13}\n1 1 0\n0 1 1\n")
    code, out, err = run(capsys, "weights", str(big))
    assert code == 1
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "too large" in err


def _columns_text(p, columns):
    rows = [" ".join(str(col[r]) for col in columns) for r in range(len(columns[0]))]
    return f"field {p}\n" + "\n".join(rows) + "\n"


# One column per point of PG(3, 2) and of PG(2, 3): parity-check matrices of
# the binary [15, 11] and ternary [13, 10] Hamming codes, whose duals are
# simplex codes.  Vandermonde rows a^0, a^1, a^2 for a = 1..20 over GF(131)
# give U(3, 20).  Weight hierarchies from Wei (IEEE Trans. IT, 1991).
_HAMMING_2 = [c for c in itertools.product(range(2), repeat=4) if any(c)]
_HAMMING_3 = [
    c for c in itertools.product(range(3), repeat=3) if any(c) and next(v for v in c if v) == 1
]
_VANDERMONDE = [[pow(a, e, 131) for e in range(3)] for a in range(1, 21)]


@pytest.mark.parametrize(
    "p, columns, complex_, expected",
    [
        (2, _HAMMING_2, "matroid", "3 5 6 7 9 10 11 12 13 14 15"),
        (2, _HAMMING_2, "dual", "8 12 14 15"),
        (3, _HAMMING_3, "matroid", "3 4 6 7 8 9 10 11 12 13"),
        (3, _HAMMING_3, "dual", "9 12 13"),
        (131, _VANDERMONDE, "matroid", " ".join(map(str, range(4, 21)))),
    ],
    ids=["hamming-15-11", "simplex-15-4", "hamming-13-10", "simplex-13-3", "vandermonde-131"],
)
def test_closed_form_weights(p, columns, complex_, expected, tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text(_columns_text(p, columns))
    code, out, _ = run(capsys, "weights", str(path), "--complex", complex_)
    assert code == 0
    assert out == f"d: {expected}\n"


def test_input_error_ragged_rows(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("field 2\n1 0 1\n0 1\n")
    code, _, err = run(capsys, "weights", str(bad))
    assert code == 1
    assert "line 3" in err


def test_input_error_missing_field_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 1\n")
    code, _, err = run(capsys, "weights", str(bad))
    assert code == 1
    assert "line 1" in err and "field" in err


def test_input_error_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "bases": [[1, 2], [3, 4]]}')
    code, _, err = run(capsys, "weights", str(bad))
    assert code == 1
    assert "exchange" in err


@pytest.mark.parametrize(
    "text, n, axiom",
    [
        ('{"n": 4, "bases": [[1, 2], [3, 4]]}', 4, "exchange"),
        ('{"n": 3, "circuits": [[1, 2], [2, 3]]}', 3, "elimination"),
    ],
)
def test_axiom_errors_name_one_based_elements(tmp_path, capsys, text, n, axiom):
    # The sets named in the message use the input's 1-based elements.
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(capsys, "weights", str(bad))
    assert code == 1 and axiom in err
    assert re.search(r"\{\d+(,\d+)*\}", err)
    assert all(1 <= int(e) <= n for e in re.findall(r"\d+", err))


def test_input_error_out_of_range_element(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "bases": [[1, 5]]}')
    code, _, err = run(capsys, "weights", str(bad))
    assert code == 1
    assert "out of range" in err


def test_input_error_two_sources(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"uniform": [1, 2], "n": 2, "bases": [[1]]}')
    code, _, err = run(capsys, "weights", str(bad))
    assert code == 1
    assert "exactly one" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "weights", "no_such_file.txt")
    assert code == 1
    assert "cannot read" in err


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "weights", str(DATA / "h1.txt"), "--bogus")
    assert code == 1


def test_alexander_complex_rejected_for_weights(capsys):
    code, _, err = run(capsys, "weights", str(DATA / "h1.txt"), "--complex", "alexander")
    assert code == 1
    assert "own data" in err


def test_cap_exceeded(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"uniform": [2, 21]}')
    code, _, err = run(capsys, "weights", str(big))
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("r", [1, 5, 10, 15])
def test_alexander_betti_above_hochster_cap(r, capsys, monkeypatch):
    # U(r, n)'s Alexander dual is the (d-1)-skeleton of the simplex, d = n - r,
    # whose ideal is squarefree Veronese with a linear resolution.
    n, d = 16, 16 - r
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"uniform": [r, n]})))
    code, out, _ = run(capsys, "betti", "-", "--json", "--complex", "alexander")
    assert code == 0
    veronese = [[i, d + i - 1, comb(n, d + i - 1) * comb(d + i - 2, d - 1)] for i in range(1, r + 2)]
    assert json.loads(out)["graded"] == [[0, 0, 1]] + veronese


def test_alexander_betti_keeps_matroid_cap(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"uniform": [2, 21]}'))
    code, out, err = run(capsys, "betti", "-", "--json", "--complex", "alexander")
    assert code == 3 and out == "" and "cap" in err


def test_cap_raised_holds_through_dual(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"uniform": [2, 21]}'))
    code, out, err = run(capsys, "weights", "-", "--complex", "dual", "--max-n", "21")
    assert code == 0
    assert out == "d: 20 21\n"
    assert "2^21 = 2097152 subsets" in err and "2 MiB rank table" in err
    # The report's Alexander-dual check builds a complex under the same cap.
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"uniform": [2, 21]}'))
    code, out, _ = run(capsys, "weights", "-", "--complex", "dual", "--max-n", "21", "--json")
    assert code == 0
    assert json.loads(out)["weights"] == [20, 21]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 3, "bases": 5}', "'bases' must be a list"),
        ('{"field": 2, "matrix": [[1, [2]]]}', "must be an integer, got [2]"),
        ('{"field": true, "matrix": [[1]]}', "'field' must be an integer"),
        ('{"n": 2, "bases": [[1, 1]]}', "repeats an element"),
        ('{"n": -1, "bases": [[]]}', "'n' must be >= 0"),
        ("[1, 2]", "must be an object"),
        ('{"uniform": [2, 4], "n": 7}', "'n' is 7, but the uniform has 4 elements"),
    ],
)
def test_malformed_input_one_line_error(text, message, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "weights", "-")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_negative_max_n_is_an_input_error(capsys):
    code, out, err = run(capsys, "weights", str(DATA / "h1.txt"), "--max-n", "-1")
    assert code == 1
    assert out == "" and err == "error: --max-n must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["weights", "betti", "diagram", "whitney", "mds", "verify"])
def test_non_prime_field_flag_refused_on_every_command(command, capsys):
    for field in ("4", "1"):
        code, out, err = run(capsys, command, str(DATA / "h1.txt"), "--field", field)
        assert code == 1
        assert out == "" and err.startswith("error: --field") and err.count("\n") == 1
        assert "not prime" in err


def test_cap_override_lowered(tmp_path, capsys):
    mid = tmp_path / "mid.json"
    mid.write_text('{"uniform": [2, 12]}')
    code, _, _ = run(capsys, "weights", str(mid), "--max-n", "10")
    assert code == 3
    code, out, err = run(capsys, "weights", str(mid), "--max-n", "12")
    assert code == 0
    assert out == "d: " + " ".join(str(d) for d in range(3, 13)) + "\n"


def test_outputs_are_deterministic(capsys):
    runs = [run(capsys, "betti", str(DATA / "h1.txt"), "--fine", "--json")[1] for _ in range(2)]
    assert runs[0] == runs[1]


_INTS = st.one_of(
    st.integers(-2, 12),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**61 - 1, 2**64 - 59, 2**64 + 13, 561]),
)
_VALUES = st.recursive(
    st.one_of(_INTS, st.booleans(), st.none(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=16,
)
_SETS = st.lists(st.lists(_INTS, max_size=4), max_size=4)
_JSON_TEXTS = st.one_of(
    st.dictionaries(
        st.sampled_from(["field", "matrix", "bases", "circuits", "uniform", "n", "other"]),
        _VALUES,
        max_size=4,
    ),
    st.fixed_dictionaries({"uniform": st.lists(_INTS, max_size=3)}, optional={"n": _INTS}),
    st.fixed_dictionaries({"n": _INTS, "bases": _SETS}),
    st.fixed_dictionaries({"n": _INTS, "circuits": _SETS}),
    st.fixed_dictionaries({"field": _INTS, "matrix": _SETS}, optional={"n": _INTS}),
    _VALUES,
).map(json.dumps)
_MATRIX_TEXTS = st.builds(
    lambda field, rows: f"field {field}\n" + "\n".join(" ".join(map(str, r)) for r in rows),
    st.one_of(_INTS, st.text(max_size=4)),
    st.lists(st.lists(st.one_of(_INTS, st.text(max_size=2)), max_size=5), max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(_JSON_TEXTS, _MATRIX_TEXTS, st.text(max_size=20)))
def test_fuzzed_input_exits_cleanly(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["weights", str(path), "--max-n", "8"])
    assert code in (0, 1, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_corpus_report_golden():
    # The worked examples in data/, recomputed end to end by the script.
    script = Path(__file__).resolve().parent.parent / "scripts" / "corpus_report.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, check=True)
    assert result.stdout == (GOLDEN / "corpus_report.txt").read_bytes()
