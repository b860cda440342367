import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import synthtop
from synthtop.cli import MAX_REPAIR_BITS, main
from synthtop.oracle import MAX_SPACE_SIZE, MAX_SUBBASE_SIZE
from synthtop.reals import MAX_DECIMAL_DIGITS, parse_decimal

GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify_all_max_size_2.jsonl"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_passes_and_emits_json_lines(capsys):
    code, out, err = run(capsys, "verify",
                         "--laws", "enumeration-crosscheck,figure1-chain",
                         "--max-size", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        doc = json.loads(line)
        assert doc["passed"] is True
        assert doc["counterexample"] is None
        assert "wall_ms" not in doc  # timings live on stderr only
    assert "pass" in err


def test_verify_reports_are_byte_stable(capsys):
    args = ("verify", "--laws", "figure1-chain,galois-roundtrip",
            "--max-size", "2", "--seed", "13")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_all_laws_small(capsys):
    code, out, err = run(capsys, "verify", "--laws", "all", "--max-size", "1",
                         "--fuel", "100000")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(json.loads(l)["passed"] for l in lines)


def test_verify_stdout_matches_golden(capsys):
    # the byte-stable stdout of `synthtop verify --laws all --max-size 2`,
    # recorded once: every report, check count and fuel_used must survive
    # refactors unchanged
    code, out, _ = run(capsys, "verify", "--laws", "all", "--max-size", "2")
    assert code == 0
    assert out.encode() == GOLDEN_VERIFY.read_bytes()


@pytest.mark.parametrize("literal, bits, golden", [
    ("0.3(3)", 20, "repair_one_third_bits20.json"),
    ("0.3(3)", 200, "repair_one_third_bits200.json"),
    ("-1.(142857)", 200, "repair_minus_8_7_bits200.json"),
    ("-0.0(5)", 200, "repair_minus_1_18_bits200.json"),
    ("100", 200, "repair_100_bits200.json"),
])
def test_repair_stdout_matches_golden(capsys, literal, bits, golden):
    # every level, delta and direct-oracle value of `synthtop repair`,
    # recorded once: a faster repair must print the same bytes
    code, out, _ = run(capsys, "repair", "--bits", str(bits), "--", literal)
    assert code == 0
    assert out.encode() == (GOLDEN_VERIFY.parent / golden).read_bytes()


@pytest.mark.parametrize("example, query", [
    ("space", "t0"), ("space", "order"), ("space", "tauk"),
    ("subbase", "t0"), ("subbase", "order"), ("subbase", "tauk"),
    ("subbase", "decode-demo"),
])
def test_spaces_stdout_matches_golden(capsys, example, query):
    # the README's two `spaces` inputs under every query they take,
    # recorded once: the decode-demo trajectories must keep their bytes
    golden = GOLDEN_VERIFY.parent
    code, out, _ = run(capsys, "spaces",
                       str(golden / f"spaces_example_{example}.json"),
                       "--query", query)
    assert code == 0
    assert out.encode() == (golden / f"spaces_{example}_{query}.json").read_bytes()


def test_verify_unknown_law_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--laws", "bogus")
    assert code == 2
    assert "unknown law" in err


def test_verify_oversize_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--laws", "enumeration-crosscheck",
                         "--max-size", "9")
    assert code == 2


def test_verify_refuses_laws_above_their_size_ceiling(capsys):
    # these three do not finish at size 4; the refusal comes before any
    # law runs, also when they are reached through --laws all
    for laws in ("hyper-ops-vs-oracle", "presubbase-representation",
                 "figure1-chain", "all"):
        code, out, err = run(capsys, "verify", "--laws", laws,
                             "--max-size", "4")
        assert code == 2
        assert out == ""
        assert "--max-size at most 3" in err
    code, out, _ = run(capsys, "verify", "--laws", "enumeration-crosscheck",
                       "--max-size", "4")
    assert code == 0 and json.loads(out)["passed"]


def test_closed_stdout_exits_quietly():
    # the reader stops after 10 bytes, as `synthtop repair ... | head -c 10`
    # does, of a ~160 kB document: more than a 64 kB pipe buffer takes
    proc = subprocess.Popen(
        [sys.executable, "-m", "synthtop.cli", "repair", "0.3(3)",
         "--bits", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ,
             "PYTHONPATH": str(Path(synthtop.__file__).parents[1])})
    assert proc.stdout.read(10) == b'{"bits": 4'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_repair_output_shape(capsys):
    code, out, err = run(capsys, "repair", "0.3(3)", "--bits", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1/3"
    assert len(doc["levels"]) == 8
    assert len(doc["delta"]) == 8
    assert "fuel_exhausted_after_level" not in doc


def test_repair_parse_failure_exits_2(capsys):
    code, out, err = run(capsys, "repair", "zz")
    assert code == 2


def test_repair_nonpositive_bits_exits_2(capsys):
    for bits in ("-3", "0"):
        code, out, err = run(capsys, "repair", "0.3(3)", "--bits", bits)
        assert code == 2
        assert out == ""
        assert "--bits" in err


def test_repair_overlong_integer_part_exits_2(capsys):
    code, out, err = run(capsys, "repair", "1" * 5000)
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "digits" in err


def test_repair_overlong_fraction_digits_exit_2(capsys):
    for literal in ("0." + "3" * 5000, "0.(" + "3" * 5000 + ")"):
        code, out, err = run(capsys, "repair", literal)
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert "digits" in err


def test_repair_at_the_digit_limit_prints(capsys):
    literal = "0." + "3" * (MAX_DECIMAL_DIGITS - 1)
    assert str(parse_decimal(literal)) == literal
    code, out, _ = run(capsys, "repair", literal, "--bits", "8")
    assert code == 0
    assert len(json.loads(out)["levels"]) == 8


def test_repair_too_many_bits_exits_2(capsys):
    # refused before the search, which at this size would run for a
    # minute and then fail to print its deltas
    code, out, err = run(capsys, "repair", "0.3(3)", "--bits", "15000",
                         "--fuel", "1000000000")
    assert code == 2
    assert out == ""
    assert f"between 1 and {MAX_REPAIR_BITS}" in err


def test_repair_negative_fuel_exits_2(capsys):
    code, out, err = run(capsys, "repair", "0.3(3)", "--fuel", "-3")
    assert code == 2
    assert out == ""
    assert "--fuel" in err


def test_verify_negative_fuel_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--laws", "enumeration-crosscheck",
                         "--fuel", "-1")
    assert code == 2
    assert out == ""
    assert "--fuel" in err


def test_spaces_takes_no_fuel_option(tmp_path, capsys):
    f = tmp_path / "sierp.json"
    f.write_text(json.dumps({"n": 2, "opens": [[], [1], [0, 1]]}))
    code, out, err = run(capsys, "spaces", str(f), "--query", "t0",
                         "--fuel", "5")
    assert code == 2
    assert out == ""
    assert "--fuel" in err


def test_repair_fuel_exhaustion_is_partial(capsys):
    code, out, err = run(capsys, "repair", "0.3(3)", "--bits", "20",
                         "--fuel", "40")
    assert code == 1
    doc = json.loads(out)
    assert doc["fuel_exhausted_after_level"] == len(doc["levels"])
    assert len(doc["levels"]) < 20


def test_spaces_t0_and_order(tmp_path, capsys):
    f = tmp_path / "sierp.json"
    f.write_text(json.dumps({"n": 2, "opens": [[], [1], [0, 1]]}))
    code, out, _ = run(capsys, "spaces", str(f), "--query", "t0")
    assert code == 0 and json.loads(out) == {"t0": True}
    code, out, _ = run(capsys, "spaces", str(f), "--query", "order")
    assert code == 0
    assert [0, 1] in json.loads(out)["order"]

    g = tmp_path / "indiscrete.json"
    g.write_text(json.dumps({"n": 2, "opens": [[], [0, 1]]}))
    code, out, _ = run(capsys, "spaces", str(g), "--query", "t0")
    assert code == 0 and json.loads(out) == {"t0": False}


def test_spaces_tauk_matches_hand_computation(tmp_path, capsys):
    f = tmp_path / "chain.json"
    f.write_text(json.dumps({"n": 2, "sets": [[1], [0, 1]],
                             "index_order": [[0, 1]]}))
    code, out, _ = run(capsys, "spaces", str(f), "--query", "tauk")
    assert code == 0
    assert json.loads(out)["tauk"] == {"n": 2, "opens": [[], [1], [0, 1]]}


def test_spaces_decode_demo(tmp_path, capsys):
    f = tmp_path / "chain.json"
    f.write_text(json.dumps({"n": 2, "sets": [[1], [0, 1]],
                             "index_order": [[0, 1]]}))
    code, out, _ = run(capsys, "spaces", str(f), "--query", "decode-demo")
    assert code == 0
    doc = json.loads(out)["decode"]
    assert doc["1"][-1]["candidates"] == [1]
    assert doc["0"][-1]["candidates"] == [0, 1]  # the up-set of the bottom point


def test_spaces_schema_violation_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": 2, "opens": [[1], [0, 1]]}))
    code, out, err = run(capsys, "spaces", str(f), "--query", "t0")
    assert code == 2
    assert "opens" in err

    g = tmp_path / "notjson.json"
    g.write_text("{nope")
    code, out, err = run(capsys, "spaces", str(g), "--query", "t0")
    assert code == 2
    assert "line" in err

    # a JSON boolean is not a carrier size: `true` must not read as 1
    h = tmp_path / "bool.json"
    h.write_text(json.dumps({"n": True, "sets": [[0]]}))
    code, out, err = run(capsys, "spaces", str(h), "--query", "decode-demo")
    assert code == 2
    assert out == ""
    assert "'n'" in err

    # bytes that are not UTF-8 text, and JSON nested past the parser's
    # recursion limit, are schema errors too, not tracebacks
    deep = "[" * 100_000 + "]" * 100_000
    for name, data in (("random.json", random.Random(0).randbytes(200)),
                       ("bom.json", b"\xff\xfe" + b'{"n": 1}'),
                       ("deep.json", deep.encode())):
        bad = tmp_path / name
        bad.write_bytes(data)
        code, out, err = run(capsys, "spaces", str(bad), "--query", "t0")
        assert code == 2, name
        assert out == "" and "Traceback" not in err, name


def test_spaces_huge_carrier_size_exits_2(tmp_path, capsys):
    # n = 10^20 is refused from the listed opens, without a 2^n mask, also
    # when an element would need a mask of 2^(10^15)
    f = tmp_path / "huge.json"
    for opens in ([[], [0]], [[], [10 ** 15]]):
        f.write_text(json.dumps({"n": 10 ** 20, "opens": opens}))
        code, out, err = run(capsys, "spaces", str(f), "--query", "t0")
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert "full carrier" in err


def test_spaces_overlong_json_integer_exits_2(tmp_path, capsys):
    f = tmp_path / "long.json"
    f.write_text('{"n": ' + "9" * 5000 + ', "opens": [[]]}')
    code, out, err = run(capsys, "spaces", str(f), "--query", "t0")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert "digits" in err


def test_spaces_oversize_subbase_exits_2(tmp_path, capsys):
    # singleton sets with no index order: the index space and tau_K grow
    # as 2^sets, so one set past the cap must be refused, not computed
    n = MAX_SUBBASE_SIZE
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"n": n, "sets": [[i % n] for i in range(n + 1)],
                             "index_order": []}))
    code, out, err = run(capsys, "spaces", str(f), "--query", "t0")
    assert code == 2
    assert out == ""
    assert "'sets'" in err

    # the generated topology grows as 2^n, so the carrier is capped too
    g = tmp_path / "wide.json"
    g.write_text(json.dumps({"n": n + 1, "sets": [[0]]}))
    code, out, err = run(capsys, "spaces", str(g), "--query", "t0")
    assert code == 2
    assert "'n'" in err


def test_spaces_subbase_at_cap_answers(tmp_path, capsys):
    m = MAX_SUBBASE_SIZE
    f = tmp_path / "cap.json"
    f.write_text(json.dumps({"n": m, "sets": [[i] for i in range(m)]}))
    code, out, _ = run(capsys, "spaces", str(f), "--query", "t0")
    assert code == 0 and json.loads(out) == {"t0": True}


def test_spaces_oversize_plain_space_exits_2(tmp_path, capsys):
    # the indiscrete space lists its full carrier in a few kB, but its
    # order has n^2 pairs: one point past the cap is refused, not printed
    f = tmp_path / "wide.json"
    for n, code_want in ((MAX_SPACE_SIZE, 0), (MAX_SPACE_SIZE + 1, 2)):
        f.write_text(json.dumps({"n": n, "opens": [[], list(range(n))]}))
        code, out, err = run(capsys, "spaces", str(f), "--query", "order")
        assert code == code_want
        assert "Traceback" not in err
        if code_want:
            assert out == "" and "'n'" in err
        else:
            assert len(json.loads(out)["order"]) == n * n


# --- the command line on generated input ---------------------------------


def run_quiet(*argv):
    """`main` with stdout and stderr captured; usable inside @given, where
    the function-scoped capsys fixture is not."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


_junk = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                  st.text(max_size=3), st.floats(allow_nan=False))
_elements = st.lists(st.one_of(st.integers(-1, 4), _junk), max_size=4)
_field = st.one_of(st.integers(-1, 4), _junk,
                   st.lists(st.one_of(_elements, _junk), max_size=4))
_doc = st.one_of(
    st.dictionaries(st.sampled_from(["n", "opens", "sets", "index_order"]),
                    _field, max_size=4),
    _junk, st.lists(_field, max_size=2))
_spaces_input = st.tuples(
    st.just("spaces"),
    st.one_of(_doc.map(lambda d: json.dumps(d).encode()),
              st.binary(max_size=16)),
    st.sampled_from(["t0", "order", "tauk", "decode-demo", "bogus"]))
_repair_input = st.tuples(
    st.just("repair"),
    st.text("0123456789.()-+ e", max_size=8),
    st.integers(-1, 30))

_DEEP = b"[" * 100_000 + b"]" * 100_000


@settings(max_examples=150, deadline=5000)
@example(("spaces", b"\xff\xfe{}", "t0"))
@example(("spaces", _DEEP, "t0"))
@example(("spaces", b'{"n": 100000000000000000000, "opens": [[], [0]]}',
          "order"))
@example(("spaces", b'{"n": ' + b"9" * 5000 + b', "opens": [[]]}', "t0"))
@example(("repair", "1" * 5000, 20))
@example(("repair", "0." + "3" * 5000, 20))
@example(("repair", "0.3(3)", 15000))
@example(("spaces", b'{"n": 2, "sets": [[1], [0, 1]], "index_order": [[0, 1]]}',
          "decode-demo"))
@given(st.one_of(_spaces_input, _repair_input))
def test_command_line_exits_cleanly_on_any_input(case):
    # every run ends in 0, 1 or 2; an exception would fail the test
    if case[0] == "spaces":
        _, data, query = case
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.json"
            path.write_bytes(data)
            code, out, err = run_quiet("spaces", str(path), "--query", query)
    else:
        _, literal, bits = case
        code, out, err = run_quiet("repair", "--bits", str(bits), "--",
                                   literal)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
