"""End-to-end tests of the command-line interface.

Every test calls main(argv) directly and inspects the return code plus
captured stdout/stderr, so the full argparse -> build -> compute -> emit
path runs exactly as it would from a shell.
"""

import json
import os
import sys

import numpy as np
import pytest

from weakorder import cli, verify
from weakorder.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONSTRUCTION,
    EXIT_FAILURES,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_element,
)
from weakorder import build_system, join_bruteforce, left_reflection_set


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- roots -----------------------------------------------------------------------------


def test_roots_text_a3(capsys):
    rc, out, err = run(capsys, "roots", "--type", "A3")
    assert rc == EXIT_OK
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "6 positive roots"
    assert len(lines) == 7
    assert "a1" in out and "a1 + a2 + a3" in out


def test_roots_json_f4(capsys):
    rc, out, _ = run(capsys, "roots", "--type", "F4", "--format", "json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["type"] == "F4"
    assert doc["count"] == 24
    assert len(doc["roots"]) == 24
    first = doc["roots"][0]
    assert first["name"] == "a1"
    assert first["depth"] == 0
    assert len(first["coords"]) == 4
    assert first["coords"][0]["approx"] == 1.0


def test_roots_count_i2_5(capsys):
    rc, out, _ = run(capsys, "roots", "--type", "I2(5)", "--format", "json")
    assert rc == EXIT_OK
    assert json.loads(out)["count"] == 5


def test_roots_backend_option_is_rejected(capsys):
    # the roots are exact; there is no backend to choose
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--type", "A2", "--backend", "float"])
    assert exc.value.code == EXIT_USAGE
    assert "--backend" in capsys.readouterr().err
    rc, out, _ = run(capsys, "roots", "--type", "H3", "--format", "json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 15
    assert all(c["coeffs"] is not None for r in doc["roots"] for c in r["coords"])


# roots builds the root table only: E7 and E8 have more elements than the
# default element cap
@pytest.mark.parametrize("name,count", [("E7", 63), ("E8", 120)])
def test_roots_of_groups_past_the_element_cap(capsys, name, count):
    rc, out, err = run(capsys, "roots", "--type", name)
    assert (rc, err) == (EXIT_OK, "")
    lines = out.strip().splitlines()
    assert lines[0] == f"{count} positive roots" and len(lines) == count + 1
    rc, out, _ = run(capsys, "roots", "--type", name, "--format", "json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == len(doc["roots"]) == count


# -- join ------------------------------------------------------------------------------


def test_join_one_line_notation(capsys):
    rc, out, _ = run(capsys, "join", "--type", "A3", "--u", "3124",
                     "--v", "1423", "--format", "json")
    assert rc == EXIT_OK
    doc = json.loads(doc_text := out)
    assert doc["schema"] == 1
    assert doc["holds"] is True
    assert doc["one_line"] == {"u": "3124", "v": "1423", "join": "4312"}
    assert set(doc["join_inversions"]["roots"]) == set(
        doc["reachable_reflections"]["roots"]
    )
    assert "one-line" not in doc_text  # text rendering absent from json mode


def test_join_text_output(capsys):
    rc, out, _ = run(capsys, "join", "--type", "A3", "--u", "3124", "--v", "1423")
    assert rc == EXIT_OK
    assert "one-line: 3124 v 1423 = 4312" in out
    assert "verdict: holds" in out


@pytest.mark.parametrize("name", ["A3", "A4"])
def test_join_one_line_notation_reads_back(capsys, name):
    system = build_system(name)
    for u, v in ((1, 2), (3, 5), (7, 20), (0, system.size - 1)):
        u, v = system.element(u), system.element(v)
        rc, out, _ = run(capsys, "join", "--type", name, "--u", u.word_str(),
                         "--v", v.word_str(), "--format", "json")
        assert rc == EXIT_OK
        one_line = json.loads(out)["one_line"]
        join = join_bruteforce(u, v)
        for key, element in (("u", u), ("v", v), ("join", join)):
            assert parse_element(system, one_line[key]) == element


def test_join_one_line_notation_past_nine_values_has_commas(monkeypatch, capsys):
    system = build_system("A3")
    ten = (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    monkeypatch.setattr(cli, "build_system", lambda *args, **kwargs: system)
    monkeypatch.setattr(system, "permutation_of", lambda element: ten)
    rc, out, _ = run(capsys, "join", "--type", "A3", "--u", "1", "--v", "2",
                     "--format", "json")
    assert rc == EXIT_OK
    text = "10,2,3,4,5,6,7,8,9,1"
    assert json.loads(out)["one_line"] == {"u": text, "v": text, "join": text}
    rc, out, _ = run(capsys, "join", "--type", "A3", "--u", "1", "--v", "2")
    assert f"one-line: {text} v {text} = {text}" in out


def test_join_words_dihedral(capsys):
    # join(s, srs) in I2(4) is srs itself: the union of inversion sets is
    # already an inversion set
    rc, out, _ = run(capsys, "join", "--type", "I2(4)", "--u", "1",
                     "--v", "1 2 1", "--format", "json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["join"] == "1 2 1"
    assert "a2" not in doc["reachable_reflections"]["roots"]


def test_join_to_top_dihedral(capsys):
    rc, out, _ = run(capsys, "join", "--type", "I2(4)", "--u", "1",
                     "--v", "2 1 2", "--format", "json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert len(doc["join"].split()) == 4  # the longest element
    assert len(doc["reachable_reflections"]["indices"]) == 4


def test_join_identity_shorthand(capsys):
    rc, out, _ = run(capsys, "join", "--type", "A2", "--u", "e",
                     "--v", "1", "--format", "json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["u"] == "e"
    assert doc["join"] == "1"


def test_join_writes_dot(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    rc, _, _ = run(capsys, "join", "--type", "A2", "--u", "1", "--v", "2",
                   "--dot", str(target))
    assert rc == EXIT_OK
    body = target.read_text()
    assert body.startswith("digraph")
    assert "->" in body


# -- verify ----------------------------------------------------------------------------


def test_verify_h3_exhaustive(capsys):
    rc, out, _ = run(capsys, "verify", "--type", "H3", "--conjecture", "H")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["conjecture"] == "H"
    assert doc["pairs_checked"] == 120 * 120
    assert doc["failure_count"] == 0
    assert doc["failures"] == []


def test_verify_default_conjecture_is_h(capsys):
    rc, out, _ = run(capsys, "verify", "--type", "A2")
    assert rc == EXIT_OK
    assert json.loads(out)["conjecture"] == "H"


def test_verify_sampled_with_seed(capsys):
    rc, out, _ = run(capsys, "verify", "--type", "B3", "--conjecture", "EQ",
                     "--sample", "100", "--seed", "5")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["pairs_checked"] == 100
    assert doc["seed"] == 5
    assert doc["failure_count"] == 0


def test_verify_three_way_conjecture(capsys):
    rc, out, _ = run(capsys, "verify", "--type", "B3", "--conjecture", "HD")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["conjecture"] == "HD"
    assert doc["pairs_checked"] == 48 * 48
    assert doc["failure_count"] == 0


def test_failing_three_way_sweep_exits_one_with_records(monkeypatch, capsys):
    reach = verify._reachable_reflection_bits

    def left_route_drops_its_first_root(system, unions, side):
        bits = reach(system, unions, side)
        return bits & ~np.uint64(1) if side == "left" else bits

    monkeypatch.setattr(verify, "_reachable_reflection_bits", left_route_drops_its_first_root)
    rc, out, _ = run(capsys, "verify", "--type", "A2", "--conjecture", "HD")
    assert rc == EXIT_FAILURES
    doc = json.loads(out)
    system = build_system("A2")
    elements = [system.element(i) for i in range(system.size)]
    inverting_root_0 = [
        left_reflection_set(join_bruteforce(u, v)).bits & 1
        for u in elements for v in elements
    ]
    assert doc["failure_count"] == sum(inverting_root_0) > 0
    first = doc["failures"][0]
    assert list(first) == [
        "u", "v", "join_inversions", "reachable_left", "reachable_right"
    ]
    assert first["reachable_left"] != first["reachable_right"]
    assert first["join_inversions"] == first["reachable_right"]


def test_verify_report_file_and_text_summary(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "verify", "--type", "A3", "--conjecture", "D",
                     "--report", str(target))
    assert rc == EXIT_OK
    # default format is text: stdout is the one-line summary
    assert "A3 D:" in out
    assert "576 pairs, 0 failures" in out
    doc = json.loads(target.read_text())
    assert doc["conjecture"] == "D"
    assert list(doc.keys())[0] == "schema"


def test_verify_json_to_stdout_and_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "verify", "--type", "A2", "--format", "json",
                     "--report", str(target))
    assert rc == EXIT_OK
    assert json.loads(out) == json.loads(target.read_text())


def test_verify_workers_flag(capsys):
    rc, out, _ = run(capsys, "verify", "--type", "A3", "--workers", "2")
    assert rc == EXIT_OK
    assert json.loads(out)["workers"] == 2


# -- matrix input ----------------------------------------------------------------------


def test_matrix_file_round_trip(tmp_path, capsys):
    doc = {"rank": 2, "m": [[1, 5], [5, 1]], "name": "pentagon"}
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "roots", "--matrix", str(path), "--format", "json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 5
    assert doc["type"] == "pentagon"


def test_matrix_verify(tmp_path, capsys):
    doc = {"m": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]}  # A3 in disguise
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "--matrix", str(path))
    assert rc == EXIT_OK
    assert json.loads(out)["pairs_checked"] == 576


# -- failure and error paths -----------------------------------------------------------


def test_both_type_and_matrix_is_usage_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"m": [[1, 3], [3, 1]]}))
    rc, _, err = run(capsys, "roots", "--type", "A2", "--matrix", str(path))
    assert rc == EXIT_USAGE
    assert "error" in err


def test_neither_type_nor_matrix_is_usage_error(capsys):
    rc, _, err = run(capsys, "roots")
    assert rc == EXIT_USAGE
    assert "error" in err


def test_unknown_type_is_usage_error(capsys):
    rc, _, err = run(capsys, "roots", "--type", "Z9")
    assert rc == EXIT_USAGE
    assert "error" in err


def test_missing_matrix_file_is_usage_error(tmp_path, capsys):
    rc, _, err = run(capsys, "roots", "--matrix", str(tmp_path / "absent.json"))
    assert rc == EXIT_USAGE


def test_unparsable_element_is_usage_error(capsys):
    rc, _, err = run(capsys, "join", "--type", "A3", "--u", "97", "--v", "1")
    assert rc == EXIT_USAGE
    assert "cannot parse element" in err


def test_cap_exceeded_is_construction_error(capsys):
    rc, _, err = run(capsys, "verify", "--type", "F4", "--cap", "10")
    assert rc == EXIT_CONSTRUCTION
    assert "construction error" in err


# the routes' tables check |Phi_x| = length(x), so an inversion set corrupted
# after set-up stops every conjecture before its sets are compared
@pytest.mark.parametrize("conjecture", ["H", "D", "HD", "EQ"])
def test_broken_inversion_table_is_construction_error(monkeypatch, capsys, conjecture):
    system = build_system("A3")
    system.inv_words = system.inv_words.copy()
    system.inv_words[system.longest_element.index] = 0  # as short as e
    monkeypatch.setattr(cli, "build_system", lambda *args, **kwargs: system)
    rc, out, err = run(capsys, "verify", "--type", "A3", "--conjecture", conjecture)
    assert rc == EXIT_CONSTRUCTION
    assert out == ""
    assert err == (
        "construction error: an inversion set's size is not its element's length\n"
    )


# "EQ" compares the two routes only and computes no join when they agree,
# so the conjectures that read the join carry this check
@pytest.mark.parametrize("conjecture", ["H", "D", "HD"])
def test_broken_cone_table_is_construction_error(monkeypatch, capsys, conjecture):
    # the join looks its closures up among the inversion sets: with a1 + a2
    # gone from cone(a1, a2), {a1, a2} = Phi(s1) | Phi(s2) is its own
    # closure and no element's inversion set
    system = build_system("A3")
    cones = system.table.cone_words()
    cones[0, 1, 0] = cones[1, 0, 0] = np.uint64(0b011)
    monkeypatch.setattr(cli, "build_system", lambda *args, **kwargs: system)
    rc, out, err = run(capsys, "verify", "--type", "A3", "--conjecture", conjecture)
    assert rc == EXIT_CONSTRUCTION
    assert out == ""
    assert err == (
        "construction error: the closure of a union is no element's inversion "
        "set: the cone table is inconsistent\n"
    )


def test_malformed_matrix_file_is_usage_error(tmp_path, capsys):
    for body in (
        '{"rank": 2}', "[1, 2]", "{not json", '{"m": [[1, 1], [1, 1]]}',
        # labels must be JSON integers: no float, bool or string is read as one
        '{"m": [[1, 3.7], [3.7, 1]]}',
        '{"m": [[true, 3], [3, true]]}',
        '{"m": [[1, "5"], ["5", 1]]}',
    ):
        path = tmp_path / "bad.json"
        path.write_text(body)
        rc, out, err = run(capsys, "roots", "--matrix", str(path))
        assert (rc, out) == (EXIT_USAGE, ""), body
        assert err.startswith("error: bad matrix file"), body


def test_bad_workers_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("WEAKORDER_WORKERS", "junk")
    rc, out, err = run(capsys, "verify", "--type", "A2")
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == "error: WEAKORDER_WORKERS must be a positive integer\n"


def test_workers_flag_below_one_is_usage_error(capsys):
    rc, out, err = run(capsys, "verify", "--type", "A2", "--workers", "0")
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == "error: workers must be a positive integer\n"


@pytest.mark.parametrize("sample", ["0", "-5"])
def test_sample_below_one_is_usage_error(capsys, sample):
    rc, out, err = run(capsys, "verify", "--type", "A2", "--sample", sample)
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == "error: sample must be a positive integer\n"


def test_sweep_past_the_root_guard_is_usage_error(capsys):
    rc, out, err = run(capsys, "verify", "--type", "I2(65)")
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == "error: sweeps support at most 64 positive roots\n"


def test_one_line_notation_outside_type_a_is_usage_error(capsys):
    rc, out, err = run(capsys, "join", "--type", "B3", "--u", "2134", "--v", "1")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "cannot parse element" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(u, v):
        raise ValueError("operands belong to different rings")

    monkeypatch.setattr(cli, "check_conjecture_H", broken)
    rc, out, err = run(capsys, "join", "--type", "A3", "--u", "1", "--v", "2")
    assert (rc, out) == (EXIT_INTERNAL, "")
    assert "Traceback" in err
    assert err.endswith(
        "internal error: ValueError: operands belong to different rings\n"
    )


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.

    Its file descriptor is a file of the test's own, so that pointing it at
    devnull touches no descriptor of the test run.
    """

    def __init__(self, path):
        self.file = open(path, "wb")

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.file.fileno()


@pytest.mark.parametrize("argv", [
    ("roots", "--type", "E8"),
    ("join", "--type", "A3", "--u", "1", "--v", "2", "--format", "json"),
])
def test_closed_stdout_exits_quietly_with_sigpipe_code(monkeypatch, capsys, tmp_path, argv):
    pipe = _ClosedPipe(tmp_path / "stdout")
    monkeypatch.setattr(sys, "stdout", pipe)
    try:
        rc = main(list(argv))
        # the descriptor now writes to devnull, so a flush at exit cannot fail
        os.write(pipe.fileno(), b"after the pipe closed")
    finally:
        pipe.file.close()
    monkeypatch.undo()
    assert rc == EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


def test_infinite_matrix_is_construction_error(tmp_path, capsys):
    doc = {"m": [[1, 0], [0, 1]]}  # m=0 means the infinite bond
    path = tmp_path / "aff.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "roots", "--matrix", str(path), "--cap", "200")
    assert rc in (EXIT_USAGE, EXIT_CONSTRUCTION)
    assert err


# -- element parsing -------------------------------------------------------------------


def test_parse_element_word_vs_one_line():
    system = build_system("A3")
    word = parse_element(system, "1 2 1")
    assert word.length == 3  # s1 s2 s1 is reduced
    assert parse_element(system, "e") == system.identity
    assert parse_element(system, "") == system.identity
    perm = parse_element(system, "2134")
    assert perm == system.element_from_word([1])
    comma = parse_element(system, "2,1,3,4")
    assert comma == perm


def test_parse_element_prefers_word_reading():
    # "1 2" could only be a word: too short for one-line notation on 4 letters
    system = build_system("A3")
    element = parse_element(system, "1 2")
    assert element.length == 2


def test_parse_element_rejects_non_permutation():
    system = build_system("A3")
    with pytest.raises(UsageError):
        parse_element(system, "1135")
    with pytest.raises(UsageError):
        parse_element(system, "what")


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_module_exit_codes_are_distinct():
    codes = {EXIT_OK, EXIT_FAILURES, EXIT_USAGE, EXIT_CONSTRUCTION, EXIT_INTERNAL,
             EXIT_BROKEN_PIPE}
    assert len(codes) == 6
    assert cli.EXIT_OK == 0
