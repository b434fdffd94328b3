import fcntl
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck import cli
from girycheck.cli import SpaceFileError, main, parse_space_file
from girycheck.measures import FinMeasure, parse_measure, to_text
from girycheck.spaces import SpaceKind


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "girycheck", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# space definition files


def write_spaces(tmp_path, text):
    path = tmp_path / "spaces.txt"
    path.write_text(text)
    return str(path)


def test_parse_space_file_grammar(tmp_path):
    path = write_spaces(
        tmp_path,
        """
        # comment lines and blanks are skipped
        space J kind=geometric carrier=interval -1 1
        space duo kind=discrete carrier=labels A B rule=max metric=discrete

        space JJ kind=geometric carrier=product J J
        glue A@0 -> B@1/2
        space wye kind=mixed carrier=semidirect duo A:J B:J
        """.replace("\n        ", "\n"),
    )
    reg = parse_space_file(path)
    assert reg.space("J").kind is SpaceKind.GEOMETRIC
    assert reg.space("duo").carrier.rule == "max"
    assert reg.metric("duo").name == "discrete"
    assert reg.space("JJ").carrier.components[0].id == "J"
    wye = reg.space("wye")
    glue = wye.carrier.gluings[0]
    assert (glue.src, glue.dst) == ("A", "B")
    # built-ins stay available
    assert reg.space("unit_interval") is not None


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("space X kind=weird carrier=interval 0 1", "kind must be"),
        ("space X carrier=interval 0 1", "kind must be"),
        ("space X kind=geometric carrier=interval 0", "not enough"),
        ("space X kind=geometric carrier=nope 1 2", "unknown carrier"),
        ("space X kind=discrete carrier=interval 0 1", "declared"),
        ("space X kind=geometric carrier=interval 0 1 metric=nope", "unknown metric"),
        ("frobnicate", "unknown directive"),
        ("glue L -> H", "must be"),
        ("space unit_interval kind=geometric carrier=interval 0 1", "duplicate"),
        ("space X kind=mixed carrier=semidirect two 0:unit_interval 1:unit_interval", "glue"),
        ("space X kind=discrete carrier=labels a b rule=collapse", "center"),
        ("space X kind=geometric carrier=interval 1 0", "empty carrier"),
        ("space X kind=geometric carrier=box 1 0", "empty carrier"),
        ("space X kind=geometric carrier=simplex 0", "empty carrier"),
        ("space X kind=mixed carrier=extline 1 0", "empty carrier"),
        ("space X kind=discrete carrier=naturals 0", "empty carrier"),
        ("space X kind=discrete carrier=naturals -3", "empty carrier"),
        ("space X kind=discrete carrier=labels", "empty carrier"),
        ("glue A@x -> B@0", "glue endpoint 'A@x'"),
        ("space X kind=geometric carrier=interval 0 1 metric=discrete", "needs a finite carrier"),
        # a measure header ends at the first ':', so no measure could name it
        ("space a:b kind=discrete carrier=labels x y rule=max", "space id 'a:b' holds ':'"),
    ] + [
        # a label that a measure text could not carry back
        (f"space X kind=discrete carrier=labels a{ch}b c", f"label 'a{ch}b' contains {ch!r}")
        for ch in ",|@()[]"
    ]
    for k, (line, fragment) in enumerate(cases):
        path = write_spaces(tmp_path, "\n" * k + line + "\n")
        with pytest.raises(SpaceFileError) as exc:
            parse_space_file(path)
        assert exc.value.line == k + 1, line
        assert fragment in str(exc.value), line


def test_zero_denominators_are_parse_errors(tmp_path):
    for line in (
        "space X kind=geometric carrier=interval 1/0 1",
        "glue A@1/0 -> B@0",
    ):
        path = write_spaces(tmp_path, "\n" + line + "\n")
        with pytest.raises(SpaceFileError) as exc:
            parse_space_file(path)
        assert exc.value.line == 2, line


# the interval and the branch labels of ROADMAP item 2's space file
ARMS_HEAD = """\
space J kind=geometric carrier=interval 0 1
space tri kind=discrete carrier=labels A B C rule=max
"""
NOT_A_TREE = {
    "cycle": (
        "glue A@0 -> B@1/2\nglue B@0 -> C@1/2\nglue C@0 -> A@1/2\n"
        "space cyc kind=mixed carrier=semidirect tri A:J B:J C:J\n",
        "cyc",
        6,
        "glue C@0 -> A@1/2 closes a cycle",
    ),
    "repeat": (
        "glue A@0 -> B@1/2\nglue A@1 -> B@1/4\nglue B@0 -> C@1/2\n"
        "space rep kind=mixed carrier=semidirect tri A:J B:J C:J\n",
        "rep",
        6,
        "glue A@1 -> B@1/4 closes a cycle",
    ),
    # an endpoint off its unit-interval arm: h once returned the non-point B@2
    "endpoint-off-arm": (
        "glue A@0 -> B@3\nglue B@0 -> C@1/2\n"
        "space off kind=mixed carrier=semidirect tri A:J B:J C:J\n",
        "off",
        5,
        "glue A@0 -> B@3: 3 is not a point of J",
    ),
    # once parsed, and then drew points of the second A arm that z refused
    "repeated-arm": (
        "space K kind=geometric carrier=interval 5 9\n"
        "space duo kind=discrete carrier=labels A B rule=max\nglue A@0 -> B@1/2\n"
        "space z kind=mixed carrier=semidirect duo A:J A:K B:J\n",
        "z",
        6,
        "branch 'A' has two arms",
    ),
    # once refused only as "no gluing path 'A' -> 'C'"
    "not-a-branch": (
        "glue A@0 -> B@1/2\nglue B@0 -> Z@1/2\n"
        "space zed kind=mixed carrier=semidirect tri A:J B:J C:J\n",
        "zed",
        5,
        "glue B@0 -> Z@1/2: no branch 'Z'",
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_A_TREE))
def test_gluings_that_are_not_a_tree_are_parse_errors(tmp_path, case):
    body, space_id, line, message = NOT_A_TREE[case]
    path = write_spaces(tmp_path, ARMS_HEAD + body)
    with pytest.raises(SpaceFileError) as exc:
        parse_space_file(path)
    assert exc.value.line == line
    assert message in str(exc.value)
    res = run_cli("check-laws", "--spaces", path, "--space", space_id)
    assert res.returncode == 2
    assert f"line {line}: {message}" in res.stderr
    assert "Traceback" not in res.stderr


def test_a_discrete_metric_on_a_continuum_exits_two(tmp_path):
    # an uncountable discrete space is not separable, so no monad covers it;
    # it once parsed, and check-laws --space all then exited 1
    path = write_spaces(tmp_path, "space I kind=geometric carrier=interval 0 1 metric=discrete\n")
    res = run_cli("check-laws", "--spaces", path, "--space", "all")
    assert res.returncode == 2
    assert "line 1: the discrete metric needs a finite carrier" in res.stderr
    assert "Traceback" not in res.stderr


def test_a_tree_of_gluings_still_parses(tmp_path):
    body = "glue A@0 -> B@1/2\nglue B@0 -> C@1/2\n"
    body += "space wye kind=mixed carrier=semidirect tri A:J B:J C:J\n"
    reg = parse_space_file(write_spaces(tmp_path, ARMS_HEAD + body))
    assert len(reg.space("wye").carrier.gluings) == 2


# ROADMAP item 2's wye, whose A and C arms meet only through B, and a
# two-arm space with an extended-line arm; both once ended with exit 2 or a
# traceback on every command below
BRANCHED = {
    "wye": (
        ARMS_HEAD + "glue A@0 -> B@1/2\nglue B@0 -> C@1/2\n"
        "space wye kind=mixed carrier=semidirect tri A:J B:J C:J\n",
        "A@1/2",
        "C@1",
    ),
    "xl": (
        "space J kind=geometric carrier=interval 0 1\n"
        "space E kind=mixed carrier=extline -2 2\n"
        "space duo kind=discrete carrier=labels S X rule=max\nglue S@0 -> X@0\n"
        "space xl kind=mixed carrier=semidirect duo S:J X:E\n",
        "S@1/2",
        "X@1",
    ),
}


@pytest.mark.parametrize("space_id", sorted(BRANCHED))
def test_branched_spaces_run_every_command_to_a_verdict(tmp_path, space_id):
    text, x, y = BRANCHED[space_id]
    path = write_spaces(tmp_path, text)
    p, q = tmp_path / "P.msr", tmp_path / "Q.msr"
    p.write_text(f"measure on {space_id}: {x}:1/1\n")
    q.write_text(f"measure on {space_id}: {y}:1/1\n")
    res = run_cli("wasserstein", "--spaces", path, "--space", space_id, str(p), str(q),
                  "--format", "json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["cost"] == doc["brute_cost"] == "3/2"
    for command in (["check-compat", "--space", space_id], ["check-laws", "--space", space_id],
                    ["report-all"]):
        res = run_cli(*command, "--spaces", path, "--budget", "20", "--format", "json")
        assert res.returncode in (0, 1), res.stderr
        assert "Traceback" not in res.stderr


def test_expect_reject_flag(tmp_path):
    path = write_spaces(
        tmp_path,
        "space K kind=discrete carrier=labels p q r rule=collapse:q expect=reject\n",
    )
    reg = parse_space_file(path)
    assert reg.space("K").expect_reject


def test_unknown_component_reference(tmp_path):
    path = write_spaces(tmp_path, "space X kind=geometric carrier=product J J\n")
    with pytest.raises(SpaceFileError) as exc:
        parse_space_file(path)
    assert "unknown space" in str(exc.value)


def test_a_label_with_a_comma_exits_two(tmp_path):
    # it once parsed and passed check-laws, yet `expect` could not read
    # `measure on L: a,b:1/2, c:1/2` back, so no witness on L replayed
    path = write_spaces(tmp_path, "space L kind=discrete carrier=labels a,b c rule=max\n")
    res = run_cli("check-laws", "--spaces", path, "--space", "L")
    assert res.returncode == 2
    assert "line 1: label 'a,b' contains ','" in res.stderr
    assert "Traceback" not in res.stderr


# what a label may hold: no whitespace (tokens split on it), no `#` (a
# comment), no `=` (an option), and none of the measure text's separators
LABEL_TEXT = st.text(
    st.characters(min_codepoint=33, max_codepoint=0x17F, blacklist_categories=("Cc", "Zs"),
                  blacklist_characters="#=" + cli._MEASURE_SYNTAX),
    min_size=1, max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(labels=st.lists(LABEL_TEXT, min_size=1, max_size=6, unique=True), data=st.data())
def test_a_measure_on_declared_labels_reads_back_from_its_text(labels, data):
    text = f"space L kind=discrete carrier=labels {' '.join(labels)} rule=max\n"
    text += "space LL kind=discrete carrier=product L L\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spaces.txt"
        path.write_text(text, encoding="utf-8")
        reg = parse_space_file(path)
    for space in (reg.space("L"), reg.space("LL")):
        points = data.draw(st.lists(st.sampled_from(space.enumerate_elements()), min_size=1,
                                    max_size=4))
        ns = data.draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
        P = FinMeasure.from_pairs(space.id, [(e, Fraction(n, sum(ns))) for e, n in zip(points, ns)])
        assert parse_measure(to_text(P, space), space) == P


# ---------------------------------------------------------------------------
# commands and exit codes


def test_counterexample_json_exit_zero():
    res = run_cli("counterexample", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["schema"] == 1
    assert doc["ok"] is True
    assert doc["compat"]["witness"]["p"] == "1/2"
    assert "elapsed" not in res.stdout


def test_text_mode_prints_timing():
    res = run_cli("fields-demo")
    assert res.returncode == 0
    assert "elapsed:" in res.stdout


def test_check_laws_single_space():
    res = run_cli("check-laws", "--space", "unit_interval", "--budget", "40",
                  "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["spaces"]["unit_interval"]["overall"] == "pass"


def test_check_laws_expected_rejection_passes():
    res = run_cli("check-laws", "--space", "C", "--budget", "40", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    sec = doc["spaces"]["C"]
    assert sec["rejected"] is True and sec["ok"] is True


def test_check_laws_unexpected_rejection_fails(tmp_path):
    spaces = tmp_path / "s.txt"
    spaces.write_text("space K kind=discrete carrier=labels p q r rule=collapse:q\n")
    res = run_cli("check-laws", "--space", "K", "--spaces", str(spaces),
                  "--budget", "40", "--format", "json")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["spaces"]["K"]["ok"] is False


def test_check_compat_reports_failure_with_exit_one():
    res = run_cli("check-compat", "--space", "two", "--budget", "40",
                  "--format", "json")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    sec = doc["spaces"]["two"]
    assert sec["two_point"]["status"] == "fail"
    assert sec["equiv"]["status"] == "pass"


def test_check_compat_pass():
    res = run_cli("check-compat", "--space", "unit_interval", "--budget", "40",
                  "--format", "json")
    assert res.returncode == 0


def test_usage_errors_exit_two(tmp_path):
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("check-laws", "--space", "missing").returncode == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("space X kind=odd carrier=interval 0 1\n")
    res = run_cli("check-laws", "--spaces", str(bad))
    assert res.returncode == 2
    assert "line 1" in res.stderr
    assert run_cli("wasserstein", "--space", "unit_interval",
                   "/no/such/P.msr", "/no/such/Q.msr").returncode == 2
    assert run_cli("fields-demo", "--out", "/no/such/dir/x.json").returncode == 2
    for budget in ("0", "-3"):
        assert run_cli("check-laws", "--space", "unit_interval",
                       "--budget", budget).returncode == 2


def test_wasserstein_command(tmp_path):
    p = tmp_path / "P.msr"
    q = tmp_path / "Q.msr"
    p.write_text("measure on unit_interval: 0:1/2, 1:1/2\n")
    q.write_text("measure on unit_interval: 1/2:1/1\n")
    res = run_cli("wasserstein", "--space", "unit_interval", str(p), str(q),
                  "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["cost"] == "1/2"
    assert doc["brute_cost"] == "1/2"
    assert doc["marginals_ok"] is True
    brute = run_cli("wasserstein", "--space", "unit_interval", str(p), str(q),
                    "--brute", "--format", "json")
    assert json.loads(brute.stdout)["method"] == "brute"


def test_expect_command(tmp_path):
    p = tmp_path / "P.msr"
    p.write_text("measure on rinf-grid: -2:1/4, 3:3/4\n")
    res = run_cli("expect", "--space", "rinf-grid", str(p), "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["expectations"]["coord"] == "7/4"
    assert doc["expectations"]["chi[inf]"] == "0"
    assert doc["algebra"] == "7/4"


def test_malformed_measure_file_exits_two(tmp_path):
    p = tmp_path / "P.msr"
    p.write_text("measure on unit_interval: 0:0.5\n")
    q = tmp_path / "Q.msr"
    q.write_text("measure on unit_interval: 1:1/1\n")
    res = run_cli("wasserstein", "--space", "unit_interval", str(p), str(q))
    assert res.returncode == 2
    # a zero denominator in a weight or a point is a parse error, not a crash
    for sid, bad, good in (
        ("unit_interval", "0:1/0, 1:1/2", "1:1/1"),
        ("unit_interval", "1/0:1/2, 1:1/2", "1:1/1"),
        ("box2", "(1/0,0):1/2, (1,1):1/2", "(1,1):1/1"),
    ):
        p.write_text(f"measure on {sid}: {bad}\n")
        q.write_text(f"measure on {sid}: {good}\n")
        for res in (
            run_cli("expect", "--space", sid, str(p)),
            run_cli("wasserstein", "--space", sid, str(p), str(q)),
        ):
            assert res.returncode == 2
            assert "Traceback" not in res.stderr
            assert "zero denominator" in res.stderr


@pytest.mark.parametrize("bounds", ["10 -", "- -9"])
def test_half_bounded_extline_outside_the_default_grid_is_checked(tmp_path, bounds):
    path = write_spaces(tmp_path, f"space far kind=mixed carrier=extline {bounds}\n")
    for command in ("check-laws", "check-compat"):
        res = run_cli(command, "--spaces", path, "--space", "far")
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("fields-demo", "--format", "json", "--out", str(out))
    assert res.returncode == 0
    assert res.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["ok"] is True


def test_a_reader_that_stops_after_one_line_is_not_a_failure():
    # a one-page pipe, so the reader stops while the report is still being
    # written: once this printed "[Errno 32] Broken pipe" and exited 2
    read_fd, write_fd = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    argv = [sys.executable, "-m", "girycheck", "report-all", "--budget", "20"]
    proc = subprocess.Popen(argv, stdout=write_fd, stderr=subprocess.PIPE)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        assert reader.readline() == b"schema: 1\n"
    _, err = proc.communicate()
    assert err == b""
    assert proc.returncode == 0


def test_main_entry_point_directly(tmp_path, capsys):
    code = main(["counterexample", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "counterexample"


def test_report_all_is_byte_identical_across_hash_seeds(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ("report-all", "--seed", "7", "--budget", "40", "--format", "json")
    r1 = run_cli(*args, "--out", str(out1), env_extra={"PYTHONHASHSEED": "1"})
    r2 = run_cli(*args, "--out", str(out2), env_extra={"PYTHONHASHSEED": "999"})
    assert r1.returncode == 0 and r2.returncode == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    # A pinned digest: any change to a sampler draw, a canonical atom order
    # or a verdict changes these bytes.  Re-pinned with DEFAULT_BUDGET_DIGESTS
    # below, for the same label-carrier verdicts.
    assert hashlib.sha256(b1).hexdigest() == (
        "a2a33cd1e63afa5a49e550ef4ac07b89e34b4dcc9de7f4590472c687ee25d0c9"
    )
    doc = json.loads(b1)
    assert doc["schema"] == 1 and doc["seed"] == 7
    assert doc["ok"] is True
    assert "elapsed" not in b1.decode()


def test_different_seeds_still_pass():
    res = run_cli("check-laws", "--space", "vee", "--seed", "123",
                  "--budget", "40", "--format", "json")
    assert res.returncode == 0


# ---------------------------------------------------------------------------
# per-space sections, in sorted id order in this process


def test_report_all_runs_every_laws_section_here_in_order(monkeypatch):
    real_section = cli._laws_section
    calls = []

    def section(space, metric, seed, budget):
        calls.append(space.id)
        return real_section(space, metric, seed, budget)

    monkeypatch.setattr(cli, "_laws_section", section)
    argv = ["report-all", "--budget", "20", "--format", "json"]
    doc, ok = cli.run(cli._build_parser().parse_args(argv))
    ids = sorted(cli.builtin_registry().ids())
    # a forked child's calls would never reach this list
    assert calls == ids
    assert list(doc["laws"]) == list(doc["equiv"]) == ids
    assert ok is True


def test_a_failing_section_stops_the_run_at_the_first_failing_id(monkeypatch, capsys):
    ids = sorted(cli.builtin_registry().ids())
    failing = {ids[1], ids[4]}
    real_section = cli._laws_section
    calls = []

    def section(space, metric, seed, budget):
        calls.append(space.id)
        if space.id in failing:
            raise ValueError(f"cannot check {space.id}")
        return real_section(space, metric, seed, budget)

    monkeypatch.setattr(cli, "_laws_section", section)
    argv = ["check-laws", "--space", "all", "--budget", "10", "--format", "json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"girycheck: cannot check {ids[1]}\n"
    assert captured.out == ""
    assert calls == ids[:2]


@pytest.mark.parametrize("seed", (1, 7))
def test_report_all_and_check_compat_report_the_same_equiv(seed):
    # report-all once rescanned compat for its equiv section on its own
    # streams, and its witnesses differed from check-compat's at these budgets
    parser = cli._build_parser()
    for budget in ("1", "2", "3", "5"):
        common = ["--seed", str(seed), "--budget", budget, "--format", "json"]
        report, _ = cli.run(parser.parse_args(["report-all", *common]))
        compat, _ = cli.run(parser.parse_args(["check-compat", "--space", "all", *common]))
        assert report["equiv"] == {sid: sec["equiv"] for sid, sec in compat["spaces"].items()}


# sha256 of `report-all --seed S --format json` at the default budget: any
# change to a draw, a verdict, a witness or a note moves these bytes.
# Re-pinned when every label carrier's multiplication law and support
# condition came to be decided from its table: N-min's two verdicts read
# pass, and the notes of the label carriers' decided verdicts changed
DEFAULT_BUDGET_DIGESTS = {
    2026: "e0e31c0bfc5ca30df1c3892e2abd995726c9bbfd36430c3773a9b7eb817b672e",
    1: "c527cce9c23e177cbb298e47e1a7546cdb77f09557d3e204e58963e69c540ada",
}


@pytest.mark.parametrize("seed", DEFAULT_BUDGET_DIGESTS)
def test_report_all_default_budget_bytes_are_pinned(tmp_path, seed):
    argv = ["report-all", "--seed", str(seed), "--format", "json"]
    doc, ok = cli.run(cli._build_parser().parse_args(argv))
    out = tmp_path / "report.json"
    cli._emit(doc, "json", str(out), 0.0)
    assert ok is True
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_BUDGET_DIGESTS[seed]
