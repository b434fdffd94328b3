import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from girycheck import cli
from girycheck.cli import SpaceFileError, main, parse_space_file
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


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("fields-demo", "--format", "json", "--out", str(out))
    assert res.returncode == 0
    assert res.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["ok"] is True


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
    # or a verdict changes these bytes.
    assert hashlib.sha256(b1).hexdigest() == (
        "ba488af3817588394e3c94f9833f482b43f21fdedcc8a8eee88671e86e14ba18"
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
# per-space sections spread over the usable CPUs


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count with cpus(n); cpus.forks counts os.fork calls."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()

    monkeypatch.setattr(os, "fork", fork)
    use.forks = forks
    return use


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def report_all(tmp_path, name):
    argv = ["report-all", "--seed", "7", "--budget", "40", "--format", "json"]
    doc, ok = cli.run(cli._build_parser().parse_args(argv))
    out = tmp_path / name
    cli._emit(doc, "json", str(out), 0.0)
    return doc, ok, out.read_bytes()


def test_report_all_is_the_same_on_one_and_four_cpus(tmp_path, cpus):
    cpus(1)
    serial_doc, serial_ok, serial_bytes = report_all(tmp_path, "one.json")
    assert cpus.forks == []
    cpus(4)
    doc, ok, data = report_all(tmp_path, "four.json")
    assert cpus.forks == [os.getpid()] * 3
    # == on the dicts: a tuple that came back from a child as a list would differ
    assert doc == serial_doc and ok is serial_ok is True
    assert data == serial_bytes
    # text output follows the key order of every dict, the children's included
    texts = [io.StringIO(), io.StringIO()]
    cli._render_text(serial_doc, texts[0])
    cli._render_text(doc, texts[1])
    assert texts[0].getvalue() == texts[1].getvalue()
    assert_no_child_left()


@pytest.mark.parametrize("command", ["check-laws", "check-compat"])
def test_all_spaces_run_serially_on_one_cpu(cpus, capsys, command):
    argv = [command, "--space", "all", "--budget", "20", "--format", "json"]
    cpus(1)
    serial_code = main(argv)
    serial_out = capsys.readouterr().out
    assert cpus.forks == []
    cpus(2)
    assert main(argv) == serial_code
    assert capsys.readouterr().out == serial_out
    assert len(cpus.forks) == 1
    assert_no_child_left()


def test_a_section_failing_in_a_child_fails_as_in_a_serial_run(monkeypatch, cpus, capsys):
    ids = sorted(cli.builtin_registry().ids())
    # with four jobs ids[1] belongs to a child and ids[4] to this process;
    # a serial run stops at ids[1] first
    failing = {ids[1], ids[4]}
    real_section = cli._laws_section

    def section(space, metric, seed, budget):
        if space.id in failing:
            raise ValueError(f"cannot check {space.id}")
        return real_section(space, metric, seed, budget)

    monkeypatch.setattr(cli, "_laws_section", section)
    argv = ["check-laws", "--space", "all", "--budget", "10", "--format", "json"]
    results = []
    for n in (1, 4):
        cpus(n)
        results.append((main(argv), capsys.readouterr()))
    (serial_code, serial), (code, parallel) = results
    assert serial_code == code == 2
    assert serial.err == parallel.err == f"girycheck: cannot check {ids[1]}\n"
    assert serial.out == parallel.out == ""
    assert len(cpus.forks) == 3
    assert_no_child_left()


def test_a_child_that_dies_has_its_share_run_here(cpus):
    parent = os.getpid()

    def work(sid):
        if os.getpid() != parent:
            os._exit(3)
        return {"id": sid, "square": [sid * sid]}

    cpus(3)
    assert cli._per_space(range(7), work) == {
        sid: {"id": sid, "square": [sid * sid]} for sid in range(7)
    }
    assert len(cpus.forks) == 2
    assert_no_child_left()
