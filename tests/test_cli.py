import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cartcodes
from cartcodes.cli import main, parse_field, parse_range, UsageError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reproduce_paper_passes(capsys):
    code, out, _ = run(capsys, "reproduce-paper")
    assert code == 0
    assert "7/7 reference examples reproduced" in out
    assert "suspected misprint" in out


def test_reproduce_paper_json(capsys):
    code, out, _ = run(capsys, "reproduce-paper", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == payload["total"] == 7
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "gf7-012-ones",
        "gf7-012-112",
        "gf7-013-ones",
        "gf13-eea",
        "gf17-eea",
        "gf13-grid",
        "gf17-grid",
    ]


def test_params_json(capsys):
    code, out, _ = run(
        capsys,
        "params",
        "--field", "13",
        "--set", "0,2,3,5,6,8,10,11",
        "--k", "4",
        "--budget", "1000000",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    assert payload["dim"] == 4
    assert payload["d_formula"] == 5  # 9 - k for this one-component code
    assert payload["d_bruteforce"] == 5
    assert payload["mds"] is True


def test_params_three_point_code(capsys):
    code, out, _ = run(
        capsys, "params", "--field", "7", "--set", "0,1,2", "--k", "2",
        "--budget", "1000", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["dim"], payload["d_formula"]) == (3, 2, 2)
    assert payload["d_bruteforce"] == 2


def test_params_full_space_note(capsys):
    code, out, _ = run(capsys, "params", "--field", "7", "--set", "0,1,2", "--k", "5")
    assert code == 0
    assert "full space" in out


def test_dual_json(capsys):
    code, out, _ = run(
        capsys, "dual", "--field", "7", "--set", "0,1,2", "--k", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k_dual"] == 1
    assert payload["verified"] == {"orthogonal": True, "dimension_sum": 3}


def test_dual_zero_marker(capsys):
    code, out, _ = run(capsys, "dual", "--field", "7", "--set", "0,1,2", "--k", "3")
    assert code == 0
    assert "zero code" in out


def test_lcd_range_and_expectation(capsys):
    code, out, _ = run(
        capsys,
        "lcd",
        "--field", "13",
        "--set", "0,2,3,5,6,8,10,11",
        "--k-range", "1:8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    verdicts = [line.split(":")[1].strip().startswith("LCD") for line in lines]
    assert verdicts == [True, True, True, True, True, False, False, True]

    code, _, _ = run(
        capsys,
        "lcd",
        "--field", "7",
        "--set", "0,1,2",
        "--scalars", "1,1,2",
        "--k", "2",
        "--expect-lcd",
    )
    assert code == 1


def test_lcd_multicomponent(capsys):
    code, out, _ = run(
        capsys,
        "lcd",
        "--field", "7",
        "--set", "0,1,2;0,1,2",
        "--scalars", "1,1,1;1,1,1",
        "--k", "2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lcd"] is True
    assert payload["method"] in ("gram", "intersection")


def test_search_ndjson_and_zero_budget(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--field", "7",
        "--sizes", "3",
        "--k-range", "2:2",
        "--budget", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    records = [json.loads(line) for line in lines]
    assert all("lcd" in r for r in records[:-1])
    assert records[-1] == {"truncated": True, "examined": 4, "budget": 4}

    code, out, _ = run(
        capsys,
        "search",
        "--field", "7",
        "--sizes", "3",
        "--k-range", "2:2",
        "--budget", "0",
    )
    assert code == 0
    assert json.loads(out.strip()) == {"truncated": True, "examined": 0, "budget": 0}


def test_masking_transcript_deterministic(capsys):
    args = (
        "masking",
        "--field", "7",
        "--set", "0,1,2",
        "--k", "2",
        "--trials", "40",
        "--seed", "3",
        "--json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["all_missed_in_C"] is True


def test_masking_rejects_non_lcd(capsys):
    code, out, err = run(capsys, "masking", "--field", "7", "--set", "0,1,2",
                         "--scalars", "1,1,2", "--k", "2")
    assert code == 1
    assert out == ""
    assert "is not LCD" in err and len(err.strip().splitlines()) == 1


def test_usage_errors_exit_two(capsys):
    cases = [
        ("params", "--field", "6", "--set", "0,1", "--k", "1"),
        ("params", "--field", "7", "--set", "0,0,1", "--k", "1"),
        ("params", "--field", "7", "--set", "0,1,2", "--k", "0"),
        ("params", "--field", "7", "--set", "0,1,2", "--scalars", "1,2", "--k", "1"),
        ("params", "--field", "7", "--set", "0,1,2", "--scalars", "0,1,1", "--k", "1"),
        ("lcd", "--field", "7", "--set", "0,1,2"),
        ("params", "--field", "2^2:1,0,1", "--set", "0,1", "--k", "1"),
        ("lcd", "--field", "7", "--set", "0,1,2", "--scalars", "1,1,0", "--k", "2"),
        ("search", "--field", "7", "--sizes", "3", "--k-range", "1:2",
         "--scalar-policy", "bogus"),
        ("search", "--field", "7", "--sizes", "3", "--k-range", "0:1"),
        ("search", "--field", "7", "--m", "0", "--sizes", "3", "--k-range", "1:1"),
        ("search", "--field", "7", "--sizes", "9", "--k-range", "1:1"),
        ("params", "--field", "7", "--set", "0,1,2", "--k", "2", "--budget", "-1"),
        ("masking", "--field", "7", "--set", "0,1,2", "--k", "2", "--trials", "-5"),
        ("search", "--field", "7", "--sizes", "3", "--k-range", "1:2", "--budget", "-1"),
        ("masking", "--field", "13", "--set", "0,1,2,3,4,5,6,7", "--k", "2",
         "--exhaustive"),
        ("lcd", "--field", "2^256", "--set", "0,1,2", "--k", "2"),
        ("params", "--field", "2147483647^4", "--set", "0,1", "--k", "1"),
        ("params", "--field", "2147483647^16", "--set", "0,1", "--k", "1"),
        ("lcd", "--field", "7", "--set", "0,1,2", "--k-range", "1:99999999999"),
        ("search", "--field", "7", "--sizes", "1:99999999999", "--k-range", "1"),
        ("search", "--field", "37", "--sizes", "4", "--k-range", "1",
         "--scalar-policy", "random:0"),
        ("search", "--field", "7", "--sizes", "3", "--k-range", "1",
         "--scalar-policy", "random:\u00b2"),
        ("search", "--field", "7", "--m", "24", "--sizes", "2", "--k-range", "1",
         "--budget", "1"),
        ("search", "--field", "7", "--m", "1000000000", "--sizes", "1:2", "--k-range", "1"),
        ("params", "--field", "2305843009213693951", "--set", "0,1,2", "--scalars", "1,1,1",
         "--k", "1"),
        ("lcd", "--field", "11", "--set", ";".join([",".join(map(str, range(11)))] * 3),
         "--k", "1"),
        # codes outside [0, q) over a prime field
        ("lcd", "--field", "7", "--set", "0,8", "--k", "1"),
        ("lcd", "--field", "7", "--set", "1,8", "--k", "1"),
        ("params", "--field", "7", "--set=-1,2", "--scalars", "1,9", "--k", "1", "--json"),
        ("params", "--field", "7", "--set", "0,2", "--scalars", "1,9", "--k", "1", "--json"),
        # grids refused before any point is enumerated: 2^40 and 3^12 points
        *((command, "--field", "7", "--set", ";".join(["0,1"] * 40), "--k", "1")
          for command in ("lcd", "params", "dual", "masking")),
        *((command, "--field", "7", "--set", ";".join(["0,1,2"] * 12), "--k", "1")
          for command in ("lcd", "dual", "masking")),
        ("masking", "--field", "7", "--set", ";".join(["0,1,2"] * 7), "--k", "1"),
        # one component whose n x n stack is past the oracle's budget
        ("masking", "--field", "1009", "--set", ",".join(map(str, range(1001))), "--k", "1"),
    ]
    named = {
        cases[7]: "--scalars",
        cases[8]: "--scalar-policy",
        cases[9]: "--k-range",
        cases[10]: "--m",
        cases[11]: "--sizes",
        cases[12]: "--budget",
        cases[13]: "--trials",
        cases[14]: "--budget",
        cases[15]: "--exhaustive",
        cases[16]: "--field",
        cases[17]: "--field",
        cases[18]: "--field",
        cases[19]: "--k-range",
        cases[20]: "--sizes",
        cases[21]: "--scalar-policy",
        cases[22]: "--scalar-policy",
        cases[23]: "--m",
        cases[24]: "--m",
        cases[25]: "--field",
        cases[26]: "--set",
        cases[27]: "--set",
        cases[28]: "--set",
        cases[29]: "--set",
        cases[30]: "--scalars",
        **{argv: "--set" for argv in cases[31:]},
    }
    for argv in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert not out, argv
        assert err.strip(), argv
        if argv in named:
            assert err.startswith(f"error: {named[argv]}:"), argv


def test_counts_past_the_decimal_digit_limit(capsys):
    # (2^31 - 1)^480 and ^470 have over 4,300 digits, more than the
    # interpreter converts to decimal by default
    points = [str(x) for x in range(500)]
    code, out, _ = run(capsys, "params", "--field", "2147483647", "--set", ",".join(points),
                       "--k", "480", "--budget", "10", "--json")
    assert code == 0
    assert json.loads(out)["d_bruteforce_skipped"] == (
        "enumeration of more than 10^4478 codewords exceeds budget 10"
    )
    code, out, err = run(capsys, "masking", "--field", "2147483647", "--set",
                         ",".join(points[:470]), "--k", "1", "--exhaustive")
    assert code == 2 and not out
    assert err == (
        "error: --exhaustive: enumeration of more than 10^4385 items exceeds budget 1000000\n"
    )


def test_params_bounds_a_grid_by_its_generator_cells(capsys):
    # 101 x 101 points: a degree-2 generator has 3 rows of 10,201 columns,
    # a degree-100 one 5,050 rows, past DEFAULT_BRUTE_BUDGET cells
    grid = ";".join([",".join(map(str, range(101)))] * 2)
    code, out, _ = run(capsys, "params", "--field", "101", "--set", grid, "--k", "2", "--json")
    assert code == 0 and json.loads(out)["dim"] == 3
    code, out, err = run(capsys, "params", "--field", "101", "--set", grid, "--k", "100")
    assert code == 2 and not out
    assert err.startswith("error: --set: a grid of 10201 points is too big")


def test_search_over_large_fields_builds_only_what_it_examines(capsys):
    # the component sets, grids and scalar tails are generated as they are
    # examined, so the first records come at once, whatever the field size
    start = time.perf_counter()
    code, out, _ = run(capsys, "search", "--field", "101", "--sizes", "4", "--k-range", "1",
                       "--budget", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out.splitlines()[0])["components"] == [[0, 1, 2, 3]]
    src = str(Path(cartcodes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    for field, size, policy in (
        ("251", "4", "ones"),
        ("2147483647", "2", "ones"),
        ("2147483647", "2", "exhaustive"),
        ("2147483647", "2", "random:3"),
    ):
        argv = ["search", "--field", field, "--sizes", size, "--k-range", "1",
                "--scalar-policy", policy, "--budget", "3"]
        proc = subprocess.run(
            [sys.executable, "-m", "cartcodes.cli", *argv], capture_output=True, text=True,
            env=env, preexec_fn=cap_address_space, timeout=30,
        )
        assert proc.returncode == 0 and not proc.stderr, (argv, proc.stderr[-500:])
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert records[-1] == {"truncated": True, "examined": 3, "budget": 3}, argv
        assert len(records) == 4 and all(r["n"] == int(size) for r in records[:-1]), argv


def test_extension_field_cli(capsys):
    code, out, _ = run(
        capsys, "params", "--field", "2^2", "--set", "0,1,2,3", "--k", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["dim"] == 2
    assert payload["field"] == {"p": 2, "e": 2, "modulus": [1, 1, 1]}


def test_closed_stdout_exits_one_without_traceback():
    # about 250 KB of records, more than a pipe holds, so the command is
    # still writing when the reader closes its end after two lines
    argv = ["search", "--field", "7", "--m", "2", "--sizes", "2:3", "--k-range", "1:4",
            "--budget", "2000"]
    src = str(Path(cartcodes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cartcodes.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    lines = [json.loads(proc.stdout.readline()) for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert [record["k"] for record in lines] == [1, 2]
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_byte_identical_json(capsys):
    args = ("params", "--field", "7", "--set", "0,1,2", "--k", "2", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_params_json_round_trips_through_config(capsys):
    _, out, _ = run(
        capsys,
        "params",
        "--field", "7",
        "--set", "0,1,2;0,1",
        "--scalars", "1,2,3,4,5,6",
        "--k", "2",
        "--json",
    )
    payload = json.loads(out)
    field_arg = f"{payload['field']['p']}"
    if payload["field"]["e"] > 1:
        field_arg += f"^{payload['field']['e']}"
    set_arg = ";".join(",".join(str(x) for x in comp) for comp in payload["components"])
    scalars_arg = ",".join(str(x) for x in payload["scalars"])
    _, out2, _ = run(
        capsys,
        "params",
        "--field", field_arg,
        "--set", set_arg,
        "--scalars", scalars_arg,
        "--k", str(payload["k"]),
        "--json",
    )
    assert out2 == out


def test_parse_helpers():
    assert parse_field("7").order == 7
    assert parse_field("2^3").order == 8
    assert parse_range("2:4", "--k") == [2, 3, 4]
    assert parse_range("5", "--k") == [5]
    with pytest.raises(UsageError):
        parse_range("4:2", "--k")
    assert len(parse_range("1:1000000", "--k")) == 1_000_000
    with pytest.raises(UsageError, match="1000001 values"):
        parse_range("0:1000000", "--k")
    with pytest.raises(UsageError):
        parse_field("x")


# (good values, bad values) of each flag the spec commands share
_FUZZ_FIELDS = (("7", "11", "13", "2^2", "3^2", "2^8", "2147483647", "2^2:1,1,1"),
                ("6", "1", "2^256", "2147483647^4", "2^2:1,0,1", "7:1", "x", ""))
_FUZZ_GRIDS = (";".join(["0,1"] * 40), ";".join(["0,1,2"] * 12))
_FUZZ_SMALL_SETS = (("0,1,2", "0", "0;0,1,2", "0,1,2;0"),
                    ("0,0,1", "0,1;", ";", "", "0,8", "-1,2", "a", *_FUZZ_GRIDS))
_FUZZ_SETS = (_FUZZ_SMALL_SETS[0] + ("0,1,2,3", "1,2,3,4,5", "0,1;0,1", "0,1,2;0,1",
                                     "0,1;0,1;0,1", "0,1,2,3,4,5,6,7,8,9,10"),
              _FUZZ_SMALL_SETS[1])
_FUZZ_SCALARS = (("ones", "ones", "ones", "1,1,2", "1,2,3,4", "1,2;3,4", "2;3,4"),
                 ("0,1,1", "1,2", "1,1,1;1,1", "1;1", "x", ""))
_FUZZ_K = (("1", "2", "3", "7", "99999999999"), ("0", "-1", "x", ""))


def _fuzz_argv(rng):
    """One command line: a subcommand, then each of its flags with a good
    value, a bad one or none, and now and then an unknown flag."""
    pick = rng.choice

    def flag(name, values):
        good, bad = values
        roll = rng.random()
        if roll < 0.03:
            return []
        return [name, pick(bad if roll < 0.13 else good)]

    def switch(name):
        return [name] if rng.random() < 0.5 else []

    command = pick(("params", "dual", "lcd", "search", "masking", "reproduce-paper"))
    argv = [command]
    if command in ("params", "dual", "lcd", "masking"):
        exhaustive = command == "masking" and rng.random() < 0.3
        # q^n faults: only sets of one or three points, or refused ones, stay fast
        argv += flag("--field", _FUZZ_FIELDS)
        argv += flag("--set", _FUZZ_SMALL_SETS if exhaustive else _FUZZ_SETS)
        argv += flag("--scalars", _FUZZ_SCALARS) + flag("--k", _FUZZ_K) + switch("--json")
        argv += ["--exhaustive"] if exhaustive else []
    if command == "params":
        argv += flag("--budget", (("0", "1", "10", "1000"), ("-1", "x")))
    elif command == "lcd":
        argv += flag("--k-range", (("1:3", "1:8", "2"), ("2:1", "0:2", "1:99999999999", "x")))
        argv += switch("--expect-lcd")
    elif command == "masking":
        argv += flag("--trials", (("0", "1", "5", "20"), ("-5", "x")))
        argv += flag("--seed", (("0", "3", "-1"), ("x",)))
    elif command == "search":
        argv += flag("--field", _FUZZ_FIELDS)
        argv += flag("--m", (("1", "2", "3"), ("0", "24", "x")))
        argv += flag("--sizes", (("1", "3", "2:3", "4"), ("0", "9", "1:99999999999", "x")))
        argv += flag("--k-range", (("1", "1:3"), ("0:1", "2:1", "x")))
        argv += flag("--scalar-policy", (("ones", "exhaustive", "random:2"),
                                         ("random:0", "bogus", "random:\u00b2")))
        # the default budget of 10,000 records is slow, not wrong
        argv += ["--budget", pick(("0", "1", "4", "20", "-1", "x"))]
        argv += flag("--seed", (("0", "5"), ("x",)))
    elif command == "reproduce-paper":
        argv += switch("--json")
    if rng.random() < 0.03:
        argv.append("--bogus")
    return argv


class _CaseTimeout(Exception):
    pass


def _case_timeout(signum, frame):
    raise _CaseTimeout


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
def test_seeded_argv_fuzz(capsys):
    # each case exits 0, 1 or 2 (argparse's own exit 2 included) without a
    # traceback, within the bound; exit 3 would be a disagreement between routes
    rng = random.Random(20)
    seconds = 2.0
    previous = signal.signal(signal.SIGALRM, _case_timeout)
    try:
        for _ in range(1000):
            argv = _fuzz_argv(rng)
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except _CaseTimeout:
                pytest.fail(f"{argv} ran past {seconds} s")
            except Exception as exc:
                pytest.fail(f"{argv} raised {exc!r}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            capsys.readouterr()
            assert code in (0, 1, 2), argv
    finally:
        signal.signal(signal.SIGALRM, previous)
