import json
import os
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
