"""End-to-end command line behaviour: exit codes, golden outputs,
reproducibility."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
SPEC_KS2 = os.path.join(GOLDEN, "kantor_simple_q2.spec")


def run(*args, cwd=None, timeout=None):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(HERE, "..", "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "ovoid7.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout)
    return proc


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def normalized(out_text, command):
    rep = json.loads(out_text)
    rep["manifest"]["command"] = command
    return rep


# -- exit code matrix -----------------------------------------------------------


def test_exit_codes_matrix(tmp_path):
    spec8 = tmp_path / "ks8.txt"
    r = run("construct", "--family", "kantor-simple", "--q", "8",
            "--spec-out", str(spec8), "--no-timing")
    assert r.returncode == 0
    assert run("verify", "--q", "8", "--spec", str(spec8), "--no-timing").returncode == 1
    assert run("verify", "--q", "2", "--spec", SPEC_KS2, "--no-timing").returncode == 0
    # unsupported parameters
    assert run("construct", "--family", "dye", "--q", "4").returncode == 3
    assert run("construct", "--family", "famiglia1", "--q", "7").returncode == 3
    # usage / parse errors
    bad = tmp_path / "bad.txt"
    bad.write_text("x*y+w\nx\ny\n")
    assert run("verify", "--q", "2", "--spec", str(bad)).returncode == 2
    short = tmp_path / "short.txt"
    short.write_text("x\n")
    assert run("verify", "--q", "2", "--spec", str(short)).returncode == 2
    assert run("verify", "--q", "12", "--spec", SPEC_KS2).returncode == 2
    assert run("nonsense").returncode == 2


def test_field_orders_above_2_20_exit_3_before_factoring():
    # trial division of the Mersenne prime 2^61 - 1 would take minutes
    for q in ("2305843009213693951", "2305843009213693951^1", "2^100000000", "3000000"):
        r = run("verify", "--q", q, "--spec", SPEC_KS2, timeout=10)
        assert r.returncode == 3, (q, r.stderr)
        assert "exceeds supported range 2^20" in r.stderr and "Traceback" not in r.stderr


def test_bounds_past_the_double_range_exit_3():
    for radius in ("2000", "20000", "1" + "0" * 1000):
        r = run("hypersurface", "--q", "2", "--action", "bounds", "--r", radius, "--d", "3",
                timeout=10)
        assert r.returncode == 3, (radius, r.stderr)
        assert "reach 2^1024" in r.stderr and "Traceback" not in r.stderr
        assert "Infinity" not in r.stdout


def test_thas_kantor_verifies_via_cli(tmp_path):
    spec = tmp_path / "tk.txt"
    assert run("construct", "--family", "thas-kantor", "--q", "3",
               "--spec-out", str(spec)).returncode == 0
    assert run("verify", "--q", "3", "--spec", str(spec)).returncode == 0


# -- golden reports ---------------------------------------------------------------


def test_golden_construct():
    r = run("construct", "--family", "kantor-simple", "--q", "2", "--no-timing")
    assert r.returncode == 0
    got = normalized(r.stdout, golden("construct_kantor_simple_q2.json")["manifest"]["command"])
    assert got == golden("construct_kantor_simple_q2.json")


def test_golden_verify():
    r = run("verify", "--q", "2", "--spec", SPEC_KS2, "--no-timing")
    assert r.returncode == 0
    got = normalized(r.stdout, golden("verify_kantor_simple_q2.json")["manifest"]["command"])
    assert got == golden("verify_kantor_simple_q2.json")


def test_golden_scan():
    r = run("hypersurface", "--q", "2", "--spec", SPEC_KS2, "--action", "scan",
            "--no-timing")
    assert r.returncode == 0
    got = normalized(r.stdout, golden("scan_kantor_simple_q2.json")["manifest"]["command"])
    assert got == golden("scan_kantor_simple_q2.json")


def test_golden_kerdock():
    r = run("kerdock", "--family", "kantor-simple", "--q", "4", "--no-timing")
    assert r.returncode == 0
    got = normalized(r.stdout, golden("kerdock_kantor_simple_q4.json")["manifest"]["command"])
    assert got == golden("kerdock_kantor_simple_q4.json")


def test_rerun_is_byte_identical(tmp_path):
    a = run("verify", "--q", "2", "--spec", SPEC_KS2, "--no-timing")
    b = run("verify", "--q", "2", "--spec", SPEC_KS2, "--no-timing")
    assert a.stdout == b.stdout


# -- cross-command consistency ------------------------------------------------------


def test_famiglia2_all_zero_equals_kantor_2mod3(tmp_path):
    f2 = tmp_path / "f2.txt"
    k23 = tmp_path / "k23.txt"
    assert run("construct", "--family", "famiglia2", "--q", "8", "--param",
               "all=0", "--spec-out", str(f2)).returncode == 0
    assert run("construct", "--family", "kantor-2mod3", "--q", "8",
               "--spec-out", str(k23)).returncode == 0
    assert f2.read_text() == k23.read_text()


def test_search_cli(tmp_path):
    out = tmp_path / "results.json"
    r = run("search", "--q", "2", "--max-degree", "2", "--restriction",
            "homogeneous-top", "--budget", str(1 << 20), "--out", str(out),
            "--no-timing")
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["ovoids_found"] == 8
    assert len(rep["specs"]) == 8
    assert rep["candidates_tested"] == 2 ** 18


def test_search_cli_with_mask_file(tmp_path):
    mask = tmp_path / "mask.json"
    mask.write_text(json.dumps({
        "f1": {"x*y": 1, "z^2": 1, "x^2": 0, "y^2": 0, "x*z": 0, "y*z": 0,
               "x": 0, "y": 0, "z": 0}}))
    out = tmp_path / "res.json"
    r = run("search", "--q", "2", "--max-degree", "2", "--mask", str(mask),
            "--budget", str(1 << 20), "--out", str(out), "--no-timing")
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["candidates_tested"] == 2 ** 18
    assert rep["ovoids_found"] > 0
    assert all(s[0] == "x*y+z^2" for s in rep["specs"])


def test_hypersurface_actions(tmp_path):
    r = run("hypersurface", "--q", "2", "--spec", SPEC_KS2, "--action", "build",
            "--no-timing")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["degree"] == 3 and rep["diagonal_vanishes"]

    ke = tmp_path / "ke4.txt"
    assert run("construct", "--family", "kantor-even", "--q", "4",
               "--spec-out", str(ke)).returncode == 0
    r = run("hypersurface", "--q", "4", "--spec", str(ke), "--action",
            "plane-check", "--witness", "default-basis", "--no-timing")
    assert r.returncode == 0
    assert json.loads(r.stdout)["residual_zero"] is True

    f1 = tmp_path / "f1.txt"
    assert run("construct", "--family", "famiglia1", "--q", "5", "--param",
               "eps=-1", "--spec-out", str(f1)).returncode == 0
    r = run("hypersurface", "--q", "5", "--spec", str(f1), "--action",
            "quadric-check", "--no-timing")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["residual_zero"] is True
    assert rep["solved_entries"]["epsilon"] == -1

    r = run("hypersurface", "--q", "1024", "--action", "bounds", "--r", "5",
            "--d", "3", "--no-timing")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["lw_radius"] == 2.0 ** 46
    assert rep["lang_weil_constant"] == "not computed"


def test_quadric_check_with_witness_file(tmp_path):
    f2 = tmp_path / "f2.txt"
    assert run("construct", "--family", "famiglia2", "--q", "2", "--param",
               "all=0", "--spec-out", str(f2)).returncode == 0
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({
        "QR": [0, 1, 1, 0, 0, 1], "QS": [0, 1, 1, 0, 0, 1],
        "LR": [0, 0, 0, 1], "MR": [0, 1, 0, 0], "NR": [0, 1, 1, 0],
        "xi": [0, 1]}))
    r = run("hypersurface", "--q", "2", "--spec", str(f2), "--action",
            "quadric-check", "--witness", str(witness), "--no-timing")
    assert r.returncode == 0
    assert json.loads(r.stdout)["residual_zero"] is True
    # a wrong witness fails with exit 1
    witness.write_text(json.dumps({
        "QR": [0, 1, 1, 0, 0, 1], "QS": [0, 1, 1, 0, 0, 1],
        "LR": [0, 0, 0, 1], "MR": [0, 1, 1, 0], "NR": [0, 1, 1, 0],
        "xi": [0, 1]}))
    r = run("hypersurface", "--q", "2", "--spec", str(f2), "--action",
            "quadric-check", "--witness", str(witness), "--no-timing")
    assert r.returncode == 1


def test_kerdock_failure_exit(tmp_path):
    zero = tmp_path / "zero.txt"
    zero.write_text("0\n0\n0\n")
    assert run("kerdock", "--q", "2", "--spec", str(zero)).returncode == 1


def test_search_budget_exit_code():
    r = run("search", "--q", "3", "--max-degree", "2", "--budget", "1000000")
    assert r.returncode == 3
    assert "unsupported" in r.stderr


def test_reader_closing_the_pipe_keeps_the_verdict(tmp_path):
    # the q = 2 search report is far larger than a pipe buffer, so the
    # command is still writing when the reader closes its end
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(HERE, "..", "src")) + os.pathsep \
        + env.get("PYTHONPATH", "")
    out = tmp_path / "search.json"
    proc = subprocess.Popen([sys.executable, "-m", "ovoid7.cli", "search", "--q", "2",
                             "--no-timing", "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err       # 4,096 ovoids found
    assert err == ""                              # no BrokenPipeError traceback
    assert len(out.read_bytes()) > 100 * 1024 and json.loads(out.read_text())["ovoids_found"] == 4096


def test_threads_identical_output():
    a = run("verify", "--q", "4", "--spec", _spec_q4(), "--threads", "1", "--no-timing")
    b = run("verify", "--q", "4", "--spec", _spec_q4(), "--threads", "4", "--no-timing")
    assert a.returncode == b.returncode == 0
    ja, jb = json.loads(a.stdout), json.loads(b.stdout)
    ja["manifest"]["command"] = jb["manifest"]["command"] = "x"
    assert ja == jb


def test_route_threads_identical_output(tmp_path):
    # q = 16 takes the difference route: kantor-simple passes, the zero
    # triple fails with the pair scan's witness
    ks = tmp_path / "ks16.txt"
    assert run("construct", "--family", "kantor-simple", "--q", "16",
               "--spec-out", str(ks)).returncode == 0
    zero = tmp_path / "zero.txt"
    zero.write_text("0\n0\n0\n")
    for spec, code in ((ks, 0), (zero, 1)):
        a, b = (run("verify", "--q", "16", "--spec", str(spec), "--threads", t, "--no-timing")
                for t in ("1", "2"))
        assert a.returncode == b.returncode == code
        ja, jb = json.loads(a.stdout), json.loads(b.stdout)
        assert ja["route"] == "difference"
        ja["manifest"]["command"] = jb["manifest"]["command"] = "x"
        assert ja == jb


def test_routes_refuse_above_their_limits(tmp_path):
    xyz = tmp_path / "xyz.txt"
    xyz.write_text("x*y*z\n0\n0\n")
    ks = tmp_path / "ks.txt"
    ks.write_text("x*y+z^2\nx*z+y^2+z^2\ny*z+x^2+y^2+z^2\n")
    for q, spec, limit in (("128", xyz, "pair-scan route supports q <= 64"),
                           ("256", ks, "difference route supports q <= 128")):
        for argv in (["verify"], ["hypersurface", "--action", "scan"]):
            r = run(*argv, "--q", q, "--spec", str(spec), "--threads", "1")
            assert r.returncode == 3, (q, argv)           # EXIT_UNSUPPORTED
            assert r.stdout == "" and limit in r.stderr


def test_kerdock_threads_identical_output():
    # q = 16 spreads the scan over several blocks; q = 8 fails (exit 1)
    for q, code in (("16", 0), ("8", 1)):
        a, b = (run("kerdock", "--family", "kantor-simple", "--q", q, "--threads", t,
                    "--no-timing") for t in ("1", "2"))
        assert a.returncode == b.returncode == code
        ja, jb = json.loads(a.stdout), json.loads(b.stdout)
        assert ja["all_differences_nonsingular"] == (code == 0)
        ja["manifest"]["command"] = jb["manifest"]["command"] = "x"
        assert ja == jb


_Q4_CACHE = None


def _spec_q4():
    global _Q4_CACHE
    if _Q4_CACHE is None:
        import tempfile

        fd, path = tempfile.mkstemp(suffix=".txt")
        os.close(fd)
        r = run("construct", "--family", "kantor-simple", "--q", "4",
                "--spec-out", path)
        assert r.returncode == 0
        _Q4_CACHE = path
    return _Q4_CACHE


def test_help_schemas():
    r = run("--help-schemas")
    assert r.returncode == 0
    schemas = json.loads(r.stdout)
    assert "verify" in schemas and "manifest" in schemas


def test_every_report_matches_its_schema(tmp_path, capsys):
    from ovoid7.cli import main

    schemas = json.loads(run("--help-schemas").stdout)
    ke = str(tmp_path / "ke4.txt")
    f1 = str(tmp_path / "f1.txt")
    calls = {
        "construct": ["construct", "--family", "kantor-even", "--q", "4", "--spec-out", ke],
        "verify": ["verify", "--q", "2", "--spec", SPEC_KS2],
        "kerdock": ["kerdock", "--family", "kantor-simple", "--q", "2"],
        "search": ["search", "--q", "2", "--restriction", "homogeneous-top"],
        "build": ["hypersurface", "--q", "2", "--spec", SPEC_KS2, "--action", "build"],
        "scan": ["hypersurface", "--q", "2", "--spec", SPEC_KS2, "--action", "scan"],
        "plane-check": ["hypersurface", "--q", "4", "--spec", ke, "--action", "plane-check"],
        "quadric-check": ["hypersurface", "--q", "5", "--spec", f1, "--action", "quadric-check"],
        "bounds": ["hypersurface", "--q", "7", "--action", "bounds", "--r", "5", "--d", "3"],
    }
    assert set(schemas) == set(calls) | {"manifest"}
    assert main(["construct", "--family", "famiglia1", "--q", "5", "--spec-out", f1]) == 0
    capsys.readouterr()
    holds = {"verify": lambda r: r["is_ovoid"],
             "kerdock": lambda r: r["all_differences_nonsingular"],
             "search": lambda r: r["ovoids_found"] > 0,
             "build": lambda r: r["diagonal_vanishes"],
             "scan": lambda r: r["off_diagonal"] == 0,
             "plane-check": lambda r: r["residual_zero"],
             "quadric-check": lambda r: r["residual_zero"]}
    for name, argv in calls.items():
        out = tmp_path / f"{name}.json"
        code = main(argv + ["--no-timing", "--threads", "1", "--out", str(out)])
        text = capsys.readouterr().out
        report = json.loads(text)
        assert list(report) == list(schemas[name]), name
        assert list(report["manifest"]) == list(schemas["manifest"]), name
        # the envelope: manifest last, timings zeroed, --out equal to stdout,
        # exit 0 exactly when the checked property holds
        assert list(report)[-1] == "manifest", name
        timings = _timing_fields(report)
        assert "manifest.wall_time_ms" in timings, name
        assert all(v == 0.0 for v in timings.values()), (name, timings)
        assert out.read_text() == text, name
        assert code == (0 if holds.get(name, lambda r: True)(report) else 1), name


def _timing_fields(report, prefix=""):
    """Every *_ms value of a report, keyed by its dotted path."""
    found = {}
    for key, value in report.items():
        if isinstance(value, dict):
            found.update(_timing_fields(value, f"{prefix}{key}."))
        elif key.endswith("_ms"):
            found[prefix + key] = value
    return found


def test_threads_default_counts_usable_cpus():
    from ovoid7.cli import build_parser

    args = build_parser().parse_args(["verify", "--q", "2", "--spec", "unused.txt"])
    if hasattr(os, "sched_getaffinity"):
        assert args.threads == len(os.sched_getaffinity(0))
    else:
        assert args.threads == (os.cpu_count() or 1)


def test_search_threads_help_says_one_thread():
    from ovoid7.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "cmd").choices

    def threads_help(cmd):
        (action,) = [a for a in sub[cmd]._actions if a.dest == "threads"]
        return action.help

    assert "one thread" in threads_help("search")
    # construct runs no pair scan, so it ignores the flag too
    for cmd in ("search", "construct"):
        assert threads_help(cmd).startswith("accepted for a uniform command line and ignored")
    for cmd in ("verify", "hypersurface", "kerdock"):
        assert "ignored" not in threads_help(cmd)
        assert "one thread" not in threads_help(cmd)
    # the flag stays accepted
    args = build_parser().parse_args(["search", "--q", "2", "--threads", "1"])
    assert args.threads == 1
    args = build_parser().parse_args(["construct", "--q", "2", "--family", "kantor-simple",
                                      "--threads", "1"])
    assert args.threads == 1
    args = build_parser().parse_args(["kerdock", "--q", "4", "--threads", "1"])
    assert args.threads == 1


def test_ree_tits_past_exponent_cap_is_unsupported():
    r = run("construct", "--family", "ree-tits", "--q", "3^7", "--no-timing")
    assert r.returncode == 3        # EXIT_UNSUPPORTED
    assert r.stdout == ""
    assert "exponent cap" in r.stderr


# -- malformed input files and out-of-range parameters ----------------------------


def _quadric_witness(**changes):
    w = {"QR": [0, 1, 1, 0, 0, 1], "QS": [0, 1, 1, 0, 0, 1], "LR": [0, 0, 0, 1],
         "MR": [0, 1, 0, 0], "NR": [0, 1, 1, 0], "xi": [0, 1]}
    w.update(changes)
    return {k: v for k, v in w.items() if v != "drop"}


@pytest.mark.parametrize("action, data, message", [
    ("quadric-check", _quadric_witness(QS="drop"), "'QS' must be a list of 6 integers"),
    ("quadric-check", _quadric_witness(QR=[0, 1, 1]), "'QR' must be a list of 6 integers"),
    ("quadric-check", _quadric_witness(LR=[0, 0, "a", 1]), "'LR' must be a list of 4 integers"),
    ("quadric-check", _quadric_witness(xi=[0, 1.5]), "'xi' must be a list of 2 integers"),
    ("quadric-check", _quadric_witness(k="2"), "'k' must be an integer or null"),
    ("quadric-check", [1, 2], "does not hold a JSON object"),
    ("plane-check", {"alpha": [0, 1, 0]}, "'beta' must be a list of 3 integers"),
    # entries are F_q coordinates: 3 at q = 2 is refused, not read as an
    # element of F_4
    ("quadric-check", _quadric_witness(QR=[0, 3, 1, 0, 0, 1]), "'QR' has an entry outside [0, 2)"),
    ("quadric-check", _quadric_witness(NR=[0, 1, -1, 0]), "'NR' has an entry outside [0, 2)"),
    ("quadric-check", _quadric_witness(xi=[0, 2]), "'xi' has an entry outside [0, 2)"),
    ("quadric-check", _quadric_witness(k=5), "'k' must be an integer or null"),
    ("plane-check", {"alpha": [0, 1, 0], "beta": [0, 0, 4]}, "'beta' has an entry outside [0, 4)"),
    # a repeated key would otherwise keep its last value
    ("quadric-check", '{"QR": [0, 1, 1, 0, 0, 1], ' + json.dumps(_quadric_witness())[1:],
     "repeats key 'QR'"),
])
def test_malformed_witness_file_is_a_parse_error(tmp_path, capsys, action, data, message):
    from ovoid7.cli import main

    spec = str(tmp_path / "spec.txt")
    family = ("famiglia2", "2") if action == "quadric-check" else ("kantor-even", "4")
    assert main(["construct", "--family", family[0], "--q", family[1], "--param", "all=0",
                 "--spec-out", spec]) == 0
    witness = tmp_path / "w.json"
    witness.write_text(data if isinstance(data, str) else json.dumps(data))
    capsys.readouterr()
    assert main(["hypersurface", "--action", action, "--q", family[1], "--spec", spec,
                 "--witness", str(witness), "--no-timing"]) == 2      # EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(witness) in err and message in err


@pytest.mark.parametrize("text, message", [
    (json.dumps({"f1": ["x"]}), "'f1' must map monomials to integers or \"free\""),
    (json.dumps({"f2": {"x": 1.5}}), "'f2' must map monomials"),
    (json.dumps({"f3": {"x": None}}), "'f3' must map monomials"),
    (json.dumps({"f1": {"x": 3}}), "'f1' key 'x': value 3 outside [0, 2)"),
    (json.dumps({"f2": {"y": -1}}), "'f2' key 'y': value -1 outside [0, 2)"),
    ("{not json", "cannot read mask file"),
    # two keys for one monomial would otherwise keep the last value
    (json.dumps({"f1": {"x*y": 1, "y*x": 0}}),
     "mask 'f1' names one monomial twice: keys 'x*y' and 'y*x'"),
    ('{"f1": {"x*y": 1, "x*y": 0}}', "repeats key 'x*y'"),
    ('{"f1": {"x": 1}, "f1": {"y": 1}}', "repeats key 'f1'"),
])
def test_malformed_mask_file_is_a_parse_error(tmp_path, capsys, text, message):
    from ovoid7.cli import main

    mask = tmp_path / "mask.json"
    mask.write_text(text)
    assert main(["search", "--q", "2", "--mask", str(mask), "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert "witness" not in err


@pytest.mark.parametrize("family, q, param, message", [
    ("thas-kantor", "9", "mu=12", "parameter mu 12 outside [0, 9)"),
    ("thas-kantor", "9", "mu=-1", "parameter mu -1 outside [0, 9)"),
    ("kantor-even", "4", "alpha=100", "parameter alpha 100 outside [0, 64)"),
    ("kantor-even", "4", "beta=64", "parameter beta 64 outside [0, 64)"),
    ("famiglia1", "5", "C4=7", "parameter C4 7 outside [0, 5)"),
    ("famiglia1", "5", "a100=5", "parameter a100 5 outside [0, 5)"),
    ("famiglia2", "8", "b001=-3", "parameter b001 -3 outside [0, 8)"),
    ("kantor-even", "4", "alpha=[0,4,0]", "parameter alpha [0,4,0] has an entry outside [0, 4)"),
    # a name the family does not read is refused, not ignored
    ("famiglia1", "5", "C5=1",
     "family famiglia1 has no parameter C5; known: eps, C4, D4, a010, b100, a100"),
    ("kantor-simple", "2", "mu=3", "family kantor-simple has no parameter mu; known: none"),
    # a coordinate list has one entry per coordinate of F_{q^3}
    ("kantor-even", "4", "alpha=[0,1]", "parameter alpha [0,1] has 2 entries, expected 3"),
    ("kantor-even", "4", "beta=[0,0,1,0]", "parameter beta [0,0,1,0] has 4 entries, expected 3"),
])
def test_out_of_range_param_is_a_parse_error(capsys, family, q, param, message):
    from ovoid7.cli import main

    assert main(["construct", "--family", family, "--q", q, "--param", param,
                 "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_in_range_params_are_recorded_as_used(capsys):
    from ovoid7.cli import main

    for argv, choices in (
            (["thas-kantor", "--q", "9", "--param", "mu=3"], {"mu": 3}),
            (["kantor-even", "--q", "4", "--param", "alpha=63", "--param", "beta=4"],
             {"alpha": [3, 3, 3], "beta": [0, 1, 0]}),
            (["famiglia1", "--q", "5", "--param", "eps=-1", "--param", "C4=4"],
             {"params": {"epsilon": -1, "C4": 4, "D4": 0, "a010": 0, "b100": 0, "a100": 0}})):
        assert main(["construct", "--family", *argv, "--no-timing"]) == 0, argv
        got = json.loads(capsys.readouterr().out)["manifest"]["choices"]
        assert {k: got[k] for k in choices} == choices, argv


@pytest.mark.parametrize("kind", ["spec", "mask", "witness"])
def test_non_utf8_input_file_is_a_parse_error(tmp_path, capsys, kind):
    from ovoid7.cli import main

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe{}")
    spec = str(tmp_path / "f2.spec")
    assert main(["construct", "--family", "famiglia2", "--q", "2", "--spec-out", spec]) == 0
    capsys.readouterr()
    argv = {"spec": ["verify", "--q", "2", "--spec", str(bad)],
            "mask": ["search", "--q", "2", "--mask", str(bad)],
            "witness": ["hypersurface", "--action", "quadric-check", "--q", "2",
                        "--spec", spec, "--witness", str(bad)]}[kind]
    assert main(argv + ["--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {kind} file: ")
    assert "utf-8" in err


def test_repeated_param_is_a_parse_error(capsys):
    from ovoid7.cli import main

    for family, q, name in (("thas-kantor", "9", "mu"), ("famiglia2", "8", "C4")):
        assert main(["construct", "--family", family, "--q", q, "--param", f"{name}=2",
                     "--param", f" {name} =5", "--no-timing"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --param {name} is given twice\n"
    assert main(["kerdock", "--family", "kantor-even", "--q", "4", "--param", "alpha=2",
                 "--param", "alpha=3", "--no-timing"]) == 2
    assert capsys.readouterr().err == "error: --param alpha is given twice\n"


@pytest.mark.parametrize("option, kind", [("--out", "report"), ("--spec-out", "spec")])
def test_unwritable_output_file_is_a_parse_error(tmp_path, capsys, option, kind):
    from ovoid7.cli import main

    path = str(tmp_path / "missing" / "x.out")
    assert main(["construct", "--family", "kantor-simple", "--q", "2", option, path,
                 "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {kind} file: ") and path in err


def test_search_refuses_a_negative_max_listed(capsys):
    from ovoid7.cli import main

    assert main(["search", "--q", "2", "--max-listed", "-3", "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --max-listed must be at least 0, got -3\n"


def test_search_refuses_a_negative_budget(capsys):
    from ovoid7.cli import main

    assert main(["search", "--q", "2", "--budget", "-1", "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --budget must be at least 0, got -1\n"


@pytest.mark.parametrize("action, option", [
    ("scan", "--witness"), ("build", "--witness"), ("bounds", "--witness"), ("bounds", "--spec"),
] + [(action, option) for option in ("--r", "--d")
     for action in ("build", "scan", "plane-check", "quadric-check")])
def test_hypersurface_refuses_options_its_action_ignores(capsys, action, option):
    from ovoid7.cli import main

    value = {"--witness": "w.json", "--spec": SPEC_KS2, "--r": "3", "--d": "3"}[option]
    # plus the options the action does read, so that only `option` is at fault
    reads = ["--r", "3", "--d", "3"] if action == "bounds" else ["--spec", SPEC_KS2]
    assert main(["hypersurface", "--action", action, "--q", "2", option, value, *reads,
                 "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: argument {option}: not allowed with --action {action}\n"


@pytest.mark.parametrize("argv, message", [
    (["search", "--q", "2", "--mask", "m.json", "--restriction", "homogeneous-top"],
     "argument --restriction: not allowed with argument --mask"),
    (["kerdock", "--q", "2", "--spec", SPEC_KS2, "--family", "kantor-simple"],
     "argument --family: not allowed with argument --spec"),
], ids=["search-mask-restriction", "kerdock-spec-family"])
def test_exclusive_options_are_a_usage_error(capsys, argv, message):
    from ovoid7.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-timing"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "4", "--spec", SPEC_KS2],
    ["hypersurface", "--action", "scan", "--q", "2", "--spec", SPEC_KS2],
    ["kerdock", "--q", "2", "--spec", SPEC_KS2],
    ["search", "--q", "2"],
    ["construct", "--family", "kantor-simple", "--q", "2"],
], ids=["verify", "scan", "kerdock", "search", "construct"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_is_a_usage_error(capsys, argv, value):
    from ovoid7.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", value, "--no-timing"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument --threads: must be at least 1, got {value}" in err


def test_kerdock_refuses_param_with_spec(capsys):
    # --param is read only with --family; with --spec it would be ignored
    from ovoid7.cli import main

    assert main(["kerdock", "--q", "2", "--spec", SPEC_KS2, "--param", "mu=1",
                 "--no-timing"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: argument --param: not allowed with argument --spec\n"


def test_kerdock_needs_a_triple(capsys):
    from ovoid7.cli import main

    assert main(["kerdock", "--q", "2", "--no-timing"]) == 2
    assert capsys.readouterr().err == "error: kerdock needs --spec or --family\n"


# -- limits ----------------------------------------------------------------------


def test_kerdock_above_verify_limit_is_unsupported():
    import time

    for family in ("kantor-simple", "kantor-even"):
        t0 = time.perf_counter()
        r = run("kerdock", "--family", family, "--q", "128", "--threads", "1")
        assert time.perf_counter() - t0 < 30, family      # refused, not attempted
        assert r.returncode == 3, family                  # EXIT_UNSUPPORTED
        assert r.stdout == ""
        assert "q <= 64" in r.stderr


def test_construct_kantor_even_above_table_order():
    # q^3 > 2^20: the construction needs scalar arithmetic only, no packed tables
    for q in ("128", "256"):
        r = run("construct", "--family", "kantor-even", "--q", q, "--no-timing")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["spec_lines"] == ["x^2+x*y+y^2+z^2", "x^2+x*z+y^2",
                                                      "x^2+y*z"]


@pytest.mark.parametrize("q", ["128", "1048576"])
def test_plane_check_kantor_even_above_table_order(tmp_path, q):
    # the cubic extensions have 2^21 and 2^60 elements, far above the packed
    # tables' 2^20: the residual is certified with scalar products alone
    spec = str(tmp_path / "ke.spec")
    r = run("construct", "--family", "kantor-even", "--q", q, "--spec-out", spec, timeout=60)
    assert r.returncode == 0, r.stderr
    r = run("hypersurface", "--action", "plane-check", "--q", q, "--spec", spec,
            "--witness", "default-basis", "--no-timing", timeout=60)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["residual_zero"] is True and rep["residual_terms"] == 0
    assert (rep["alpha"], rep["beta"]) == ([0, 1, 0], [0, 0, 1])


def test_plane_check_refuses_other_degrees_before_building_an_extension(tmp_path):
    # a degree-5 triple once had its quartic extension over F_{2^20} built
    # first, a default-modulus search of minutes, before the degree refusal
    spec = tmp_path / "deg5.spec"
    spec.write_text("x^5\ny\nz\n")
    r = run("hypersurface", "--action", "plane-check", "--q", "1048576", "--spec", str(spec),
            "--witness", "default-basis", timeout=20)
    assert r.returncode == 3, r.stderr                          # EXIT_UNSUPPORTED
    assert "degree 2 or 3" in r.stderr and "Traceback" not in r.stderr


# -- the parser is built once per process -----------------------------------------


def test_parser_built_on_first_call_only(monkeypatch, capsys):
    from ovoid7 import cli

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(HERE, "..", "src"))
    probe = subprocess.run(
        [sys.executable, "-c", "import ovoid7.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, env=env)
    assert probe.stdout.strip() == "0"              # not built at import
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert cli.main(["verify", "--q", "2", "--spec", SPEC_KS2, "--no-timing"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_cached_parser_keeps_no_per_call_state(tmp_path, capsys):
    from ovoid7.cli import main

    assert main(["construct", "--family", "kantor-even", "--q", "4", "--param", "alpha=[1,1,0]",
                 "--no-timing"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["manifest"]["choices"]["alpha"] == [1, 1, 0]
    argv = ["construct", "--family", "kantor-even", "--q", "4", "--no-timing"]
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert json.loads(second)["manifest"]["choices"]["alpha"] == [0, 1, 0]
    assert second == run(*argv).stdout
    # a failed parse, then a valid call
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ovoid7 verify") and "--spec" in err
    argv = ["verify", "--q", "2", "--spec", SPEC_KS2, "--no-timing"]
    assert main(argv) == 0
    assert capsys.readouterr().out == run(*argv).stdout


def test_help_from_cached_parser_matches_fresh_parser(capsys):
    from ovoid7.cli import build_parser, main

    fresh = build_parser()
    sub = next(a for a in fresh._actions if a.dest == "cmd").choices
    for argv, parser in [([], fresh)] + [([cmd], p) for cmd, p in sub.items()]:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == parser.format_help(), argv
