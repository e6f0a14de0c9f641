import json
import os
import pathlib
import subprocess
import sys

import pytest

import limla
from limla.cli import main
from limla.fmt import parse_machine
from limla.model import tape_indices, validate_automaton

MACHINES = pathlib.Path(__file__).resolve().parents[1] / "machines"
ANBN = str(MACHINES / "anbn.limla")


def test_check_zoo_files_ok(capsys):
    for path in sorted(MACHINES.glob("*.limla")):
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"


def test_check_violation_file(tmp_path, capsys):
    bad = tmp_path / "bad.limla"
    text = pathlib.Path(ANBN).read_text()
    bad.write_text(text.replace("delta trap <| -> trap <| L",
                                "delta trap <| -> trap <| R"))
    assert main(["check", str(bad)]) == 2
    assert "MarkerDirection" in capsys.readouterr().out


def test_check_rejects_a_token_no_word_can_spell(tmp_path, capsys):
    bad = tmp_path / "comma.limla"
    bad.write_text(pathlib.Path(ANBN).read_text().replace("input a b", "input a b a,b", 1))
    assert main(["check", str(bad)]) == 2
    assert "token contains ','" in capsys.readouterr().err


def test_check_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.limla"
    empty.write_text("")
    assert main(["check", str(empty)]) == 2


def test_check_missing_file():
    assert main(["check", "/nonexistent/x.limla"]) == 2


@pytest.mark.parametrize("cmd", [["check"], ["run", "--input", "ab"], ["bench"]])
def test_non_utf8_file_is_usage_error(tmp_path, capsys, cmd):
    bad = tmp_path / "bad.limla"
    bad.write_bytes(pathlib.Path(ANBN).read_bytes() + b"\xff\n")
    assert main(cmd[:1] + [str(bad)] + cmd[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err


def test_run_accept_and_reject(capsys):
    assert main(["run", ANBN, "--input", "aabb", "--engine", "linear"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "accept" and out[1].startswith("steps ")
    assert main(["run", ANBN, "--input", "aabb", "--engine", "naive"]) == 0
    capsys.readouterr()
    assert main(["run", ANBN, "--input", "aab", "--engine", "linear"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "reject"


def test_run_engines_agree_on_verdict(capsys):
    for word in ("", "ab", "abb", "ba"):
        codes = set()
        for engine in ("naive", "linear"):
            args = ["run", ANBN, "--engine", engine]
            if word:
                args += ["--input", word]
            codes.add(main(args))
        capsys.readouterr()
        assert len(codes) == 1


def test_run_symbol_outside_alphabet(capsys):
    assert main(["run", ANBN, "--input", "abc"]) == 2
    assert "not in the input alphabet" in capsys.readouterr().err


@pytest.mark.parametrize("tokens, bad", [("a,zz,b", "zz"), ("a,A", "A"), ("b,<|", "<|")])
def test_run_rejects_what_word_indices_rejects(capsys, tokens, bad):
    # one rule and one message: a tape-only letter or a marker is no input token
    aut = parse_machine(pathlib.Path(ANBN).read_text())
    with pytest.raises(ValueError) as e:
        tape_indices(aut, tuple(tokens.split(",")))
    assert str(e.value) == f"symbol {bad!r} is not in the input alphabet"
    assert main(["run", ANBN, "--input-tokens", tokens]) == 2
    assert capsys.readouterr().err == f"error: {e.value}\n"


def test_run_input_tokens_form(capsys):
    assert main(["run", ANBN, "--input-tokens", "a,a,b,b"]) == 0
    assert main(["run", ANBN, "--input-tokens", ""]) == 0  # empty word accepts
    capsys.readouterr()


@pytest.mark.parametrize("engine", ["naive", "linear"])
def test_run_input_with_a_comma_reads_tokens(capsys, engine):
    # a comma in --input makes it the --input-tokens form
    for word in ("a,a,b,b", "a,b,b", "a,zz"):
        results = []
        for option in ("--input", "--input-tokens"):
            code = main(["run", ANBN, "--engine", engine, option, word])
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1], word


@pytest.mark.parametrize("engine", ["naive", "linear"])
def test_run_input_reads_one_character_per_symbol(capsys, monkeypatch, engine):
    import limla.cli as cli
    words = []
    runner = getattr(cli, f"run_{engine}")
    monkeypatch.setattr(cli, f"run_{engine}",
                        lambda aut, word, **kw: words.append(tuple(word)) or runner(aut, word, **kw))
    assert main(["run", ANBN, "--engine", engine, "--input", "aabb"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "accept"
    assert words == [("a", "a", "b", "b")]


def test_run_input_and_input_tokens_together_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("limla.cli.run_linear", lambda *a, **k: pytest.fail("engine ran"))
    assert main(["run", ANBN, "--input", "ab", "--input-tokens", "a,b"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: give either --input or --input-tokens, not both\n"
    assert captured.out == ""


def test_run_trace_file(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["run", ANBN, "--input", "ab", "--engine", "linear",
                 "--shadow", "--trace", str(trace)]) == 0
    capsys.readouterr()
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert lines[-1]["verdict"] == "accept"
    assert {"case" in rec for rec in lines[:-1]} == {True}


def test_run_shadow_needs_linear_engine(monkeypatch, capsys):
    monkeypatch.setattr("limla.cli.run_naive", lambda *a, **k: pytest.fail("engine ran"))
    assert main(["run", ANBN, "--input", "ab", "--engine", "naive", "--shadow"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --shadow") and "--engine linear" in err


def test_run_budget_exit_code(capsys):
    assert main(["run", ANBN, "--input", "aabb", "--max-steps", "2"]) == 3
    assert "budget" in capsys.readouterr().err


def test_run_unwritable_trace_is_usage_error(monkeypatch, capsys):
    # the destination is checked before the engine runs
    with monkeypatch.context() as m:
        m.setattr("limla.cli.run_linear", lambda *a, **k: pytest.fail("engine ran"))
        assert main(["run", ANBN, "--input", "ab", "--trace", "/nonexistent/dir/t.jsonl"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --trace:") and "Traceback" not in err
    if os.path.exists("/dev/full"):
        # a trace that opens but cannot be written is no verdict either
        assert main(["run", ANBN, "--input", "ab", "--trace", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --trace:") and captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ("1", ""))  # print fails, or the final flush
@pytest.mark.parametrize("args", (["run", ANBN, "--input", "ab"], ["check", ANBN]))
def test_full_stdout_is_usage_error(args, unbuffered):
    # a verdict that cannot be written is not a verdict: exit 2, not reject's 1
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(pathlib.Path(limla.__file__).parents[1]))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "limla", *args], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert done.returncode == 2
    # one line, and no second report from the interpreter's flush at exit
    assert done.stderr.startswith("error: stdout: ") and done.stderr.count("\n") == 1


def test_run_negative_max_steps_is_usage_error(capsys):
    assert main(["run", ANBN, "--input", "aabb", "--max-steps", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: --max-steps")
    assert main(["run", ANBN, "--input", "aabb", "--max-steps", "0"]) == 3
    assert "budget exceeded after 0 steps" in capsys.readouterr().err


def test_bench_unwritable_out_is_usage_error(capsys):
    paths = ["/nonexistent/x.csv"]
    if os.path.exists("/dev/full"):
        paths.append("/dev/full")  # opens, but every write fails
    for path in paths:
        assert main(["bench", ANBN, "--lengths", "4", "--out", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out:") and captured.out == ""


def test_bench_negative_length_is_usage_error(capsys):
    assert main(["bench", ANBN, "--lengths", "4,-2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --lengths") and captured.out == ""


def test_bench_unindexable_length_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("limla.bench.make_word", lambda *a, **k: pytest.fail("word made"))
    assert main(["bench", ANBN, "--lengths", f"4,{sys.maxsize + 1}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --lengths") and captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cmd", [["run", "--input", "ab"], ["bench", "--lengths", "4"]])
def test_invalid_machine_reports_each_violation(tmp_path, capsys, cmd):
    text = pathlib.Path(ANBN).read_text()
    for old, new in (("delta trap <| -> trap <| L", "delta trap <| -> trap <| R"),
                     ("delta start |> -> start |> R", "delta start |> -> start |> L"),
                     ("delta verify a -> trap A L\n", ""),
                     ("delta seek_b b -> match_a B L", "delta seek_b b -> match_a b L")):
        assert old in text
        text = text.replace(old, new)
    bad = tmp_path / "bad.limla"
    bad.write_text(text)
    violations = validate_automaton(parse_machine(text)).violations
    assert len(violations) >= 2
    assert main(cmd[:1] + [str(bad)] + cmd[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {bad}: {v}" for v in violations]


def test_bench_csv_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", ANBN, "--gen", "anbn", "--lengths", "8,16,32",
            "--engine", "both"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    strip = lambda p: [",".join(col for i, col in enumerate(l.split(",")) if i != 4)
                       for l in p.read_text().splitlines()]
    assert strip(out1) == strip(out2)
    header = out1.read_text().splitlines()[0]
    assert header == "machine,engine,n,steps,wall_ns,verdict"


def _without_wall_ns(lines):
    return [line.split(",")[:4] + line.split(",")[5:] for line in lines]


def test_bench_random_generator_is_seeded(capsys):
    args = ["bench", ANBN, "--gen", "random:7", "--lengths", "8,16,5"]
    outs = []
    for _ in range(2):
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(_without_wall_ns(captured.out.splitlines()))
    assert outs[0] == outs[1]
    aut = parse_machine(pathlib.Path(ANBN).read_text())
    rows = limla.bench.run_bench(aut, "anbn", ("naive", "linear"), [8, 16, 5], "random", 7)
    assert outs[0][1:] == [[r.machine, r.engine, str(r.n), str(r.steps), r.verdict]
                           for r in rows]
    assert len(rows) == 6


@pytest.mark.parametrize("args, message", [
    (["--gen", "random:x"], "bad generator 'random:x'"),
    (["--gen", "foo"], "unknown generator 'foo'"),
    (["--lengths", "1,x"], "bad lengths '1,x'"),
])
def test_bench_bad_gen_or_lengths_is_usage_error(capsys, monkeypatch, args, message):
    monkeypatch.setattr("limla.bench.make_word", lambda *a, **k: pytest.fail("word made"))
    assert main(["bench", ANBN] + args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_bench_incompatible_generator(tmp_path, capsys):
    bouncer = str(MACHINES / "bouncer.limla")
    assert main(["bench", bouncer, "--gen", "anbn", "--lengths", "8,16,32"]) == 2
    capsys.readouterr()
    assert main(["bench", bouncer, "--gen", "unary", "--lengths", "8,16,32",
                 "--out", str(tmp_path / "c.csv")]) == 0


@pytest.mark.parametrize("machine, message", [
    ("anbn", "anbn generator needs even lengths"),
    ("bouncer", "anbn generator needs 'a' and 'b' in the input alphabet"),
])
def test_bench_generator_error_leaves_out_as_it_was(tmp_path, capsys, monkeypatch,
                                                     machine, message):
    # the words are checked before --out is opened, and none is made
    made = []
    real_make_word = limla.bench.make_word
    monkeypatch.setattr(limla.bench, "make_word",
                        lambda *a: made.append(a[2]) or real_make_word(*a))
    out = tmp_path / "kept.csv"
    out.write_text("keep me\n")
    assert main(["bench", str(MACHINES / f"{machine}.limla"), "--gen", "anbn",
                 "--lengths", "4,3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert out.read_text() == "keep me\n"
    assert made == []


def test_fuzz_defaults_small_clean(tmp_path, capsys):
    code = main(["fuzz", "--states", "3", "--d", "2", "--machines", "6",
                 "--maxlen", "4", "--seed", "1", "--out-dir", str(tmp_path / "f")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 divergences" in out
    assert not (tmp_path / "f").exists()


def test_fuzz_counted_mode(tmp_path, capsys):
    code = main(["fuzz", "--states", "2", "--d", "1", "--mode", "counted",
                 "--machines", "4", "--maxlen", "4", "--seed", "3",
                 "--out-dir", str(tmp_path / "f")])
    capsys.readouterr()
    assert code == 0


def test_fuzz_counted_growing_limits(tmp_path, capsys):
    for d in ("log2", "sqrt", "id"):
        code = main(["fuzz", "--states", "3", "--d", d, "--mode", "counted",
                     "--machines", "3", "--maxlen", "4", "--seed", "5",
                     "--out-dir", str(tmp_path / "f")])
        assert code == 0, d
        assert "0 divergences" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (["--d", "log2"], "ranked mode requires a constant d"),
    (["--d", "sqrt", "--mode", "ranked"], "ranked mode requires a constant d"),
    (["--d", "two", "--mode", "counted"], "bad d value"),
    (["--d", "0_2"], "bad d value"),
    (["--d", "-1"], "d must be >= 0"),
])
def test_fuzz_bad_d_is_usage_error(tmp_path, capsys, args, message):
    code = main(["fuzz", "--machines", "1", "--out-dir", str(tmp_path / "f")] + args)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


def test_fuzz_alphabet_beyond_generator_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("limla.cli.random_automaton", lambda *a, **k: pytest.fail("machine built"))
    code = main(["fuzz", "--alphabet-size", "27", "--machines", "1",
                 "--out-dir", str(tmp_path / "f")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --alphabet-size: ") and "Traceback" not in err


def test_fuzz_unindexable_maxlen_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("limla.cli.random_automaton", lambda *a, **k: pytest.fail("machine built"))
    code = main(["fuzz", "--machines", "1", "--maxlen", str(sys.maxsize + 1),
                 "--out-dir", str(tmp_path / "f")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --maxlen") and "Traceback" not in captured.err


@pytest.mark.parametrize("args, option", [
    (["--states", "2", "--d", "99999999999"], "--d"),
    (["--states", "1", "--d", "65533"], "--d"),
    (["--states", "99999999", "--d", "2"], "--states"),
    (["--states", "16385", "--d", "0"], "--states"),
    (["--states", "99999", "--mode", "counted", "--d", "sqrt"], "--states"),
])
def test_fuzz_oversized_machine_is_usage_error(tmp_path, capsys, monkeypatch, args, option):
    monkeypatch.setattr("limla.cli.random_automaton", lambda *a, **k: pytest.fail("machine built"))
    code = main(["fuzz", "--machines", "1", "--maxlen", "2",
                 "--out-dir", str(tmp_path / "f")] + args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {option}: ") and "Traceback" not in err


@pytest.mark.parametrize("args", [["--states", "1", "--d", "65532"],
                                  ["--states", "16384", "--d", "0"]])
def test_fuzz_machine_at_the_size_limit_is_built(tmp_path, monkeypatch, args):
    class Built(Exception):
        pass

    def build(params):
        raise Built

    monkeypatch.setattr("limla.cli.random_automaton", build)
    with pytest.raises(Built):
        main(["fuzz", "--machines", "1", "--out-dir", str(tmp_path / "f")] + args)


def test_fuzz_catches_corrupted_engine(tmp_path, capsys, monkeypatch):
    import limla.linear as linear_mod
    real_scan = linear_mod.deletion_scan

    def skip_right_merge(tape, i, p, g):
        # reproduce the scan but never merge the right neighbour
        right = tape.nxt[i]
        f = tape.fmap[right]
        if f is not None:
            tape.fmap[right] = None  # hide its map during the scan
            res = real_scan(tape, i, p, g)
            tape.fmap[right] = f
            return res
        return real_scan(tape, i, p, g)

    monkeypatch.setattr(linear_mod, "deletion_scan", skip_right_merge)
    outdir = tmp_path / "f"
    code = main(["fuzz", "--states", "4", "--d", "2", "--machines", "10",
                 "--maxlen", "6", "--seed", "2", "--out-dir", str(outdir)])
    out = capsys.readouterr().out
    assert code == 1
    assert "divergence" in out
    cases = list(outdir.glob("case_*"))
    assert cases
    files = {p.name for p in cases[0].iterdir()}
    assert {"machine.limla", "word.txt", "diff.txt", "naive.trace.jsonl"} <= files
    final = json.loads((cases[0] / "naive.trace.jsonl").read_text().splitlines()[-1])
    assert final["verdict"] in ("accept", "reject")


def test_fuzz_draws_words_only_until_a_divergence(tmp_path, capsys, monkeypatch):
    import limla.cli as cli
    from limla.difftest import Divergence
    real_words_upto = cli.words_upto
    drawn = []

    def counting_words_upto(alphabet, maxlen):
        for word in real_words_upto(alphabet, maxlen):
            drawn.append(word)
            yield word

    monkeypatch.setattr(cli, "words_upto", counting_words_upto)
    monkeypatch.setattr(cli, "compare_run", lambda aut, word, **kw: Divergence(
        "verdict", tuple(word), "stubbed"))
    code = main(["fuzz", "--machines", "1", "--maxlen", "10", "--alphabet-size", "3",
                 "--out-dir", str(tmp_path / "f")])
    assert code == 1 and "divergence" in capsys.readouterr().out
    assert drawn == [()]


def test_fuzz_unwritable_out_dir_is_usage_error(tmp_path, capsys, monkeypatch):
    from limla.difftest import Divergence
    monkeypatch.setattr("limla.cli.compare_run", lambda aut, word, **kw: Divergence(
        "verdict", tuple(word), "stubbed"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    # refused up front, and when only the reproducer's own directory is blocked
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "case_0000").write_text("")
    for out_dir in (blocker / "f", tmp_path / "d"):
        code = main(["fuzz", "--machines", "1", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --out-dir: ") and "Traceback" not in captured.err
        assert "divergence:" not in captured.out


def test_fuzz_failed_reproducer_write_is_usage_error(tmp_path, capsys, monkeypatch):
    # the directory is made, but writing a trace into it fails
    import limla.cli as cli
    from limla.difftest import Divergence
    from limla.naive import run_naive

    def failing_write_trace(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "compare_run", lambda aut, word, **kw: Divergence(
        "verdict", tuple(word), "stubbed", run_naive(aut, word, trace=True)))
    monkeypatch.setattr(cli, "write_trace", failing_write_trace)
    code = main(["fuzz", "--machines", "1", "--out-dir", str(tmp_path / "f")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --out-dir: [Errno 28] No space left on device\n"
    assert "divergence:" not in captured.out


@pytest.mark.parametrize("case", ["file", "under-file", "unwritable"])
def test_fuzz_checks_out_dir_before_building_machines(tmp_path, capsys, monkeypatch, case):
    def unreachable(params):
        raise AssertionError("a machine was built")

    monkeypatch.setattr("limla.cli.random_automaton", unreachable)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = {"file": blocker, "under-file": blocker / "a" / "b",
               "unwritable": tmp_path / "locked" / "f"}[case]
    if case == "unwritable":
        # file modes do not bind every user, so the permission check is faked
        locked = str(tmp_path / "locked")
        os.mkdir(locked)
        real_access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: path != locked
                            and real_access(path, mode))
    code = main(["fuzz", "--machines", "1", "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --out-dir: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "locked" / "f").exists()


def test_fuzz_maxlen_reaches_long_words(tmp_path, monkeypatch):
    lengths = []

    def record(aut, word, **kw):
        lengths.append(len(word))

    monkeypatch.setattr("limla.cli.compare_run", record)
    assert main(["fuzz", "--machines", "1", "--maxlen", "40", "--alphabet-size", "1",
                 "--out-dir", str(tmp_path / "f")]) == 0
    assert max(lengths) > 20


def test_fuzz_draws_each_machine_seed_when_it_builds_the_machine(tmp_path, monkeypatch):
    # the seeds are not drawn up front, so --machines does not size a list
    from limla.rng import SplitMix64

    class Built(Exception):
        pass

    real_next = SplitMix64.next_u64
    draws = []

    def counting_next(self):
        draws.append(1)
        return real_next(self)

    def build(params):
        raise Built

    monkeypatch.setattr(SplitMix64, "next_u64", counting_next)
    monkeypatch.setattr("limla.cli.random_automaton", build)
    with pytest.raises(Built):
        main(["fuzz", "--machines", "3", "--out-dir", str(tmp_path / "f")])
    assert len(draws) == 1


def test_fuzz_seed_repetition_identical(tmp_path, capsys):
    args = ["fuzz", "--states", "3", "--d", "2", "--machines", "5",
            "--maxlen", "3", "--seed", "42"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    second = capsys.readouterr().out
    assert first == second
