"""Command-line surface: check, run, bench, fuzz.

Exit codes are a stable contract: 0 accept/ok, 1 reject (or fuzz found
divergences), 2 usage/format/validation error, 3 step budget exceeded.

Usage errors have one channel: a command or helper raises UsageError with
one message per argument, and main prints each as one `error: ...` line on
stderr and exits 2.  The one exception is `check`, whose violations are its
output, on stdout.

Output errors have one block: a command writes each output (the --trace
file, the --out CSV, the --out-dir reproducers) inside _output's block,
which turns any OSError there, an open's, a write's or a close's, into
the usage error `OPTION: ...`.  Stdout is not such an output: main
reports its errors as `stdout: ...`.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import sys

from . import bench as benchmod
from .difftest import DiffStats, compare_run, random_words, words_upto
from .fmt import FormatError, parse_dlimit, parse_machine, serialize_machine
from .linear import run_linear
from .model import COUNTED, RANKED, tape_indices, validate_automaton
from .naive import run_naive
from .outcome import BudgetExceeded, write_trace
from .rng import SplitMix64
from .zoo import INPUT_LETTERS, MAX_TRANSITIONS, GenParams, random_automaton, symbol_count

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_EXHAUSTIVE_CAP = 10
_EXTRA_FUZZ_WORDS = 16


class UsageError(Exception):
    """A bad invocation or input; main prints each argument as an error line."""


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return parse_machine(fp.read())
    except OSError as e:
        raise UsageError(str(e))
    except (UnicodeDecodeError, FormatError) as e:
        raise UsageError(f"{path}: {e}")


def _load_valid(path: str):
    aut = _load(path)
    report = validate_automaton(aut)
    if not report.ok:
        raise UsageError(*(f"{path}: {v}" for v in report.violations))
    return aut


def cmd_check(args) -> int:
    aut = _load(args.file)
    report = validate_automaton(aut)
    if report.ok:
        print("ok")
        return EXIT_ACCEPT
    for v in report.violations:
        print(str(v))
    return EXIT_USAGE


def _parse_word(args, aut) -> tuple:
    if args.input is not None and args.input_tokens is not None:
        raise UsageError("give either --input or --input-tokens, not both")
    text = (args.input if args.input_tokens is None else args.input_tokens) or ""
    if args.input_tokens is not None or "," in text:
        toks = tuple(t for t in text.split(",") if t)
    else:
        toks = tuple(text)
    try:
        tape_indices(aut, toks)
    except ValueError as e:
        raise UsageError(str(e))
    return toks


@contextlib.contextmanager
def _output(option: str, path: str | None = None, **kwargs):
    """Report every OSError of the block as a usage error on option.

    Given a path, opens the file for writing before the block runs, so a
    bad path costs no run, and closes it after; the block gets the file, or
    None without a path.  A failed open, write or close is reported alike.
    """
    try:
        fp = open(path, "w", encoding="utf-8", **kwargs) if path else None
        with fp or contextlib.nullcontext():
            yield fp
    except OSError as e:
        raise UsageError(f"{option}: {e}")


def cmd_run(args) -> int:
    if args.max_steps is not None and args.max_steps < 0:
        raise UsageError("--max-steps must be >= 0")
    if args.shadow and args.engine != "linear":
        raise UsageError("--shadow needs --engine linear")
    aut = _load_valid(args.file)
    word = _parse_word(args, aut)
    runner = run_naive if args.engine == "naive" else run_linear
    kwargs = {"trace": bool(args.trace), "max_steps": args.max_steps}
    if args.shadow:
        kwargs["shadow"] = True
    with _output("--trace", args.trace) as trace_fp:
        try:
            out = runner(aut, word, **kwargs)
        except BudgetExceeded as e:
            print(f"budget exceeded after {e.steps} steps", file=sys.stderr)
            return EXIT_BUDGET
        if trace_fp:
            write_trace(aut, out, args.engine, trace_fp)
    print(out.verdict)
    print(f"steps {out.steps}")
    return EXIT_ACCEPT if out.accepted else EXIT_REJECT


def cmd_bench(args) -> int:
    aut = _load_valid(args.file)
    gen = args.gen
    seed = 0
    if gen.startswith("random:"):
        try:
            seed = int(gen.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad generator {gen!r}")
        gen = "random"
    if gen not in benchmod.GENERATORS:
        raise UsageError(f"unknown generator {args.gen!r}")
    try:
        lengths = [int(t) for t in args.lengths.split(",") if t]
    except ValueError:
        raise UsageError(f"bad lengths {args.lengths!r}")
    if any(n < 0 for n in lengths):
        raise UsageError(f"--lengths must be >= 0, got {args.lengths!r}")
    if any(n > sys.maxsize for n in lengths):  # longer than any word can be indexed
        raise UsageError(f"--lengths must be <= {sys.maxsize}, got {args.lengths!r}")
    try:  # before --out is opened, which would empty the file
        for n in lengths:
            benchmod.check_word(gen, aut, n)
    except ValueError as e:
        raise UsageError(str(e))
    engines = ("naive", "linear") if args.engine == "both" else (args.engine,)
    machine_id = os.path.splitext(os.path.basename(args.file))[0]
    with _output("--out", args.out, newline="") as out_fp:
        rows = benchmod.run_bench(aut, machine_id, engines, lengths, gen, seed)
        if out_fp is not None:
            benchmod.write_csv(rows, out_fp)
    if out_fp is None:  # stdout's errors are main's
        benchmod.write_csv(rows, sys.stdout)
    return EXIT_ACCEPT


def _dump_reproducer(outdir: str, aut, div) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "machine.limla"), "w", encoding="utf-8") as fp:
        fp.write(serialize_machine(aut))
    with open(os.path.join(outdir, "word.txt"), "w", encoding="utf-8") as fp:
        fp.write(",".join(div.word) + "\n")
    for engine, out in (("naive", div.naive), ("linear", div.linear)):
        if out is not None and out.trace is not None:
            with open(os.path.join(outdir, f"{engine}.trace.jsonl"), "w",
                      encoding="utf-8") as fp:
                write_trace(aut, out, engine, fp)
    with open(os.path.join(outdir, "diff.txt"), "w", encoding="utf-8") as fp:
        fp.write(f"kind: {div.kind}\n")
        fp.write(f"word: {','.join(div.word)}\n")
        fp.write(f"detail: {div.detail}\n")
        if div.naive is not None:
            fp.write(f"naive verdict: {div.naive.verdict} steps: {div.naive.steps}\n")
        if div.linear is not None:
            fp.write(f"linear verdict: {div.linear.verdict} steps: {div.linear.steps}\n")


def _check_out_dir(path: str) -> None:
    """Raise UsageError if reproducers could not be written under path.

    Checks the nearest existing ancestor, creating nothing: a clean fuzz run
    leaves no directory behind.
    """
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise UsageError(f"--out-dir: {probe} is not a directory")
    if not os.access(probe, os.W_OK | os.X_OK):
        raise UsageError(f"--out-dir: {probe} is not writable")


def cmd_fuzz(args) -> int:
    if min(args.states, args.machines, args.alphabet_size) < 1 or args.maxlen < 0:
        raise UsageError("fuzz parameters must be positive")
    if args.maxlen > sys.maxsize:  # longer than any word can be indexed
        raise UsageError(f"--maxlen must be <= {sys.maxsize}")
    if args.alphabet_size > len(INPUT_LETTERS):
        raise UsageError(f"--alphabet-size: the generator has {len(INPUT_LETTERS)} input letters")
    mode = RANKED if args.mode == "ranked" else COUNTED
    try:
        dlimit = parse_dlimit(args.d, mode)
    except ValueError as e:
        raise UsageError(f"--d: {e}")
    template = GenParams(args.states, 0, mode, dlimit, args.alphabet_size)
    symbols = symbol_count(template)
    if args.states * symbols > MAX_TRANSITIONS:
        option = "--d" if symbols > MAX_TRANSITIONS else "--states"
        raise UsageError(f"{option}: {args.states} states x {symbols} symbols is over the "
                         f"generator's {MAX_TRANSITIONS} transitions")
    _check_out_dir(args.out_dir)
    master = SplitMix64(args.seed)
    stats = DiffStats()
    divergences = 0
    cap = min(args.maxlen, _EXHAUSTIVE_CAP)
    for idx in range(args.machines):
        mseed = master.next_u64()
        aut = random_automaton(dataclasses.replace(template, seed=mseed))
        words = itertools.chain(words_upto(aut.input_alphabet, cap),
                                random_words(aut.input_alphabet, _EXTRA_FUZZ_WORDS,
                                             cap + 1, max(args.maxlen, cap + 10), mseed))
        for word in words:
            div = compare_run(aut, word, shadow=True, stats=stats)
            if div is not None:
                divergences += 1
                outdir = os.path.join(args.out_dir, f"case_{idx:04d}")
                with _output("--out-dir"):
                    _dump_reproducer(outdir, aut, div)
                print(f"divergence: machine {idx} word {','.join(word) or '<empty>'} "
                      f"({div.kind}: {div.detail}) -> {outdir}")
                break
    extra = stats.bound_violations or stats.scan_violations or stats.edge_violations
    print(f"fuzz: {args.machines} machines, {stats.runs} runs, "
          f"{divergences} divergences"
          + ("" if not extra else ", instrumentation bounds violated"))
    return EXIT_ACCEPT if divergences == 0 and not extra else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="limla",
        description="Rewrite-limited automata: validate, run, benchmark and fuzz.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="validate a machine file")
    c.add_argument("file")
    c.set_defaults(func=cmd_check)

    r = sub.add_parser("run", help="run a machine on one word")
    r.add_argument("file")
    r.add_argument("--input", help="word, one character per symbol (or comma separated)")
    r.add_argument("--input-tokens", help="word as comma-separated tokens")
    r.add_argument("--engine", choices=("naive", "linear"), default="linear")
    r.add_argument("--trace", metavar="PATH", help="write a JSON-lines trace")
    r.add_argument("--shadow", action="store_true",
                   help="linear engine: verify every segment map against a brute-force walk")
    r.add_argument("--max-steps", type=int, default=None)
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("bench", help="step-count scaling benchmark")
    b.add_argument("file")
    b.add_argument("--gen", default="anbn",
                   help="word generator: anbn | unary | random:SEED")
    b.add_argument("--lengths", default="64,128,256")
    b.add_argument("--engine", choices=("both", "naive", "linear"), default="both")
    b.add_argument("--out", metavar="CSV", default=None)
    b.set_defaults(func=cmd_bench)

    f = sub.add_parser("fuzz", help="differential fuzzing of the two engines")
    f.add_argument("--states", type=int, default=4)
    f.add_argument("--d", default="2",
                   help="rewrite limit: a constant, or log2 | sqrt | id (counted mode)")
    f.add_argument("--mode", choices=("ranked", "counted"), default="ranked")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--machines", type=int, default=200)
    f.add_argument("--maxlen", type=int, default=10, metavar="N",
                   help=f"every word of up to m = min(N, {_EXHAUSTIVE_CAP}) letters, then "
                        f"{_EXTRA_FUZZ_WORDS} random words of m + 1 to max(N, m + 10) letters")
    f.add_argument("--alphabet-size", type=int, default=2)
    f.add_argument("--out-dir", default="fuzz-failures")
    f.set_defaults(func=cmd_fuzz)
    return p


def _silence_stdout() -> None:
    """Point stdout's descriptor at the null device, so the interpreter's
    flush at exit drops what could not be written instead of failing again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except UsageError as e:
            for message in e.args:
                print(f"error: {message}", file=sys.stderr)
            code = EXIT_USAGE
        sys.stdout.flush()
    except OSError as e:  # the commands handle their own files: this is stdout
        print(f"error: stdout: {e}", file=sys.stderr)
        _silence_stdout()
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
