"""End-to-end command-line behavior: one line out, verdict-driven exit codes."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fibreconj import area, cli, oracle
from fibreconj.cli import main
from fibreconj.perturb import PerturbConfig
from fibreconj.presentation import Presentation
from fibreconj.subdirect import ConjugacyTrace, p_conjugacy
from fibreconj.words import RootDecomposition, free_reduce, inverse

PRES = Path(__file__).resolve().parents[1] / "presentations"
FREE = str(PRES / "free.txt")
Z = str(PRES / "z.txt")
Z2 = str(PRES / "z2.txt")
Z3 = str(PRES / "z3.txt")
G2 = str(PRES / "genus2.txt")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_member_trivial_second_coordinate(capsys):
    code, out, _ = run(capsys, ["member", "-p", Z, "-u", "b", "-v", "1"])
    assert code == 0 and out == ["YES"]


def test_dehn_line(capsys):
    code, out, _ = run(capsys, ["dehn", "-p", Z2, "-n", "4", "--oracle", "abelian"])
    assert code == 0 and out == ["DELTA 4 = 1"]


def test_conj_negative(capsys):
    code, out, _ = run(
        capsys,
        ["conj", "-p", Z, "--u1", "b", "--u2", "b", "--v1", "abA", "--v2", "b",
         "--oracle", "abelian"],
    )
    assert code == 1 and out == ["NO"]


def test_conj_positive_with_trace(capsys):
    code, out, _ = run(
        capsys,
        ["conj", "-p", Z, "--u1", "b", "--u2", "b", "--v1", "abA", "--v2", "abA",
         "--show-certificate"],
    )
    assert code == 0
    assert out[0] == "YES (A; A)"
    assert any(line.startswith("branch:") for line in out)


@pytest.mark.parametrize("pres, argv, code, lines", [
    (Z, ["b", "b", "abA", "abA"], 0, [
        "YES (A; A)",
        "branch: main",
        "x1=A x2=A w=1",
        "z1=b^1 z2=b^1",
        "query j=0 target=1 verdict=YES p=0",
        "winner: (0, 0)",
    ]),
    (Z, ["b", "b", "abA", "b"], 1, [
        "NO",
        "branch: main",
        "x1=A x2=1 w=A",
        "z1=b^1 z2=b^1",
        "query j=0 target=a verdict=NO p=None",
        "winner: None",
    ]),
    (Z2, ["aa", "aa", "baaB", "aa"], 1, [
        "NO",
        "branch: main",
        "x1=B x2=1 w=B",
        "z1=a^2 z2=a^2",
        "query j=0 target=b verdict=NO p=None",
        "query j=1 target=ab verdict=NO p=None",
        "winner: None",
    ]),
], ids=["z-yes", "z-no", "z2-no"])
def test_conj_certificate_lines(capsys, pres, argv, code, lines):
    # the x1/z1 lines are re-derived from U and V, not read from the trace
    flags = ["--u1", "--u2", "--v1", "--v2"]
    args = [x for pair in zip(flags, argv) for x in pair]
    got, out, _ = run(capsys, ["conj", "-p", pres, *args, "--show-certificate"])
    assert got == code and out == lines


def test_verify_conj_counts_unreplayable_answers(capsys, monkeypatch):
    # a definite answer whose trace does not replay is a disagreement,
    # even where brute force finds nothing to contradict it
    def bare(*args):
        res = p_conjugacy(*args)
        return res._replace(trace=ConjugacyTrace(res.trace.branch))

    monkeypatch.setattr(cli, "p_conjugacy", bare)
    code, out, _ = run(capsys, ["verify", "conj", "-p", Z2, "--count", "20", "--seed", "5"])
    assert code == 1
    assert out[-1].startswith("RESULT instances=20 ") and "disagreements=0" not in out[-1]
    assert any(line.startswith("disagree ") and "engine=YES" in line for line in out)


def test_power_certificate_lines(capsys):
    code, out, _ = run(capsys, ["power", "-p", Z, "-w", "aaa", "-u", "a", "--show-certificate"])
    assert code == 0 and out[1] == (
        "certificate: ('power', Decision(verdict=<Verdict.YES: 'yes'>, "
        "certificate=('abelian',)))"
    )
    code, out, _ = run(capsys, ["power", "-p", G2, "-w", "ab", "-u", "a", "--show-certificate"])
    assert code == 1 and out[1] == (
        "certificate: ('commutator', Decision(verdict=<Verdict.NO: 'no'>, "
        "certificate=('dehn', (), 'abaBAA')))"
    )


def test_wp_verdicts(capsys):
    code, out, _ = run(capsys, ["wp", "-p", Z, "-w", "b"])
    assert code == 0 and out == ["YES"]
    code, out, _ = run(capsys, ["wp", "-p", Z, "-w", "a"])
    assert code == 1 and out == ["NO"]


def test_area_value_and_witness(capsys):
    code, out, _ = run(capsys, ["area", "-p", Z2, "-w", "abAB", "--show-certificate"])
    assert code == 0
    assert out[0] == "AREA abAB = 1"
    assert out[1] == "(1; abAB)"
    code, out, _ = run(capsys, ["area", "-p", Z2, "-w", "1"])
    assert code == 0 and out == ["AREA 1 = 0"]
    code, out, _ = run(capsys, ["area", "-p", Z, "-w", "a"])
    assert code == 1 and out == ["NO"]


def test_area_without_a_noise_compliant_witness(capsys):
    # no finisher of this trivial word over Z meets the noise bound, and
    # area search still returns its least-noise witness
    w = "aababABAAbABaBBaaBAAbABABaba"
    code, out, _ = run(capsys, ["area", "-p", Z, "-w", w])
    assert code == 0 and out == [f"AREA {w} = 4"]
    code, out, _ = run(capsys, ["wp", "-p", Z, "--oracle", "search", "-w", w])
    assert code == 0 and out == ["YES"]


def test_reldehn_line(capsys):
    code, out, _ = run(capsys, ["reldehn", "-p", Z, "-n", "4"])
    assert code == 0 and out == ["DELTAC 4 = 12"]


def test_power_lines(capsys):
    code, out, _ = run(capsys, ["power", "-p", Z, "-w", "aaa", "-u", "a"])
    assert code == 0 and out == ["YES p=3"]
    code, out, _ = run(capsys, ["power", "-p", Z, "-w", "ab", "-u", "b"])
    assert code == 1 and out == ["NO"]


def test_perturb_lines(capsys):
    code, out, _ = run(capsys, ["perturb", "-p", Z, "-w", "baB"])
    assert code == 0 and out == ["PERTURBED ab K=1"]
    code, out, _ = run(capsys, ["perturb", "-p", Z, "-w", "bb"])
    assert code == 0 and out == ["EXCEPTIONAL 1"]


def test_perturb_genus2(capsys):
    # the witness is the relator itself and the start is the word's Dehn
    # reduction, so no search over a ball of reduced words stands before
    # the answer, also for a word late in rank order
    code, out, _ = run(capsys, ["perturb", "-p", G2, "-w", "a"])
    assert code == 0 and out == ["PERTURBED aabABcdCD K=1"]
    code, out, _ = run(capsys, ["perturb", "-p", G2, "-w", "a", "--structured"])
    assert code == 0 and out == ["command=perturb outcome=perturbed word=aabABcdCD k=1"]
    code, out, _ = run(capsys, ["perturb", "-p", G2, "-w", "DCBADCB"])
    assert code == 0 and out == ["PERTURBED DCBADCBabABcdCD K=1"]


def test_perturb_certificate_lines(capsys):
    code, out, _ = run(capsys, ["perturb", "-p", Z, "-w", "baB", "--show-certificate"])
    assert code == 0 and out == [
        "PERTURBED ab K=1",
        "certificate: ('abelian',)",
    ]
    code, out, _ = run(capsys, ["perturb", "-p", G2, "-w", "a", "--show-certificate"])
    assert code == 0 and out == [
        "PERTURBED aabABcdCD K=1",
        "certificate: ('dehn', ((1, (0, 1, 0), 8),), '')",
    ]
    code, out, _ = run(capsys, ["perturb", "-p", Z, "-w", "bb", "--show-certificate"])
    assert code == 0 and out == ["EXCEPTIONAL 1", "certificate: ('abelian',)"]


def test_perturb_exhaustion_is_unknown(capsys, tmp_path):
    # single-generator quotient: every candidate stays a proper power,
    # and so does the normal form aa of a^2 in Z/5
    z5 = tmp_path / "z5.txt"
    z5.write_text("generators: a\nrelators: aaaaa\n")
    code, out, _ = run(capsys, ["perturb", "-p", str(z5), "-w", "aa"])
    assert code == 2 and out[0].startswith("UNKNOWN")
    # in Z/3 the normal form A is no proper power: kept, K=0
    code, out, _ = run(capsys, ["perturb", "-p", Z3, "-w", "A"])
    assert code == 0 and out == ["PERTURBED A K=0"]


def test_root_line(capsys):
    code, out, _ = run(capsys, ["root", "-w", "baaB"])
    assert code == 0 and out == ["ROOT baaB = baB^2"]
    code, _, err = run(capsys, ["root", "-w", "1"])
    assert code == 3 and "root" in err


def test_fconj(capsys):
    code, out, _ = run(capsys, ["fconj", "-u", "ab", "-v", "ba"])
    assert code == 0 and out[0].startswith("YES ")
    x = out[0].split(" ", 1)[1]
    x = "" if x == "1" else x
    assert free_reduce(inverse(x) + "ab" + x) == "ba"
    code, out, _ = run(capsys, ["fconj", "-u", "a", "-v", "b"])
    assert code == 1 and out == ["NO"]


def test_gens_listing(capsys):
    code, out, _ = run(capsys, ["gens", "-p", Z])
    assert code == 0
    assert out == ["(a; a)", "(b; b)", "(b; 1)", "(1; b)"]


def test_gens_rejects_unfit_oracle(capsys):
    code, out, err = run(capsys, ["gens", "-p", str(PRES / "z2.txt"), "--oracle", "dehn"])
    assert code == 3 and out == [] and "C'(1/6)" in err


def test_verify_area(capsys):
    # 9 trivial words, then dehn_function(4) against their largest brute-force area
    code, out, _ = run(capsys, ["verify", "area", "-p", Z2, "--max-len", "4"])
    assert code == 0
    assert out[-1] == "RESULT instances=10 agreements=10 disagreements=0 unknowns=0"


def test_verify_area_counts_a_wrong_dehn_function(capsys, monkeypatch):
    monkeypatch.setattr(cli, "dehn_function", lambda n, pres, wp: 2)
    code, out, _ = run(capsys, ["verify", "area", "-p", Z2, "--max-len", "4"])
    assert code == 1
    assert out == [
        "disagree dehn n=4 engine=2 brute=1",
        "RESULT instances=10 agreements=9 disagreements=1 unknowns=0",
    ]


def test_verify_area_counts_rejected_certificates(capsys, monkeypatch):
    # every word decision goes to check_decision, and so does every area witness
    # as a product Yes: a rejected one is a disagreement
    monkeypatch.setattr(cli, "check_decision", lambda dec, w, pres: False)
    code, out, _ = run(capsys, ["verify", "area", "-p", Z2, "--max-len", "2"])
    assert code == 1
    assert "disagree word=ab engine=NO checked=False" in out
    assert "disagree word=1 engine=YES checked=False" in out
    monkeypatch.setattr(cli, "check_decision", lambda dec, w, pres: dec.certificate[0] != "product")
    code, out, _ = run(capsys, ["verify", "area", "-p", Z2, "--max-len", "4"])
    assert code == 1
    assert "disagree word=abAB engine=1 brute=1 checked=False" in out
    assert out[-1] == "RESULT instances=10 agreements=1 disagreements=9 unknowns=0"


def test_verify_power_counts_rejected_certificates(capsys, monkeypatch):
    argv = ["verify", "power", "-p", G2, "--count", "20", "--seed", "2"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out[-1].startswith("RESULT instances=20 agreements=20 ")
    monkeypatch.setattr(cli, "check_power_decision", lambda pd, w, u, pres: False)
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert out[-1] == "RESULT instances=20 agreements=0 disagreements=20 unknowns=0"
    assert all(line.endswith(" checked=False") for line in out[:-1])


def test_each_default_is_stated_once():
    budget = area.STATE_BUDGET
    assert oracle.StrategySpec("search").budget == budget
    for f, name in ((oracle.make_strategy, "budget"), (oracle.auto_strategy, "budget"),
                    (area.area_bounded, "state_budget")):
        assert inspect.signature(f).parameters[name].default == budget, f
    parser = cli._build_parser()
    assert parser.parse_args(["wp", "-p", Z, "-w", "a"]).budget == budget
    assert parser.parse_args(["perturb", "-p", Z, "-w", "a"]).kmax == PerturbConfig().k_max


@pytest.mark.parametrize("pres, w, states", [
    (Presentation("abcd", ("abABcdCD",)), "bBabABcdCD", 1),
    (Presentation("ab", ("b",)), "aababABAAbABaBBaaBAAbABABaba", 5_649),
], ids=["genus2", "z"])
def test_ci_search_words_answer_yes_at_the_default_budget(pres, w, states):
    dec = oracle.wp_decide(w, pres, oracle.make_strategy(pres, "search"))
    assert dec.yes and oracle.check_decision(dec, w, pres)
    assert area.area_bounded(w, None, pres).states == states


def test_verify_conj(capsys):
    code, out, _ = run(
        capsys, ["verify", "conj", "-p", Z, "--count", "10", "--seed", "3"]
    )
    assert code == 0
    assert out[-1].startswith("RESULT instances=10 ")
    assert "disagreements=0" in out[-1]


def test_verify_root(capsys):
    code, out, _ = run(
        capsys, ["verify", "root", "-p", FREE, "--count", "200", "--max-len", "8", "--seed", "2"]
    )
    assert code == 0
    assert out == ["RESULT instances=200 agreements=200 disagreements=0 unknowns=0"]


def test_verify_root_counts_a_wrong_primitive_root(capsys, monkeypatch):
    # every word of length >= 2 over one generator is a proper power
    monkeypatch.setattr(cli, "primitive_root", lambda w: RootDecomposition(w, 1))
    code, out, _ = run(
        capsys, ["verify", "root", "-p", Z3, "--count", "4", "--max-len", "4", "--seed", "2"]
    )
    assert code == 1
    assert out == [
        "disagree word=AA engine=AA^1 brute=A^2",
        "disagree word=aa engine=aa^1 brute=a^2",
        "RESULT instances=4 agreements=2 disagreements=2 unknowns=0",
    ]


def test_structured_output(capsys):
    code, out, _ = run(capsys, ["wp", "-p", Z, "-w", "b", "--structured"])
    assert code == 0 and out == ["command=wp word=b verdict=YES"]
    code, out, _ = run(
        capsys,
        ["conj", "-p", Z, "--u1", "b", "--u2", "b", "--v1", "abA", "--v2", "abA",
         "--structured"],
    )
    assert code == 0 and out == ["command=conj verdict=YES gamma1=A gamma2=A"]


def test_search_unknown_exit(capsys):
    code, out, _ = run(
        capsys,
        ["wp", "-p", G2, "-w", "abab", "--oracle", "search", "--budget", "200"],
    )
    assert code == 2 and out == ["UNKNOWN"]


@pytest.mark.parametrize(
    "argv",
    [
        ["wp", "-p", "does-not-exist.txt", "-w", "a"],
        ["wp", "-p", str(PRES / "z.txt")],
        ["wp", "-p", str(PRES / "z.txt"), "-w", "a$"],
        ["wp", "-p", str(PRES / "z3.txt"), "-w", "b"],
        ["wp", "-p", str(PRES / "z2.txt"), "-w", "a", "--oracle", "free"],
        ["wp", "-p", str(PRES / "z2.txt"), "-w", "a", "--oracle", "dehn"],
        ["wp", "-p", str(PRES / "z.txt"), "-w", "a", "--bogus"],
        [],
        ["perturb", "-p", str(PRES / "z.txt"), "-w", "a", "--kmax", "-3"],
    ],
)
def test_usage_errors_exit_3(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    assert code == 3


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_presentation_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("generators: a b\nrelators: Aba\n")
    code, _, err = run(capsys, ["wp", "-p", str(bad), "-w", "a"])
    assert code == 3
    assert "line 2, column 11" in err and "not cyclically reduced" in err

    dup = tmp_path / "dup.txt"
    dup.write_text("generators: a a\n")
    code, _, err = run(capsys, ["wp", "-p", str(dup), "-w", "a"])
    assert code == 3 and "duplicate generator" in err

    huh = tmp_path / "huh.txt"
    huh.write_text("foo: bar\n")
    code, _, err = run(capsys, ["wp", "-p", str(huh), "-w", "a"])
    assert code == 3 and "expected a 'generators:'" in err


def test_presentation_comments_and_blanks(capsys, tmp_path):
    ok = tmp_path / "ok.txt"
    ok.write_text("# integers\ngenerators: a b  # two\n\nrelators: b\n")
    code, out, _ = run(capsys, ["wp", "-p", str(ok), "-w", "b"])
    assert code == 0 and out == ["YES"]


ROOT = PRES.parent
EXIT_OF_FIRST_WORD = {"NO": 1, "UNKNOWN": 2}


def readme_cli_examples():
    """(argv, expected first line or None) for each line of README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("fibreconj "):
            command, _, comment = line.partition("#")
            examples.append([command.split()[1:], comment.strip() or None])
        elif line.startswith("# "):
            examples[-1][1] = line[2:].strip()
    return examples


def test_readme_examples_exist():
    assert len(readme_cli_examples()) == 10


@pytest.mark.parametrize(
    "argv,expected", readme_cli_examples(), ids=lambda v: " ".join(v) if isinstance(v, list) else None
)
def test_readme_examples(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, argv)
    assert out
    if expected is None:
        assert code == 0
    else:
        assert code == EXIT_OF_FIRST_WORD.get(expected.split()[0], 0)
        assert out[0] == expected


def test_module_entry_point_passes_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "fibreconj.cli", "wp", "-p", "presentations/z.txt", "-w", "a"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == "NO\n"


def test_cold_start_leaves_dataclasses_and_brute_force_unloaded():
    # a query process needs neither; the brute_* references load on first use.
    # -S keeps site-packages hooks, which may import anything, out of the count
    script = """
import sys
import fibreconj, fibreconj.cli
print(sorted({"dataclasses", "inspect", "fibreconj.brute"} & set(sys.modules)))
from fibreconj import *
from fibreconj import brute
names = ("brute_area", "brute_p_conjugacy", "brute_primitive_root")
print(all(getattr(fibreconj, n) is getattr(brute, n) is globals()[n] for n in names))
print(hasattr(fibreconj, "brute_power"))
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True", "False"]
