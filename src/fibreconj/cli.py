"""Command-line front door.

One query per invocation, one machine-readable result line, exit codes
0 = yes/value, 1 = no, 2 = unknown, 3 = usage or parse error.  The exit
code depends on the verdict only, never on which strategy produced it.
`main` reads the presentation and builds the strategy; each subcommand's
runner gets both and prints its result line through `_emit`.
"""

from __future__ import annotations

import sys

from .area import STATE_BUDGET, area_bounded, dehn_function, rel_cyclics_dehn
from .decisions import Decision, OracleUnknown, Verdict
from .oracle import (
    KINDS,
    auto_strategy,
    check_decision,
    check_power_decision,
    make_strategy,
    power_decide,
    wp_decide,
)
from .perturb import KMaxExhausted, PerturbConfig, power_avoid
from .presentation import Presentation
from .subdirect import canonical_setup, conjugacy_words, p_conjugacy, p_membership, replay_trace
from .words import (
    free_conjugator,
    free_reduce,
    parse_word,
    primitive_root,
    random_reduced_word,
    reduced_words,
    validate_word,
    word_str,
)


class CLIError(Exception):
    """Input problem with an optional source location."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            loc = f"line {line}" + (f", column {col}" if col is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)


def parse_presentation(text: str) -> Presentation:
    """Parse the two-line presentation grammar with located diagnostics."""
    gens: str | None = None
    relators: list[str] = []
    saw_relators = False
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        col0 = raw.index(stripped[0]) + 1
        if stripped.startswith("generators:"):
            if gens is not None:
                raise CLIError("duplicate generators line", ln, col0)
            payload = stripped[len("generators:") :]
            symbols = payload.split()
            if not symbols:
                raise CLIError("no generators declared", ln, col0)
            seen = []
            for sym in symbols:
                col = raw.index(sym, raw.index(":") + 1) + 1
                if len(sym) != 1 or not ("a" <= sym <= "z"):
                    raise CLIError(f"generator {sym!r} must be one lowercase letter", ln, col)
                if sym in seen:
                    raise CLIError(f"duplicate generator {sym!r}", ln, col)
                seen.append(sym)
            gens = "".join(seen)
        elif stripped.startswith("relators:"):
            if saw_relators:
                raise CLIError("duplicate relators line", ln, col0)
            saw_relators = True
            payload = stripped[len("relators:") :].strip()
            if not payload:
                continue
            pos = raw.index(":") + 1
            for item in payload.split(","):
                token = item.strip()
                if not token:
                    raise CLIError("empty relator entry", ln, pos + 1)
                col = raw.index(token, pos) + 1
                pos = col - 1 + len(token)
                relators.append((token, ln, col))
        else:
            raise CLIError("expected a 'generators:' or 'relators:' line", ln, col0)
    if gens is None:
        raise CLIError("missing generators line")
    words = []
    for token, ln, col in relators:
        try:
            w = parse_word(token)
            Presentation(gens, (w,))
        except ValueError as exc:
            raise CLIError(str(exc), ln, col)
        words.append(w)
    return Presentation(gens, tuple(words))


def parse_presentation_file(path: str) -> Presentation:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CLIError(f"cannot read presentation file: {exc}")
    return parse_presentation(text)


def _build_parser():
    # argparse (and gettext, which it imports) load only when a command line is parsed
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse maps usage errors to exit 2 by default; we need 3."""

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(3)

    parser = _Parser(prog="fibreconj")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-p", "--presentation", required=True)
    common.add_argument("--oracle", choices=KINDS)
    common.add_argument("--budget", type=int, default=STATE_BUDGET)
    common.add_argument("--show-certificate", action="store_true")
    common.add_argument("--structured", action="store_true")

    free_common = argparse.ArgumentParser(add_help=False)
    free_common.add_argument("-p", "--presentation")
    free_common.add_argument("--structured", action="store_true")

    def add(name, run, parent=common):
        p = sub.add_parser(name, parents=[parent])
        p.set_defaults(run=run)
        return p

    add("wp", _run_wp).add_argument("-w", "--word", required=True)
    add("area", _run_area).add_argument("-w", "--word", required=True)
    add("dehn", _run_dehn).add_argument("-n", type=int, required=True)
    add("reldehn", _run_reldehn).add_argument("-n", type=int, required=True)

    p = add("member", _run_member)
    p.add_argument("-u", required=True)
    p.add_argument("-v", required=True)

    p = add("conj", _run_conj)
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--v1", required=True)
    p.add_argument("--v2", required=True)

    p = add("power", _run_power)
    p.add_argument("-w", "--word", required=True)
    p.add_argument("-u", required=True)

    p = add("perturb", _run_perturb)
    p.add_argument("-w", "--word", required=True)
    p.add_argument("--kmax", type=int, default=PerturbConfig().k_max)

    add("root", _run_root, free_common).add_argument("-w", "--word", required=True)

    p = add("fconj", _run_fconj, free_common)
    p.add_argument("-u", required=True)
    p.add_argument("-v", required=True)

    add("gens", _run_gens)

    p = add("verify", _run_verify)
    p.add_argument("what", choices=["area", "conj", "power", "root"])
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=int, default=6)

    return parser


def _strategy(pres: Presentation, args):
    if args.oracle:
        return make_strategy(pres, args.oracle, args.budget)
    return auto_strategy(pres, args.budget)


def _word_arg(s: str, pres: Presentation | None) -> str:
    w = parse_word(s)
    validate_word(w, pres.generators if pres else None)
    return w


_EXIT = {Verdict.YES: 0, Verdict.NO: 1, Verdict.UNKNOWN: 2}


def _emit(args, plain: str, **pairs) -> None:
    if args.structured:
        print(" ".join(f"{k}={v}" for k, v in {"command": args.command, **pairs}.items()))
    else:
        print(plain)


def _emit_decision(args, dec, plain: str, **pairs) -> int:
    """The result line, then the certificate line if asked for; the verdict's exit code."""
    _emit(args, plain, **pairs)
    if args.show_certificate and dec.certificate is not None:
        print(f"certificate: {dec.certificate!r}")
    return _EXIT[dec.verdict]


def _pair_str(pair) -> str:
    return f"({word_str(pair[0])}; {word_str(pair[1])})"


def _run_wp(args, pres, strat) -> int:
    w = _word_arg(args.word, pres)
    dec = wp_decide(w, pres, strat)
    return _emit_decision(args, dec, dec.verdict.name, word=word_str(w), verdict=dec.verdict.name)


def _run_area(args, pres, strat) -> int:
    w = _word_arg(args.word, pres)
    dec = wp_decide(w, pres, strat)
    res = area_bounded(w, None, pres, state_budget=args.budget) if dec.yes else None
    if res is None or res.value is None:
        verdict = dec.verdict if res is None else Verdict.UNKNOWN
        _emit(args, verdict.name, word=word_str(w), verdict=verdict.name)
        return _EXIT[verdict]
    _emit(args, f"AREA {word_str(w)} = {res.value}", word=word_str(w), value=res.value)
    if args.show_certificate and res.witness is not None:
        for theta, rel in res.witness.factors:
            print(f"({word_str(theta)}; {word_str(rel)})")
    return 0


def _run_dehn(args, pres, strat) -> int:
    value = dehn_function(args.n, pres, lambda w: wp_decide(w, pres, strat))
    _emit(args, f"DELTA {args.n} = {value}", n=args.n, value=value)
    return 0


def _run_reldehn(args, pres, strat) -> int:
    value = rel_cyclics_dehn(
        args.n,
        pres,
        lambda w, u: power_decide(w, u, pres, strat),
        lambda w: wp_decide(w, pres, strat),
    )
    _emit(args, f"DELTAC {args.n} = {value}", n=args.n, value=value)
    return 0


def _run_member(args, pres, strat) -> int:
    first, second = _word_arg(args.u, pres), _word_arg(args.v, pres)
    dec = p_membership((first, second), canonical_setup(pres), strat)
    return _emit_decision(args, dec, dec.verdict.name, first=word_str(first),
                          second=word_str(second), verdict=dec.verdict.name)


def _run_conj(args, pres, strat) -> int:
    U = (free_reduce(_word_arg(args.u1, pres)), free_reduce(_word_arg(args.u2, pres)))
    V = (free_reduce(_word_arg(args.v1, pres)), free_reduce(_word_arg(args.v2, pres)))
    res = p_conjugacy(U, V, canonical_setup(pres), strat)
    if res.yes:
        _emit(args, f"YES {_pair_str(res.conjugator)}", verdict="YES",
              gamma1=word_str(res.conjugator[0]), gamma2=word_str(res.conjugator[1]))
    else:
        _emit(args, res.verdict.name, verdict=res.verdict.name)
    if args.show_certificate:
        t = res.trace
        print(f"branch: {t.branch}")
        if t.branch == "main":
            d = conjugacy_words(U, V)
            print(f"x1={word_str(d.x1)} x2={word_str(d.x2)} w={word_str(d.w)}")
            print(f"z1={word_str(d.z1)}^{d.e1} z2={word_str(d.z2)}^{d.e2}")
            for j, pd in enumerate(t.queries):
                print(f"query j={j} target={word_str(d.target(j))} "
                      f"verdict={pd.verdict.name} p={pd.p}")
            # a Yes ends the scan; res.yes also needs the conjugator's membership
            won = t.queries[-1]
            print(f"winner: {(len(t.queries) - 1, won.p) if won.yes else None}")
    return _EXIT[res.verdict]


def _run_power(args, pres, strat) -> int:
    pd = power_decide(_word_arg(args.word, pres), _word_arg(args.u, pres), pres, strat)
    if pd.yes:
        return _emit_decision(args, pd, f"YES p={pd.p}", verdict="YES", p=pd.p)
    return _emit_decision(args, pd, pd.verdict.name, verdict=pd.verdict.name)


def _run_perturb(args, pres, strat) -> int:
    w = _word_arg(args.word, pres)
    res = power_avoid(w, PerturbConfig(k_max=args.kmax), canonical_setup(pres), strat)
    word = word_str(res.word)
    if res.perturbed:
        return _emit_decision(args, res.image_certificate, f"PERTURBED {word} K={res.k}",
                              outcome="perturbed", word=word, k=res.k)
    return _emit_decision(args, res.image_certificate, f"EXCEPTIONAL {word}",
                          outcome="exceptional", word=word)


def _run_root(args, pres, strat) -> int:
    w = _word_arg(args.word, pres)
    if free_reduce(w) == "":
        raise CLIError("the empty word has no root decomposition")
    dec = primitive_root(free_reduce(w))
    _emit(args, f"ROOT {word_str(w)} = {word_str(dec.root)}^{dec.exponent}",
          word=word_str(w), root=word_str(dec.root), exponent=dec.exponent)
    return 0


def _run_fconj(args, pres, strat) -> int:
    x = free_conjugator(_word_arg(args.u, pres), _word_arg(args.v, pres))
    if x is None:
        _emit(args, "NO", verdict="NO")
        return 1
    _emit(args, f"YES {word_str(x)}", verdict="YES", conjugator=word_str(x))
    return 0


def _run_gens(args, pres, strat) -> int:
    for pair in canonical_setup(pres).p_generators:
        print(_pair_str(pair))
    return 0


def _run_verify(args, pres, strat) -> int:
    import random

    from . import brute  # the references load only here, not on every query

    instances = agreements = disagreements = unknowns = 0
    rng = random.Random(args.seed)

    if args.what == "area":
        # the largest brute-force area over every reduced trivial word,
        # against dehn_function, which asks about one word of each inverse
        # pair of cyclically reduced words;
        # each word decision and each area witness must pass its checker
        brute_delta = 0
        for w in reduced_words(pres.generators, args.max_len):
            dec = wp_decide(w, pres, strat)
            if dec.unknown:
                unknowns += 1
                continue
            if not check_decision(dec, w, pres):
                instances += 1
                disagreements += 1
                print(f"disagree word={word_str(w)} engine={dec.verdict.name} checked=False")
                continue
            if dec.no:
                continue
            instances += 1
            res = area_bounded(w, None, pres, state_budget=args.budget)
            ref = brute.brute_area(w, pres, max_states=args.budget)
            if res.value is None or ref is None:
                unknowns += 1
                continue
            brute_delta = max(brute_delta, ref)
            checked = check_decision(Decision(Verdict.YES, ("product", res.witness)), w, pres)
            if checked and res.value == ref:
                agreements += 1
            else:
                disagreements += 1
                print(f"disagree word={word_str(w)} engine={res.value} brute={ref} "
                      f"checked={checked}")
        if not unknowns:
            instances += 1
            delta = dehn_function(args.max_len, pres, lambda w: wp_decide(w, pres, strat))
            if delta == brute_delta:
                agreements += 1
            else:
                disagreements += 1
                print(f"disagree dehn n={args.max_len} engine={delta} brute={brute_delta}")
    elif args.what == "conj":
        setup = canonical_setup(pres)
        for inst in brute.random_instances(setup, args.seed, args.count, max_len=args.max_len):
            instances += 1
            res = p_conjugacy(inst.pair_u, inst.pair_v, setup, strat)
            ref = brute.brute_p_conjugacy(inst.pair_u, inst.pair_v, setup)
            if res.unknown:
                unknowns += 1
                continue
            replays = replay_trace(res, inst.pair_u, inst.pair_v, setup, strat)
            if replays and not (res.no and ref.status == "FOUND"):
                agreements += 1
            else:
                disagreements += 1
                print(f"disagree U={_pair_str(inst.pair_u)} V={_pair_str(inst.pair_v)} "
                      f"engine={res.verdict.name} brute={ref.status}")
    elif args.what == "power":
        for _ in range(args.count):
            w = random_reduced_word(rng, pres.generators, rng.randint(0, args.max_len))
            u = random_reduced_word(rng, pres.generators, rng.randint(1, args.max_len))
            instances += 1
            pd = power_decide(w, u, pres, strat)
            if pd.unknown:
                unknowns += 1
                continue
            ref = brute.brute_power(w, u, pres, strat, max_abs_p=16)
            checked = check_power_decision(pd, w, u, pres)
            if checked and ref == pd.p:  # a No has p None
                agreements += 1
            else:
                disagreements += 1
                print(f"disagree w={word_str(w)} u={word_str(u)} "
                      f"engine={pd.verdict.name}:{pd.p} brute={ref} checked={checked}")
    else:
        for _ in range(args.count):
            w = random_reduced_word(rng, pres.generators, rng.randint(1, args.max_len))
            instances += 1
            mine = primitive_root(w)
            root, e = brute.brute_primitive_root(w)
            if (mine.root, mine.exponent) == (root, e):
                agreements += 1
            else:
                disagreements += 1
                print(f"disagree word={word_str(w)} engine={word_str(mine.root)}^"
                      f"{mine.exponent} brute={word_str(root)}^{e}")

    print(f"RESULT instances={instances} agreements={agreements} "
          f"disagreements={disagreements} unknowns={unknowns}")
    return 0 if disagreements == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    try:
        pres = parse_presentation_file(args.presentation) if args.presentation else None
        strat = _strategy(pres, args) if "oracle" in args else None
        return args.run(args, pres, strat)
    except (KMaxExhausted, OracleUnknown) as exc:
        print(f"UNKNOWN {exc}")
        return 2
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
