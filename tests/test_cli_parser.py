"""The CLI's table-driven parser against the argparse parser it replaced.

The reference below is the earlier `build_parser` and `_attach_grid`,
verbatim but for the two switches since removed from the CLI (`check
--paranoid`, `construct --no-verify`).  Argument vectors are drawn from each command's vocabulary: full
flags, unique and ambiguous prefixes, `--flag=value`, repeated flags, `--`,
the positional anywhere, missing required flags, bad choices and bad
`--cap` values, unknown flags and extra positionals.  Where argparse
accepts a vector, every field must be equal; where it exits 2, `main`
exits 2 with one `error:` line; where it prints its help, so does `main`.

The one difference is a flag's value that starts with '-': argparse
refuses it unless it reads as a negative number or holds a space, while
the table's parser takes the next token as it is.  So the drawn values
that start with '-' are negative numbers, tokens with a space, and
`--grid -1,0,1`, which `_attach_grid` rewrote.  A `--` is drawn only
right before a last positional: argparse's handling of `--` elsewhere
varies between Python versions.
"""

import argparse
import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitalg.cli import (
    COMMANDS,
    RECIPES,
    UsageError,
    cmd_check,
    cmd_check_operator,
    cmd_construct,
    cmd_search,
    main,
    parse_args,
)
from splitalg.identities import CATALOG_NAMES


# ----------------------------------------------------------------------
# The reference: the argparse parser as it was

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitalg",
        description="Exact verification and construction for split-operation algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check an object against an identity catalog")
    p.add_argument("file")
    p.add_argument("--object", required=True)
    p.add_argument("--catalog", required=True, choices=CATALOG_NAMES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("check-operator", help="check an operator property of a map")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--on", help="object the operator lives on (if ambiguous)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check_operator)

    p = sub.add_parser("construct", help="run a construction and write the result")
    p.add_argument("file")
    p.add_argument("--recipe", required=True, choices=tuple(RECIPES))
    p.add_argument("--out", required=True)
    p.add_argument("--algebra")
    p.add_argument("--rep")
    p.add_argument("--action")
    p.add_argument("--map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("search", help="enumerate operators over a finite grid")
    p.add_argument("file")
    p.add_argument("--object", help="object to search on (if ambiguous)")
    p.add_argument("--kind", required=True)
    p.add_argument("--grid", required=True, help="comma-separated rationals")
    p.add_argument("--cap", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_search)

    return parser


def _attach_grid(argv: list[str]) -> list[str]:
    """`--grid -1,0,1` as `--grid=-1,0,1`: argparse takes a separate value
    that starts with '-' and is not a plain number for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--grid" and re.match(r"-[\d.]", arg):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def reference(argv):
    """(None, fields) when argparse accepts `argv`, else (exit code, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return None, vars(build_parser().parse_args(_attach_grid(list(argv))))
    except SystemExit as e:
        return e.code, out.getvalue()


def run_main(argv):
    """(exit code, stdout, stderr) of `main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_same_as_reference(argv):
    code, result = reference(argv)
    if code is None:
        assert vars(parse_args(list(argv))) == result
    elif code == 0:  # argparse printed its help
        code, out, err = run_main(argv)
        assert (code, err) == (0, "") and out.startswith("usage: splitalg")
    else:
        assert code == 2
        with pytest.raises(UsageError):
            parse_args(list(argv))
        code, out, err = run_main(argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err


# ----------------------------------------------------------------------
# Argument vectors from each command's vocabulary

REFERENCE_FLAGS = {
    command: {
        action.option_strings[-1]: action
        for action in subparser._actions
        if action.option_strings and action.option_strings[-1] != "--help"
    }
    for command, subparser in build_parser()._subparsers._group_actions[0].choices.items()
}
NAMES = ["doc.json", "dend", "poly", "a b", "-5", "-1.5", ""]
BAD_CAPS = ["x", "1.5", "", "9" * 5000]
GOOD_CAPS = ["7", "-3", "0", " 9", "1_000"]
GRIDS = ["0,1", "1/2", "-1", "2,x", ""]


def prefixes(flag, flags):
    """The prefixes of a flag, at least '--' and one letter, that name no
    other flag in full: (unique, ambiguous)."""
    cut = [flag[:n] for n in range(3, len(flag)) if flag[:n] not in flags]
    names = [*flags, "--help"]
    return (
        [p for p in cut if sum(n.startswith(p) for n in names) == 1],
        [p for p in cut if sum(n.startswith(p) for n in names) > 1],
    )


@st.composite
def flag_tokens(draw, command):
    """One flag of the command with its value, as one or two tokens."""
    flags = REFERENCE_FLAGS[command]
    flag = draw(st.sampled_from(sorted(flags)))
    action = flags[flag]
    unique, ambiguous = prefixes(flag, flags)
    name = draw(st.sampled_from([flag, flag, *unique, *ambiguous]))
    if action.nargs == 0:
        return [draw(st.sampled_from([name, name, name, f"{name}=x"]))]
    if action.choices:
        value = draw(st.sampled_from([*action.choices, "nope", action.choices[0][:3]]))
    elif action.type is int:
        value = draw(st.sampled_from(GOOD_CAPS + BAD_CAPS))
    elif flag == "--grid":
        value = draw(st.sampled_from(GRIDS + (["-1,0,1"] if name == "--grid" else [])))
    else:
        value = draw(st.sampled_from(NAMES))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def argvs(draw, command):
    flags = REFERENCE_FLAGS[command]
    items = []
    if draw(st.integers(0, 3)):  # mostly every required flag, each once
        for flag, action in flags.items():
            if action.required:
                value = action.choices[0] if action.choices else "x"
                items.append([flag, value])
    items += draw(st.lists(flag_tokens(command), max_size=5))
    items += draw(st.lists(st.sampled_from([["--bogus"], ["-x"], ["extra.json"], ["-h"], ["--help"], ["--he"]]),
                           max_size=1))
    items = draw(st.permutations(items))
    positional = draw(st.sampled_from(["doc.json", "doc.json", "-", "-7", "a b"]))
    if draw(st.integers(0, 9)):
        at = draw(st.integers(0, len(items)))
        if at == len(items) and draw(st.booleans()):
            items.append(["--", positional])
        else:
            items.insert(at, [positional])
    return [command] + [token for item in items for token in item]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(COMMANDS)))
def test_parser_matches_argparse(data, command):
    assert_same_as_reference(data.draw(argvs(command)))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--he"], ["--help=x"], ["--"], ["nope"], ["--bogus"], ["check"],
    ["construct", "--re", "x", "-h"], ["search", "-h", "--cap", "x"], ["search", "--cap", "x", "-h"],
    ["check", "f", "--object", "o", "--catalog", "dendriform", "--", "g"],
])
def test_parser_matches_argparse_on(argv):
    assert_same_as_reference(argv)


@pytest.mark.parametrize("command", [None, *COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_flag_and_choice(command, flag):
    code, out, err = run_main([flag] if command is None else [command, flag])
    assert (code, err) == (0, "")
    for name in COMMANDS if command is None else [command]:
        assert f"splitalg {name} file" in out
        for option, action in REFERENCE_FLAGS[name].items():
            assert option in out
            assert all(choice in out for choice in action.choices or ())
