"""Pin the ``repro`` command surface: every option of every subcommand.

The inventory below was recorded from the parser before the subcommands
became rows of one table.  Each record is ``(action class, option
strings, dest, default, choices, nargs, required)``; a subparsers action
records its sorted command names as its choices.  A dropped, renamed or
re-defaulted option fails here, as does any change to ``repro list``.
"""

import argparse

from repro.cli import build_parser, main

STORE, TRUE, PARSERS = "_StoreAction", "_StoreTrueAction", "_SubParsersAction"


def sweep(seeds):
    """``--seeds`` (if ``seeds`` is given), ``--workers``."""
    records = [] if seeds is None else [
        (STORE, ("--seeds",), "seeds", seeds, None, None, False)
    ]
    return records + [
        (STORE, ("--workers",), "workers", None, None, None, False),
    ]


def opt(flag, default, dest=None):
    """A plain optional ``--flag`` storing one value."""
    dest = dest or flag[2:].replace("-", "_")
    return (STORE, (flag,), dest, default, None, None, False)


def flag(name, dest=None):
    """A ``store_true`` switch."""
    dest = dest or name[2:].replace("-", "_")
    return (TRUE, (name,), dest, False, None, 0, False)


FIG13 = [opt("--stripes-per-process", 10)] + sweep(2)
TESTBED = [opt("--stripes", 96), opt("--seeds", 3)]

INVENTORY = {
    "": [(PARSERS, (), "command", None, (
        "chaos", "fig10", "fig12", "fig13a", "fig13b", "fig13c",
        "fig13d", "fig13e", "fig13f", "fig14", "fig15", "fig3", "fig8a",
        "fig8b", "fig9", "journal", "list", "pipeline", "recovery",
        "theorem1",
    ), "A...", False)],
    "list": [],
    "fig3": [opt("--min-racks", 14), opt("--max-racks", 40)],
    "theorem1": [
        opt("--racks", 20), opt("--k", 10), opt("--stripes", 300),
        opt("--seed", 0),
    ],
    "fig8a": TESTBED,
    "fig8b": TESTBED,
    "fig9": TESTBED,
    "fig10": [opt("--jobs", 30), opt("--seed", 0)],
    "fig12": [opt("--stripes", 96), opt("--seed", 0)],
    "fig13a": FIG13,
    "fig13b": FIG13,
    "fig13c": FIG13,
    "fig13d": FIG13,
    "fig13e": FIG13,
    "fig13f": FIG13,
    "fig14": [opt("--blocks", 10_000), opt("--runs", 10)] + sweep(None),
    "fig15": [opt("--runs", 10)] + sweep(None),
    "chaos": [
        opt("--seed", 0), opt("--stripes", 12), opt("--flaps", 4),
        opt("--rack-outages", 1), opt("--corruptions", 3),
        opt("--horizon", 40.0),
    ],
    "recovery": [
        (STORE, (), "scenario", "single_node_loss", [
            "single_node_loss", "rack_loss", "scrub_storm",
            "rolling_failures", "chaos",
        ], "?", False),
        opt("--seed", 0),
        (STORE, ("--policy",), "policy", "ear", ["rr", "ear", "recovery"],
         None, False),
        opt("--stripes", 6),
        flag("--head-to-head"),
    ] + sweep(1),
    "pipeline": [
        (STORE, ("--strategy",), "strategy", "pipeline",
         ["rr", "ear", "pipeline"], None, False),
        opt("--seed", 0),
        opt("--stripes", 6),
        opt("--chunks", 4),
        flag("--no-disturb"),
        flag("--head-to-head"),
        flag("--json"),
    ] + sweep(1),
    "journal": [(PARSERS, (), "journal_command", None,
                 ("dump", "stats", "verify"), "A...", True)],
    "journal dump": [
        (STORE, (), "directory", None, None, None, True),
        flag("--json", dest="as_json"),
        opt("--type", None, dest="type_filter"),
    ],
    "journal verify": [(STORE, (), "directory", None, None, None, True)],
    "journal stats": [
        (STORE, (), "directory", None, None, None, True),
        flag("--json", dest="as_json"),
    ],
}

LIST_OUTPUT = """\
fig3
theorem1
fig8a
fig8b
fig9
fig10
fig12
fig13a
fig13b
fig13c
fig13d
fig13e
fig13f
fig14
fig15
chaos
recovery
pipeline
"""


def walk(parser, path="", out=None):
    """Map each (sub)command path to the records of its actions, in order."""
    out = {} if out is None else out
    records = out.setdefault(path, [])
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = tuple(sorted(action.choices))
            for name, child in action.choices.items():
                walk(child, f"{path} {name}".strip(), out)
        records.append((
            type(action).__name__, tuple(action.option_strings), action.dest,
            action.default, choices, action.nargs, action.required,
        ))
    return out


class TestOptionInventory:
    def test_every_option_is_pinned(self):
        assert walk(build_parser()) == INVENTORY

    def test_option_count(self):
        records = walk(build_parser())
        commands = [path for path in records if path and " " not in path]
        assert len(commands) == 20
        options = sum(
            1 for path, rows in records.items() if path
            for row in rows if row[0] != PARSERS
        )
        assert options == 67

    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == LIST_OUTPUT
