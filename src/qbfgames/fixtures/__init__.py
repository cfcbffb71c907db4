"""Bundled sample game traces, one per ruleset.

Each fixture is a trace file replaying a full worked game; the expected
winner is noted in the file's comment line.
"""

FIXTURE_NAMES = (
    "either-local-different",
    "by-player-local-same",
    "by-player-local-different",
    "by-player-anywhere-same",
    "by-player-anywhere-different",
    "either-local-same",
    "either-anywhere-same",
    "either-anywhere-different",
)


def fixture_text(name: str) -> str:
    """Contents of a bundled trace; `name` may omit the .trace suffix."""
    from importlib import resources  # costs tens of ms at start-up

    if not name.endswith(".trace"):
        name += ".trace"
    base = name[: -len(".trace")]
    if base not in FIXTURE_NAMES:
        raise KeyError(f"no bundled fixture {base!r}")
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")
