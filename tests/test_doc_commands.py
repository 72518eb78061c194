"""The docs and CI name only commands that exist.

Every ``python -m repro.tools.<name>`` in the user-facing docs, the CI
workflow and the verification notes must name a module under
``src/repro/tools/``, and every experiment id after
``python -m repro.experiments`` must be registered in
:data:`repro.experiments.runner.EXPERIMENTS` (or be ``all``). A deleted
tool or experiment then cannot leave a dangling command behind.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS

ROOT = Path(__file__).parents[1]
TOOLS = ROOT / "src" / "repro" / "tools"
DOCS = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
]

TOOL_RE = re.compile(r"\bpython3?\s+-m\s+repro\.tools\.(\w+)")
# The ids are the bare words after the module, up to the first option,
# comment, shell operator or closing backtick.
EXPERIMENT_RE = re.compile(
    r"\bpython3?\s+-m\s+repro\.experiments(?![\w.])"
    r"((?:[ \t]+[A-Za-z0-9_][\w-]*(?=[\s`'\");,]|$))*)",
    re.MULTILINE,
)


def commands(text):
    """``(tools, experiment ids)`` named by ``python -m`` lines in ``text``."""
    tools = TOOL_RE.findall(text)
    ids = [i for group in EXPERIMENT_RE.findall(text) for i in group.split()]
    return tools, ids


@pytest.mark.parametrize("name", DOCS)
def test_doc_commands_exist(name):
    tools, ids = commands((ROOT / name).read_text())
    assert tools or ids, f"{name} names no repro command; is the pattern stale?"
    missing = sorted({t for t in tools if not (TOOLS / f"{t}.py").is_file()})
    assert not missing, f"{name} runs tools with no module: {missing}"
    unknown = sorted({i for i in ids if i != "all" and i not in EXPERIMENTS})
    assert not unknown, f"{name} runs unregistered experiments: {unknown}"


def test_patterns_parse_commands():
    text = (
        "python -m repro.tools.render city t.stream\n"
        "`python -m\nrepro.experiments table2 fig9 --scale bench`\n"
        "python3 -m repro.experiments all`); python -m repro.experiments.runner\n"
        "python -m repro.experiments vt   # comment\n"
    )
    assert commands(text) == (["render"], ["table2", "fig9", "all", "vt"])
