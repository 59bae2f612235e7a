import argparse
import contextlib
import io
import os
import re

import yaml

from vlcwdma import cli, experiment

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_use_example_runs():
    text = open(README).read()
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().count("LinkReport(") == 8


def test_cli_synopsis_names_every_run_flag():
    section = open(README).read().split("## Command line", 1)[1]
    synopsis = re.search(r"```\n(.*?)```", section, re.S).group(1)
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for action in sub.choices["run"]._actions for opt in action.option_strings if opt.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == flags - {"--help"}


def test_config_example_names_every_key():
    section = open(README).read().split("## Configuration file", 1)[1]
    example = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    keys = {key for rows in experiment._KEYS.values() for key in rows}
    assert {key for key in keys if not re.search(rf"\b{key}:", example)} == set()
    experiment.parse_config(yaml.safe_load(example))
