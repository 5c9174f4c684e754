"""The README's examples, run as written."""

import inspect
import re
from fractions import Fraction

import infobalance as ib
from conftest import readme_section


def code_block(section, language):
    """The one ``language`` code block of the README section ``section``."""
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", readme_section(section), re.M | re.S)
    return block


def test_library_example_runs(capsys):
    exec(compile(code_block("Library example", "python"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("FanoCheck(") and lines[2].endswith("holds=True)")


def test_file_format_example_is_dumps_instrument():
    assert code_block("File formats", "json") == ib.dumps_instrument(ib.projective())


def test_family_defaults_are_the_signature_defaults():
    text = " ".join(readme_section("CLI").split())
    (stated,) = re.findall(r"without `PARAM` each uses its default: (.*?)\. ", text)
    defaults = dict(re.findall(r"`([a-z-]+)` (\d+(?:/\d+)?)", stated))
    assert defaults.keys() == ib.FAMILIES.keys()
    for name, value in defaults.items():
        (param,) = inspect.signature(ib.FAMILIES[name]).parameters.values()
        assert param.default == float(Fraction(value)), name
