"""The unified ExecutionOptions surface: validation, per-statement
overrides, the absence of any second spelling, and README doc-sync."""

import dataclasses
import pathlib
import re
import warnings

import pytest

from repro import Connection, Database, ExecutionOptions, MultiSet, connect
from repro.options import CHECKS, ENGINES

DDL = """
create Nums: { int4 }
append to Nums value (1)
append to Nums value (2)
"""


# -- construction & validation --------------------------------------------

def test_defaults_match_connect_defaults():
    options = ExecutionOptions()
    assert options.engine == "compiled" and options.checks == "off"
    assert options.trace is False and options.access_paths == "auto"
    conn = connect()
    assert conn.options == options


def test_engine_is_validated():
    for engine in ENGINES:
        assert ExecutionOptions(engine=engine).engine == engine
    with pytest.raises(ValueError, match="engine"):
        ExecutionOptions(engine="jit")


def test_sanitize_implies_analyze():
    """One ordered ladder: each level runs every level before it, so
    sanitize implies analyze implies verify — and no boolean spells a
    level any more."""
    assert CHECKS == ("off", "verify", "analyze", "sanitize")
    for level in CHECKS:
        assert ExecutionOptions(checks=level).checks == level
    with pytest.raises(ValueError, match="checks"):
        ExecutionOptions(checks="bogus")
    for gone in ("verify", "analyze", "sanitize"):
        with pytest.raises(TypeError):
            ExecutionOptions(**{gone: True})


@pytest.mark.parametrize("level, steps", [
    ("off", []),
    ("verify", ["verify"]),
    ("analyze", ["analyze", "verify"]),
    ("sanitize", ["sanitize", "verify"]),
])
def test_each_check_level_runs_the_levels_below(level, steps, monkeypatch):
    """What ``prepare`` runs per level: the abstract interpreter (in
    sanitizer mode at the top) and then the inference gate."""
    from repro.core import analysis
    from repro.excess import pipeline
    ran = []
    infer, abstract = analysis.inference_for_database, pipeline._analyze

    def spy_infer(catalog):
        ran.append("verify")
        return infer(catalog)

    def spy_abstract(expr, catalog, statistics, sanitize):
        ran.append("sanitize" if sanitize else "analyze")
        return abstract(expr, catalog, statistics, sanitize)

    monkeypatch.setattr(analysis, "inference_for_database", spy_infer)
    monkeypatch.setattr(pipeline, "_analyze", spy_abstract)
    conn = connect(Database(), ExecutionOptions(checks=level))
    conn.execute(DDL)
    assert ran == steps * 2     # each append's delta plan, like a retrieve
    del ran[:]
    conn.execute("retrieve (N) from N in Nums")
    assert ran == steps


def test_batched_engine_has_no_knobs():
    """Its batch size is a constant and it always runs serially."""
    for gone in ({"parallel": 2}, {"batch_size": 8}):
        with pytest.raises(TypeError):
            ExecutionOptions(**gone)


def test_access_paths_are_validated():
    with pytest.raises(ValueError, match="access_paths"):
        ExecutionOptions(access_paths="always")


def test_readers_is_validated():
    assert ExecutionOptions().readers is None
    assert ExecutionOptions(readers=1).readers == 1
    for bad in (0, -3):
        with pytest.raises(ValueError, match="readers"):
            ExecutionOptions(readers=bad)


def test_replace_revalidates():
    options = ExecutionOptions(engine="batched")
    assert options.replace(trace=True).engine == "batched"
    with pytest.raises(ValueError):
        options.replace(access_paths="always")


def test_options_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ExecutionOptions().engine = "batched"


# -- the connection surface ------------------------------------------------

def test_connect_accepts_options_positionally():
    conn = connect(Database(), ExecutionOptions(engine="batched",
                                                access_paths="off"))
    assert conn.engine == "batched"
    assert conn.session.options.access_paths == "off"
    assert conn.options.engine == "batched"


def test_connection_options_setter_is_live():
    conn = connect(Database())
    conn.execute(DDL)
    conn.options = ExecutionOptions(engine="interpreted", trace=True)
    assert conn.engine == "interpreted" and conn.tracing
    result = conn.execute("retrieve (N) from N in Nums")
    assert result.engine == "interpreted" and result.trace is not None


def test_execute_override_restores_on_error():
    conn = connect(Database())
    conn.execute(DDL)
    with pytest.raises(Exception):
        conn.execute("retrieve (X) from X in NoSuch",
                     options=ExecutionOptions(engine="batched"))
    assert conn.engine == "compiled"


def test_session_exposes_options_snapshot():
    conn = connect(Database(), ExecutionOptions(engine="batched",
                                                readers=3))
    options = conn.session.options
    assert options.engine == "batched" and options.readers == 3


# -- one spelling ------------------------------------------------------------

def test_options_are_the_only_way_to_pass_a_switch():
    """Five fields, and no per-keyword spelling beside them."""
    assert [f.name for f in dataclasses.fields(ExecutionOptions)] == [
        "engine", "checks", "trace", "access_paths", "readers"]
    for call in (connect, Connection):
        with pytest.raises(TypeError):
            call(Database(), engine="interpreted")


def test_options_path_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        conn = connect(Database(), ExecutionOptions(engine="batched"))
        conn.execute(DDL)
        value = conn.execute("retrieve (N) from N in Nums").value
        assert isinstance(value, MultiSet) and len(value) == 2


# -- documentation sync ----------------------------------------------------

@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_docs_mention_every_option_field(doc):
    """README's quickstart and DESIGN's options-surface section must
    mention every ExecutionOptions field and every ``checks`` level by
    name, so the public knobs and their docs cannot drift apart."""
    text = (pathlib.Path(__file__).resolve().parents[2] / doc).read_text()
    for field in dataclasses.fields(ExecutionOptions):
        assert field.name in text, (
            "%s does not mention ExecutionOptions.%s" % (doc, field.name))
    for level in CHECKS:
        assert '"%s"' % level in text, (
            '%s does not mention checks level "%s"' % (doc, level))
    assert "ExecutionOptions" in text


def test_readme_options_example_lists_exactly_the_fields():
    """The quickstart's ``ExecutionOptions(...)`` example is the options
    table: one keyword per field, and none for a field that is gone."""
    text = (pathlib.Path(__file__).resolve().parents[2]
            / "README.md").read_text()
    block = text.split("opts = ExecutionOptions(", 1)[1].split("\n)", 1)[0]
    assert sorted(re.findall(r"^ +(\w+)=", block, re.M)) == sorted(
        f.name for f in dataclasses.fields(ExecutionOptions))
