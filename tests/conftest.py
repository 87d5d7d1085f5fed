import pytest
from hypothesis import settings

from svloop.data import copy_corpus
from svloop.manifest import RunConfig, load_corpus, write_mutation_corpus
from svloop.mutate import make_corpus

CORPUS_SEED = 1

# every run draws the same examples and no example fails on wall time
settings.register_profile("svloop", derandomize=True, deadline=None)
settings.load_profile("svloop")


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Writable copy of the desk corpus with the seed-1 mutant corpus built."""
    dest = tmp_path_factory.mktemp("corpus") / "desk"
    copy_corpus(dest)
    for problem in load_corpus(dest):
        records, skipped = make_corpus(problem, CORPUS_SEED)
        write_mutation_corpus(problem, records, skipped, CORPUS_SEED)
    return dest


@pytest.fixture(scope="session")
def problems(corpus_dir):
    return {p.id: p for p in load_corpus(corpus_dir)}


@pytest.fixture()
def fresh_corpus(tmp_path):
    """Pristine corpus copy without mutants, for mutate/CLI tests."""
    dest = tmp_path / "desk"
    copy_corpus(dest)
    return dest


@pytest.fixture()
def mock_run_config(tmp_path):
    return RunConfig(provider="mock", script_dir=str(tmp_path / "script"), seed=CORPUS_SEED)


def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-only",
        action="store_true",
        help="run only the acceptance criteria tests",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--acceptance-only"):
        items[:] = [i for i in items if "test_acceptance" in str(i.fspath)]
