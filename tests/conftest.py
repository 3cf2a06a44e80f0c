import pytest

from ftcal import ToySpec, default_train_config, run_toy_pipeline


@pytest.fixture(autouse=True)
def _own_parse_cache(tmp_path_factory, monkeypatch):
    """Each test's own empty CLI parse cache, in and out of process: no test
    writes to the home cache or is served an entry another test stored."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))


@pytest.fixture(scope="session")
def toy_report(tmp_path_factory):
    """One default toy run shared by every test that needs a trained pair."""
    outdir = tmp_path_factory.mktemp("toy_fixture")
    return run_toy_pipeline(ToySpec(), default_train_config(seed=0), outdir)
