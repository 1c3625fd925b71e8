"""Shared fixtures."""

import pytest

from taufact import cli


@pytest.fixture(scope="session")
def _survey_run():
    return {}


@pytest.fixture
def shared_survey(monkeypatch, _survey_run):
    """Let every ``verify hfd-z-small`` CLI run in the session reuse one
    survey (about 4 s each).  Each later call must pass the arguments of
    the first one, so the outputs compared are those of that exact run."""
    real = cli.run_small_integer_survey

    def once(**kwargs):
        if not _survey_run:
            _survey_run.update(kwargs=kwargs, result=real(**kwargs))
        assert kwargs == _survey_run["kwargs"]
        return _survey_run["result"]

    monkeypatch.setattr(cli, "run_small_integer_survey", once)
