import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from audioretrieval import audio_aug
from audioretrieval.model import ModelDims, init_params
from audioretrieval.smbo import open_log, run_search

# CI's tier-1 step sets HYPOTHESIS_PROFILE=ci: every property test derandomized, so that
# a failure there reproduces locally under the same variable, and with four times the
# examples it runs by default (see ``examples``).
settings.register_profile("ci", max_examples=400, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def examples(n: int) -> int:
    """A property test's example count: ``n`` under the default profile (whose
    max_examples is 100), scaled with the loaded profile's max_examples."""
    return n * settings.default.max_examples // 100


@pytest.fixture
def small_dims():
    return ModelDims(embed_dim=8, audio_hidden=16, text_hidden=16, token_embed_dim=8)


@pytest.fixture
def small_params(small_dims):
    return init_params(small_dims, 8, 10, 1)


def random_mel_batch(rng, n, n_mels=8, t=10):
    """``n`` clips' log-mel frames [n_mels, t]."""
    return [rng.normal(size=(n_mels, t)) for _ in range(n)]


def random_token_batch(rng, n, vocab_size=10, max_len=8):
    """An [n, max_len - 1] id matrix; each row holds 2..max_len-1 ids, then PAD."""
    out = np.zeros((n, max_len - 1), dtype=np.int64)
    for row in out:
        length = int(rng.integers(2, max_len))
        row[:length] = rng.integers(1, vocab_size, size=length)
    return out


def logged_search(log_path, objective, space, n_init: int, n_trials: int, seed: int,
                  resume: bool = False):
    """``run_search`` continuing the trials log at ``log_path`` and appending to it, as the
    ``smbo`` command does."""
    trials = open_log(log_path, n_trials, resume)[0]
    with open(log_path, "a") as log:
        return run_search(objective, space, n_init, n_trials, seed, trials=trials, log=log)


def forced_mix_lambdas(value: float | None):
    """A patch of ``audio_aug.sample_mix_lambdas`` that makes the generator's draws and
    then gives every clip the mixing coefficient ``value`` (None: the drawn ones)."""
    real = audio_aug.sample_mix_lambdas

    def sample_mix_lambdas(rng, alpha, n):
        lambdas = real(rng, alpha, n)
        return lambdas if value is None else np.full(n, value)
    return mock.patch.object(audio_aug, "sample_mix_lambdas", sample_mix_lambdas)
