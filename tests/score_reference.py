"""Reference for ``trainer.score_split``: every caption query embedded and scored in one
block, then ranked, as before the queries were blocked."""
import numpy as np

from audioretrieval.metrics import RetrievalResult, from_ranks, rank_targets
from audioretrieval.model import embed_audio, embed_text, similarity_matrix
from audioretrieval.trainer import pooled_audio


def scores(split, tokens, params, stats) -> np.ndarray:
    """The [queries, clips] similarity matrix of the whole split."""
    audio_emb = embed_audio(pooled_audio(split, np.arange(len(split)), stats, update=False), params)
    return similarity_matrix(embed_text(tokens, params), audio_emb)


def score_split(split, tokens, targets, params, stats) -> RetrievalResult:
    return from_ranks(rank_targets(scores(split, tokens, params, stats), targets))
