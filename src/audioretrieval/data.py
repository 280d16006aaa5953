"""Dataset loading, log-mel feature extraction, and caption preprocessing."""
from __future__ import annotations

import csv
import functools
import json
import os
import struct
import unicodedata
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

MAX_TOKENS = 32  # captions are truncated to this many tokens
STFT_BLOCK = 16  # frames that logmel windows and transforms at a time
LOG_FLOOR = 1e-10  # added to the mel power before logmel takes its log


@dataclass
class Waveform:
    samples: np.ndarray  # mono float64, nominal range [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ValueError("waveform must be non-empty")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


def check_int(obj, name: str, minimum: int, maximum: int | None = None) -> None:
    """Reject the field ``name`` of ``obj`` unless it is an int (not a bool) >= ``minimum``
    and, if ``maximum`` is given, <= ``maximum``."""
    value = getattr(obj, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}")


def check_range(obj, name: str, minimum: float, maximum: float, open_below: bool = False) -> None:
    """Reject the field ``name`` of ``obj`` unless it is an int or float (not a bool) in
    [``minimum``, ``maximum``], or in (``minimum``, ``maximum``] with ``open_below``."""
    value = getattr(obj, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (minimum < value if open_below else minimum <= value) or not value <= maximum:
        raise ValueError(f"{name} outside {'(' if open_below else '['}{minimum}, {maximum}]")


def check_positive(obj, name: str) -> None:
    """Reject the field ``name`` of ``obj`` unless it is an int or float (not a bool),
    finite and > 0."""
    value = getattr(obj, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < np.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass
class FeatureConfig:
    n_fft: int = 1024
    hop: int = 320
    n_mels: int = 64
    target_sr: int = 32000

    def __post_init__(self):
        for f in fields(self):
            check_int(self, f.name, 1)
        if self.n_fft % 2:
            raise ValueError("n_fft must be even")
        if self.hop > self.n_fft:
            raise ValueError("hop must not exceed n_fft")


@dataclass
class MelSpectrogram:
    """Natural-log mel power matrix of one clip, shape [n_mels, T]."""

    values: np.ndarray


@dataclass
class TokenVocab:
    token_to_id: dict[str, int] = field(default_factory=dict)

    PAD = 0
    UNK = 1

    def __len__(self):
        return len(self.token_to_id) + 2

    def words(self) -> list[str]:
        return list(self.token_to_id)


@dataclass
class MelStats:
    """Per-clip, per-bin statistics of log-mel frames: frame counts [N] and
    mean, population variance and max [N, n_mels]."""

    count: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    max: np.ndarray

    def take(self, idx: np.ndarray) -> "MelStats":
        """A copy of the rows ``idx`` (an integer index array)."""
        return MelStats(*(getattr(self, f.name)[idx] for f in fields(self)))

    def mapped(self, center, slope, offset=0.0) -> "MelStats":
        """The statistics of the frames mapped per bin by x -> (x - center) * slope + offset,
        slope >= 0; the arguments broadcast against [N, n_mels]."""
        return MelStats(self.count, (self.mean - center) * slope + offset, self.var * slope**2,
                        (self.max - center) * slope + offset)


@dataclass
class NormStats:
    mean: np.ndarray
    var: np.ndarray
    count: int = 0

    @classmethod
    def fresh(cls, n_mels: int) -> "NormStats":
        return cls(np.zeros(n_mels), np.ones(n_mels), 0)


@dataclass
class PairedDataset:
    items: list[tuple[str, Waveform, list[str]]]

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def load_wav(path) -> Waveform:
    """Read a RIFF WAV file (PCM 16/24/32-bit or IEEE float 32/64-bit) as mono float; a
    float sample that is NaN or infinite raises ValueError naming the file."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(path)
    try:
        sr, raw = _read_wav(path.read_bytes())
    except ValueError as exc:
        raise ValueError(f"unsupported WAV format in {path}: {exc}") from exc
    if raw.dtype.kind == "f" and not np.isfinite(raw).all():
        raise ValueError(f"non-finite sample (NaN or infinity) in {path}")
    # int16 or (left-justified) int32 scaled to [-1, 1) exactly, in one pass; float as it is
    scale = 2.0 ** (1 - 8 * raw.dtype.itemsize) if raw.dtype.kind == "i" else 1.0
    samples = np.multiply(raw, scale, dtype=np.float64)
    if samples.ndim == 2:  # downmix by channel mean
        samples = samples.mean(axis=1)
    return Waveform(samples, int(sr))


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# the last 12 bytes of WAVE_FORMAT_EXTENSIBLE's sub-format GUID; its first 4 are the format tag
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> sample dtype; "<i3" is 24-bit PCM, read into int32
_SAMPLE_DTYPES = {(_PCM, 16): "<i2", (_PCM, 24): "<i3", (_PCM, 32): "<i4",
                  (_IEEE_FLOAT, 32): "<f4", (_IEEE_FLOAT, 64): "<f8"}


def _read_wav(buf: bytes) -> tuple[int, np.ndarray]:
    """(rate, samples) of a little-endian RIFF WAVE file's bytes: samples are [frames]
    for one channel and [frames, channels] otherwise, int16 or int32 for PCM (24-bit
    left-justified in int32) and float32 or float64 for IEEE float."""
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError(f"not a RIFF WAVE file (starts with {buf[:4]!r})")
    view, pos, fmt = memoryview(buf), 12, None
    while pos + 8 <= len(buf):
        chunk, size = struct.unpack_from("<4sI", buf, pos)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{chunk.decode('latin-1')!r} chunk cut short")
        if chunk == b"fmt ":
            fmt = _wav_format(body)
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before the data chunk")
            rate, channels, frame, dtype = fmt
            if size % frame:
                raise ValueError(f"data chunk of {size} bytes is not whole {frame}-byte frames")
            if dtype == "<i3":  # each sample's 3 bytes above a zero low byte
                wide = np.zeros((size // 3, 4), dtype=np.uint8)
                wide[:, 1:] = np.frombuffer(body, np.uint8).reshape(-1, 3)
                samples = wide.view("<i4")[:, 0]
            else:
                samples = np.frombuffer(body, dtype)
            return rate, samples.reshape(-1, channels) if channels > 1 else samples
        pos += 8 + size + (size & 1)  # an odd-sized chunk is followed by a pad byte
    raise ValueError("no data chunk")


def _wav_format(body) -> tuple[int, int, int, str]:
    """(rate, channels, bytes per frame, sample dtype) of a fmt chunk's body."""
    if len(body) < 16:
        raise ValueError("fmt chunk shorter than 16 bytes")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _EXTENSIBLE and len(body) >= 40 and body[28:40] == _GUID_TAIL:
        tag = struct.unpack_from("<I", body, 24)[0]
    dtype = _SAMPLE_DTYPES.get((tag, bits))
    if dtype is None or channels < 1 or block_align != channels * bits // 8:
        raise ValueError(f"format tag {tag:#x} with {bits}-bit samples, {channels} channel(s) "
                         f"and {block_align}-byte frames is not supported")
    return rate, channels, block_align, dtype


def save_wav(path, w: Waveform) -> None:
    """Write ``w`` as a mono 32-bit IEEE float WAV file."""
    pcm = w.samples.astype("<f4").tobytes()
    chunks = (b"fmt " + struct.pack("<IHHIIHHH", 18, _IEEE_FLOAT, 1, w.sample_rate,
                                    4 * w.sample_rate, 4, 32, 0)
              + b"fact" + struct.pack("<II", 4, len(w.samples))
              + b"data" + struct.pack("<I", len(pcm)))
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks) + len(pcm)) + b"WAVE"
                           + chunks + pcm)


def resample_linear(w: Waveform, target_sr: int) -> Waveform:
    """Linear-interpolation resampling; identity when rates already match."""
    if target_sr <= 0:
        raise ValueError("target_sr must be positive")
    if target_sr == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    x = w.samples
    n_out = int(len(x) * target_sr // w.sample_rate)
    # output sample i lies at p = i * rate / target_sr; with j = floor(p) it is
    # x[j] + (x[j + 1] - x[j]) * (p - j), the last sample standing for its own right
    # neighbour: np.interp over the positions 0..len-1 without building them, in place
    frac = np.arange(n_out) * (w.sample_rate / target_sr)
    j = frac.astype(np.intp)
    frac -= j
    out = x[j]
    j += 1
    step = x[np.minimum(j, len(x) - 1, out=j)]
    step -= out
    step *= frac
    out += step
    return Waveform(out, target_sr)


def _hz_to_mel(f):
    # Slaney scale: linear below 1 kHz, log above.
    f = np.asarray(f, dtype=np.float64)
    mel = f / (200.0 / 3.0)
    log_region = f >= 1000.0
    mel = np.where(log_region, 15.0 + np.log(np.maximum(f, 1e-12) / 1000.0) / (np.log(6.4) / 27.0), mel)
    return mel


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = m * (200.0 / 3.0)
    log_region = m >= 15.0
    f = np.where(log_region, 1000.0 * np.exp((m - 15.0) * (np.log(6.4) / 27.0)), f)
    return f


def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """Area-normalized triangular filters from 0 Hz to target_sr / 2, shape
    [n_mels, n_fft//2 + 1]. Built once per distinct setting; the cached array is read-only.
    """
    return _filterbank(cfg.n_fft, cfg.n_mels, cfg.target_sr)


@functools.lru_cache(maxsize=None)
def _filterbank(n_fft: int, n_mels: int, sr: int) -> np.ndarray:
    n_bins = n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * (sr / n_fft)
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sr / 2), n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_freqs - lo) / max(ctr - lo, 1e-12)
        down = (hi - fft_freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
        fb[m] *= 2.0 / (hi - lo)  # Slaney area normalization
    fb.flags.writeable = False
    return fb


def logmel(w: Waveform, cfg: FeatureConfig) -> MelSpectrogram:
    """Hann STFT power -> mel filterbank -> natural log with additive floor LOG_FLOOR.

    Frames are reflect-centered; T = 1 + len // hop.
    """
    if w.sample_rate != cfg.target_sr:
        raise ValueError(
            f"waveform rate {w.sample_rate} != feature rate {cfg.target_sr}; resample first"
        )
    n = len(w.samples)
    if n < cfg.hop:
        raise ValueError(f"waveform of {n} samples shorter than one hop ({cfg.hop})")
    n_frames = 1 + n // cfg.hop
    half = cfg.n_fft // 2
    padded = np.pad(w.samples, half, mode="reflect")
    # periodic Hann
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft))
    # frame t is padded[t * hop : t * hop + n_fft], a strided view
    windows = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)[:: cfg.hop]
    # window, transform and square STFT_BLOCK frames at a time: the complex spectrum of
    # a whole clip never exists at once, and every row comes out as it would unblocked
    power = np.empty((n_frames, half + 1))  # [T, n_bins]
    for s in range(0, n_frames, STFT_BLOCK):
        spec = np.fft.rfft(windows[s : s + STFT_BLOCK] * window, axis=1)
        np.add(spec.real**2, spec.imag**2, out=power[s : s + STFT_BLOCK])
    mel_power = mel_filterbank(cfg) @ power.T
    return MelSpectrogram(np.log(mel_power + LOG_FLOOR))


def mel_stats(mels: Iterable[np.ndarray]) -> MelStats:
    """Count, mean, population variance and max of each clip's frames [n_mels, T], per bin.

    One sum gives the mean, and the variance reuses it: the same operations as
    ``np.mean``, ``np.var`` and ``np.max`` over the frames, so the same bits."""
    count, mean, var, top = [], [], [], []
    for v in mels:
        n = v.shape[1]
        mu = np.add.reduce(v, axis=1) / n
        dev = v - mu[:, None]
        count.append(n)
        mean.append(mu)
        var.append(np.add.reduce(np.multiply(dev, dev, out=dev), axis=1) / n)
        top.append(np.maximum.reduce(v, axis=1))
    return MelStats(np.array(count, dtype=np.int64), *map(np.array, (mean, var, top)))


def freq_normalize(
    stats: MelStats, norm: NormStats, update: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Standardization of each mel bin, as the per-bin map x -> (x - center) * scale.

    With ``update`` set (training), the batch's own per-bin statistics over
    its frames are used, combined from the clips' statistics as within-clip
    plus between-clip variance, and folded into the running stats ``norm``
    with momentum 0.1; otherwise the running stats apply. The statistics are
    constants for gradient purposes.
    """
    if update:
        n = int(stats.count.sum())
        mean = stats.count @ stats.mean / n
        var = stats.count @ (stats.var + (stats.mean - mean) ** 2) / n
        norm.mean = 0.9 * norm.mean + 0.1 * mean
        norm.var = 0.9 * norm.var + 0.1 * var
        norm.count += n
    else:
        mean, var = norm.mean, norm.var
    return mean, 1.0 / np.sqrt(var + 1e-5)


def write_atomic(path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of string chunks written one at a time,
    to ``path`` through a temporary file in the same directory and ``os.replace``, so
    ``path`` holds either its old bytes or all of ``text`` (also when a chunk iterator
    raises)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class _PunctuationTable(dict):
    """A ``str.translate`` table that deletes Unicode punctuation (category P*) and keeps
    every other character; each code point's category is looked up once."""

    def __missing__(self, code: int) -> str | None:
        char = chr(code)
        self[code] = kept = None if unicodedata.category(char).startswith("P") else char
        return kept


_STRIP_PUNCTUATION = _PunctuationTable()


def preprocess_caption(text: str) -> str:
    """Lowercase, strip Unicode punctuation, collapse whitespace."""
    return " ".join(text.lower().translate(_STRIP_PUNCTUATION).split())


def build_vocab(captions: list[str]) -> TokenVocab:
    vocab = TokenVocab()
    next_id = 2
    for cap in captions:
        for word in cap.split():
            if word not in vocab.token_to_id:
                vocab.token_to_id[word] = next_id
                next_id += 1
    return vocab


def tokenize(texts: list[str], vocab: TokenVocab) -> np.ndarray:
    """Token ids of each text, truncated at MAX_TOKENS, as one int64 matrix
    [len(texts), width] whose rows are padded with PAD=0 to the longest."""
    id_for = vocab.token_to_id.get
    rows = [[id_for(w, TokenVocab.UNK) for w in text.split()][:MAX_TOKENS] for text in texts]
    out = np.zeros((len(rows), max(map(len, rows), default=0)), dtype=np.int64)
    for i, ids in enumerate(rows):
        out[i, : len(ids)] = ids
    return out


CLASS_WORDS = [
    ["rain", "pours", "heavily", "outside"],
    ["dog", "barks", "loudly", "nearby"],
    ["engine", "rumbles", "idling", "steadily"],
    ["birds", "chirp", "morning", "trees"],
    ["waves", "crash", "shore", "rhythm"],
    ["crowd", "talks", "busy", "market"],
    ["bell", "rings", "church", "tower"],
    ["wind", "howls", "through", "canyon"],
    ["train", "passes", "rails", "clatter"],
    ["thunder", "rolls", "distant", "storm"],
    ["children", "laugh", "playing", "park"],
    ["door", "creaks", "slowly", "open"],
]

_DISTRACTORS = [
    "a", "the", "is", "and", "some", "very", "can", "be", "heard", "while",
    "in", "background", "with", "sound", "of", "it", "continues", "then",
]


def synth_dataset(
    n_classes: int,
    n_items: int,
    seed: int,
    split: str = "train",
    sample_rate: int = 32000,
    duration: float = 1.0,
    captions_per_item: int = 3,
) -> Iterator[tuple[str, Waveform, list[str]]]:
    """Yield ``(id, Waveform, captions)`` of paired sine-mixture recordings and templated
    captions, each made when it is reached; a bad setting raises at the first record.

    Each item draws a latent class; the class fixes both the component
    frequencies of the audio and a word set shared by all its captions.
    """
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if n_classes > len(CLASS_WORDS):
        raise ValueError(f"at most {len(CLASS_WORDS)} classes supported")
    if captions_per_item < 1:
        raise ValueError("captions_per_item must be >= 1")
    rng = np.random.default_rng(seed)
    n_samp = int(sample_rate * duration)
    t = np.arange(n_samp) / sample_rate
    # class frequencies spread across distinct mel regions
    base_freqs = np.geomspace(200.0, sample_rate / 2 * 0.6, n_classes * 3).reshape(n_classes, 3)
    for i in range(n_items):
        k = int(rng.integers(n_classes))
        phases = rng.uniform(0, 2 * np.pi, size=3)
        jitter = rng.uniform(0.97, 1.03, size=3)
        sig = sum(
            np.sin(2 * np.pi * f * j * t + p) / 3.0
            for f, j, p in zip(base_freqs[k], jitter, phases)
        )
        sig = sig + rng.normal(0, 0.02, size=n_samp)
        sig = np.clip(sig, -1.0, 1.0)
        captions = []
        for _ in range(captions_per_item):
            extra = rng.choice(_DISTRACTORS, size=3, replace=False)
            words = list(CLASS_WORDS[k]) + list(extra)
            rng.shuffle(words)
            captions.append(" ".join(words))
        yield f"{split}_{i:05d}_c{k}", Waveform(sig, sample_rate), captions


class ManifestError(ValueError):
    """A manifest record that cannot be used; the message names its manifest and line, or clip."""


def iter_manifest(path, audio_root=None) -> Iterator[tuple[str, Waveform, list[str]]]:
    """Yield ``(id, Waveform, captions)`` for each record of a CSV
    (file_name,caption_1..caption_5) or JSONL manifest, decoding a record's WAV only
    when it is reached. A record without captions, or whose WAV cannot be read,
    raises ManifestError at that record."""
    path = Path(path)
    root = Path(audio_root) if audio_root else path.parent
    for line_no, audio, captions in _manifest_records(path):
        where = f"{path}: line {line_no}"
        if not captions:
            raise ManifestError(f"{where}: item {audio!r} has no captions")
        try:
            wav = load_wav(root / audio)
        except (OSError, ValueError) as exc:
            raise ManifestError(f"{where}: cannot read {audio!r}: {exc}") from exc
        yield audio, wav, captions


def _manifest_records(path: Path) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, audio file, captions) of each record of a manifest."""
    if path.suffix.lower() == ".jsonl":
        with _open_manifest(path) as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    audio, captions = str(rec["audio"]), rec["captions"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise ManifestError(f"{path}: line {line_no}: bad record: {exc!r}") from exc
                if not isinstance(captions, list) or not all(isinstance(c, str) for c in captions):
                    raise ManifestError(f"{path}: line {line_no}: captions must be a list of strings")
                yield line_no, audio, captions
    else:
        with _open_manifest(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "file_name" not in reader.fieldnames:
                raise ManifestError(f"{path}: line 1: no file_name column")
            cap_cols = [c for c in reader.fieldnames if c.startswith("caption_")]
            for row in reader:
                yield reader.line_num, row["file_name"], [row[c] for c in cap_cols if row.get(c)]


def _open_manifest(path: Path, newline=None):
    """The manifest opened for reading; a file that cannot be opened (missing, a
    directory, unreadable) raises ManifestError naming it and why."""
    try:
        return open(path, newline=newline, encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"{path}: cannot open the manifest: {exc.strerror or exc}") from exc


def load_manifest(path, audio_root=None) -> PairedDataset:
    """Every record of a manifest (see ``iter_manifest``), decoded at once."""
    return PairedDataset(list(iter_manifest(path, audio_root)))
