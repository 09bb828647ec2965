"""Synthetic compositional corpus and multiple-choice VQA set.

Images are 16x16 grayscale grids composed of 1-3 glyph stamps with known
identities; captions come from a tiny controlled grammar, so the object/scene
containment hierarchy is available as ground truth. Everything is
deterministic under a master seed (per-sample generators are spawned from
numpy SeedSequences).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor

SCHEMA_VERSION = 1

IMAGE_SIZE = 16
GLYPH_SIZE = 5

GLYPH_NAMES = (
    "circle", "square", "cross", "triangle", "ring", "dot", "bar", "wave",
    "star", "grid", "arrow", "spiral", "hook", "fork", "loop", "step",
)

LAYOUT_WORDS = ("lone", "duo", "trio")  # indexed by object count - 1
MAX_GLYPHS = len(LAYOUT_WORDS)  # objects per scene

# Prompt stems, CLIP style: the candidate answer is appended to the stem and
# the pair is scored as a caption. Both stems also occur in training captions.
QUESTION_TEMPLATES = (
    "picture with",
    "scene with",
)

# The longest caption: the longest stem, then MAX_GLYPHS glyphs joined by "and".
MAX_CAPTION_TOKENS = (max(len(stem.split()) for stem in LAYOUT_WORDS + QUESTION_TEMPLATES)
                      + 2 * MAX_GLYPHS - 1)

PAD_TOKEN = "<pad>"

_EXTRA_WORDS = (
    "and", "which", "object", "is", "shown", "what", "appears",
    "in", "the", "picture", "scene", "with",
)

VOCAB = (PAD_TOKEN,) + GLYPH_NAMES + LAYOUT_WORDS + _EXTRA_WORDS
WORD_TO_ID = {w: i for i, w in enumerate(VOCAB)}
PAD_ID = 0


class Tokenizer:
    """Whitespace tokenizer over the fixed toy vocabulary."""

    def __init__(self, max_len: int = 32):
        self.max_len = max_len

    def encode(self, text: str, check_len: bool = True) -> list[int]:
        words = text.split()
        if not words:
            raise ValueError("cannot encode an empty string")
        try:
            ids = [WORD_TO_ID[w] for w in words]
        except KeyError as exc:
            raise ValueError(f"out-of-vocabulary word {exc.args[0]!r}") from None
        if check_len and len(ids) > self.max_len:
            raise ValueError(f"sequence of {len(ids)} tokens exceeds context {self.max_len}")
        return ids

    def pad_batch(self, sequences: list[list[int]],
                  width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Right-pad to the longest sequence in the batch (or to `width`);
        returns (tokens (B, L), lengths (B,)). Pad keys are masked out of
        attention."""
        if width is None:
            width = max(len(s) for s in sequences)
        batch = np.full((len(sequences), width), PAD_ID, dtype=np.int64)
        lengths = np.empty(len(sequences), dtype=np.int64)
        for i, seq in enumerate(sequences):
            batch[i, : len(seq)] = seq
            lengths[i] = len(seq)
        return batch, lengths


def _glyph_bitmaps() -> dict[str, np.ndarray]:
    """Fixed 5x5 stamps, one per glyph name, deterministic across runs."""
    rng = np.random.default_rng(np.random.SeedSequence((0x61F9, 7)))
    stamps = {}
    for name in GLYPH_NAMES:
        while True:
            stamp = (rng.random((GLYPH_SIZE, GLYPH_SIZE)) < 0.45).astype(np.float64)
            if 6 <= stamp.sum() <= 18 and all(not np.array_equal(stamp, s) for s in stamps.values()):
                break
        stamps[name] = stamp
    return stamps


GLYPH_BITMAPS = _glyph_bitmaps()


@dataclass
class CompositionalSample:
    """Training quadruple: scene image + caption, plus per-object boxes."""

    image: np.ndarray
    caption: str
    boxes: list[tuple[np.ndarray, str]]
    glyphs: list[str] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "v": SCHEMA_VERSION,
            "image": self.image.tolist(),
            "caption": self.caption,
            "boxes": [{"image": b.tolist(), "caption": c} for b, c in self.boxes],
            "glyphs": self.glyphs,
        }


@dataclass
class VqaItem:
    """Evaluation record: image, question, exactly four candidates, gold index."""

    image: np.ndarray
    question: str
    candidates: list[str]
    gold_index: int

    def __post_init__(self):
        if len(self.candidates) != 4:
            raise ValueError("exactly 4 candidates required")
        if not 0 <= self.gold_index < 4:
            raise ValueError("gold_index out of range")

    def to_record(self) -> dict:
        return {
            "v": SCHEMA_VERSION,
            "image": self.image.tolist(),
            "question": self.question,
            "candidates": self.candidates,
            "gold_index": self.gold_index,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "VqaItem":
        return cls(
            image=np.asarray(rec["image"], dtype=np.float64),
            question=rec["question"],
            candidates=list(rec["candidates"]),
            gold_index=int(rec["gold_index"]),
        )


def _render_scene(glyphs: list[str], rng: np.random.Generator) -> tuple[np.ndarray, list[np.ndarray]]:
    """Place glyph stamps at non-overlapping random positions."""
    image = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=np.float64)
    occupied = np.zeros_like(image, dtype=bool)
    crops = []
    for name in glyphs:
        stamp = GLYPH_BITMAPS[name]
        for _ in range(100):
            r = int(rng.integers(0, IMAGE_SIZE - GLYPH_SIZE + 1))
            c = int(rng.integers(0, IMAGE_SIZE - GLYPH_SIZE + 1))
            region = occupied[r : r + GLYPH_SIZE, c : c + GLYPH_SIZE]
            if not region.any():
                break
        image[r : r + GLYPH_SIZE, c : c + GLYPH_SIZE] += stamp
        occupied[r : r + GLYPH_SIZE, c : c + GLYPH_SIZE] = True
        crops.append(_render_box(name))
    return image, crops


def _render_box(name: str) -> np.ndarray:
    """Re-render the glyph alone, centered, for a context-free object view."""
    box = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=np.float64)
    off = (IMAGE_SIZE - GLYPH_SIZE) // 2
    box[off : off + GLYPH_SIZE, off : off + GLYPH_SIZE] = GLYPH_BITMAPS[name]
    return box


def _scenes(seed: int, tag: int, n: int, glyph_set_size: int):
    """Draw `n` scenes, each from its own generator seeded by (seed, tag,
    index): 1-3 distinct glyphs of the first `glyph_set_size`, then the
    rendered scene. Yields (rng, glyphs, image, crops); callers go on drawing
    from `rng`."""
    if not 4 <= glyph_set_size <= len(GLYPH_NAMES):
        raise ValueError(f"glyph_set_size must be in [4, {len(GLYPH_NAMES)}]")
    active = GLYPH_NAMES[:glyph_set_size]
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((seed, tag, i)))
        glyphs = list(rng.choice(active, size=int(rng.integers(1, MAX_GLYPHS + 1)), replace=False))
        image, crops = _render_scene(glyphs, rng)
        yield rng, glyphs, image, crops


def generate_corpus(seed: int, n_samples: int, glyph_set_size: int = 8) -> list[CompositionalSample]:
    samples = []
    for rng, glyphs, image, crops in _scenes(seed, 1, n_samples, glyph_set_size):
        # half layout-counted captions, half prompt-form so the evaluation
        # stems are in-distribution for the text encoder
        form = int(rng.integers(4))
        if form < 2:
            stem = LAYOUT_WORDS[len(glyphs) - 1]
        else:
            stem = QUESTION_TEMPLATES[form - 2]
        caption = f"{stem} " + " and ".join(glyphs)
        boxes = [(crop, name) for crop, name in zip(crops, glyphs)]
        samples.append(CompositionalSample(image=image, caption=caption, boxes=boxes, glyphs=glyphs))
    return samples


def generate_vqa(seed: int, n_items: int, glyph_set_size: int = 8) -> list[VqaItem]:
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    items = []
    for rng, glyphs, image, _ in _scenes(seed, 2, n_items, glyph_set_size):
        question = QUESTION_TEMPLATES[int(rng.integers(len(QUESTION_TEMPLATES)))]
        gold = glyphs[int(rng.integers(len(glyphs)))]
        absent = [g for g in GLYPH_NAMES[:glyph_set_size] if g not in glyphs]
        n_distract = min(3, len(absent))
        distractors = list(rng.choice(absent, size=n_distract, replace=False))
        # Fewer than four natural options: duplicate an incorrect answer.
        while len(distractors) < 3:
            distractors.append(distractors[int(rng.integers(len(distractors)))])
        candidates = distractors + [gold]
        order = rng.permutation(4)
        candidates = [candidates[j] for j in order]
        gold_index = int(np.nonzero(order == 3)[0][0])
        items.append(VqaItem(image=image, question=question, candidates=candidates, gold_index=gold_index))
    return items


def neftune_noise(token_embeddings: Tensor, alpha_noise: float, rng: np.random.Generator) -> Tensor:
    """Add uniform noise in [-a/sqrt(L*d), +a/sqrt(L*d)] to token embeddings.

    L is the batch's token width (`shape[-2]`), not each row's length, so a
    row's noise depends on the longest row in its batch. That is by design:
    NEFTune's reference hook scales by the padded `size(1) * size(2)` too
    (Jain et al., arXiv:2310.05914). `alpha_noise` 0 returns the embeddings
    as they are and draws nothing.
    """
    if alpha_noise == 0.0:
        return token_embeddings
    shape = token_embeddings.shape
    length, dim = shape[-2], shape[-1]
    bound = alpha_noise / np.sqrt(length * dim)
    noise = rng.uniform(-bound, bound, size=shape)
    return token_embeddings + noise


def save_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_record()) + "\n")


def load_vqa(path) -> list[VqaItem]:
    """The items of a `save_jsonl` file of VQA items. A line that is not JSON,
    lacks a key, or holds a schema version other than SCHEMA_VERSION raises
    ValueError naming the file and the line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if rec["v"] != SCHEMA_VERSION:
                    raise ValueError(f"schema version {rec['v']!r}, expected {SCHEMA_VERSION}")
                records.append(VqaItem.from_record(rec))
            except KeyError as exc:
                raise ValueError(f"{path}, line {lineno}: missing key {exc.args[0]!r}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return records
