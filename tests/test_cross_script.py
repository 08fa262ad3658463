"""Unicode coverage: unspaced scripts, multibyte scalars, exotic whitespace."""

from tlab.corpus import GoldSegmentation, TextCorpus, load_gold, load_text, save_text
from tlab.lab import parse_grid_spec, run_grid
from tlab.metrics import boundary_counts, f1_score, token_stats
from tlab.ngram import build_model, load_model, save_model
from tlab.segmenter import SegmenterParams, segment, segment_corpus

# three fake "words" in CJK codepoints, repeated in varying orders
CJK_WORDS = ("你好", "世界", "语言学")


def cjk_corpus(lines=40):
    import random

    rng = random.Random(99)
    raw = []
    gold = []
    for _ in range(lines):
        tokens = rng.choices(CJK_WORDS, k=rng.randint(3, 6))
        raw.append("".join(tokens))
        gold.append(tuple(tokens))
    return TextCorpus(tuple(raw)), GoldSegmentation(tuple(gold))


def test_unspaced_cjk_segmentation_recovers_words():
    train, gold = cjk_corpus()
    model = build_model(train, 3)
    params = SegmenterParams(2, 0.5, 0, "union")
    segs = segment_corpus(model, train, params)
    for seg, line in zip(segs, train.lines):
        assert "".join(seg) == line
    f1 = f1_score(boundary_counts(segs, gold.lines))
    assert f1 > 0.9  # three non-overlapping words are easy to find


def test_model_file_round_trips_multibyte(tmp_path):
    train, _ = cjk_corpus(lines=10)
    model = build_model(train, 2)
    path = tmp_path / "cjk.tsv"
    save_model(model, path)
    assert load_model(path, range(1, 3)) == model


def test_astral_scalars_are_single_positions():
    # surrogate-free handling: an astral emoji counts as one scalar
    line = "a\U0001f600b"
    model = build_model(TextCorpus((line,)), 1)
    assert model.windows[1] == {"a\U0001f600": 1, "\U0001f600b": 1}
    seg = segment(model, line, SegmenterParams(1, 0.0, 0, "union"))
    assert "".join(seg) == line
    assert all(len(t) >= 1 for t in seg)


def test_ideographic_space_is_whitespace_for_scoring():
    # U+3000 separates tokens in the prediction; gold has no spaces
    pred = [("你好", "　", "世界")]
    gold = GoldSegmentation((("你好", "世界"),))
    counts = boundary_counts(pred, gold.lines)
    f1 = f1_score(counts)
    assert f1 == 1.0
    stats = token_stats(pred)
    assert "　" not in stats.lexicon


def test_text_io_round_trip_preserves_cjk(tmp_path):
    corpus = TextCorpus(("你好 世界", "语言学"))
    path = tmp_path / "c.txt"
    save_text(corpus, path)
    assert load_text(path).lines == corpus.lines
    gold = load_gold(path)
    assert gold.lines[0] == ("你好", "世界")


def test_grid_runs_on_unspaced_script():
    train, gold = cjk_corpus()
    spec = parse_grid_spec("n=1..2;peak=0.3,0.6;prune=0;mode=fwd,union")
    records = run_grid(train, train, gold, spec)
    assert len(records) == 2 * 2 * 1 * 2
    assert all(r.error is None for r in records)
    assert max(r.report.f1 for r in records) > 0.9
