"""Byte-exact outputs of the grid commands, build-model, tokenize, evaluate and
morph-eval on tiny seeded inputs.

The grid digests were recorded before the boundary decision moved to the
score-then-threshold core, the model digest before the counts were derived
top-down from the highest order, and the tokenize, evaluate and morph-eval
digests before every metric was tallied through the same ``tlab.metrics``
functions. The grid and evaluate digests were re-recorded once since, when
the retired ``timings``, ``keep_ws_tokens`` and ``span_f1`` flags left the
echoed config and no other byte moved; any change to an output byte,
including the echoed config, fails here.

Both experiment scripts are pinned the same way, every file they write and
their console, each run with a relative ``--out-dir`` so that the path they
echo is fixed.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from tlab.cli import main
from tlab.corpus import TextCorpus, save_segmented, save_text
from tlab.synth import make_affixed_lexicon, make_segmented_corpus, make_vocabulary

GRID_SEARCH = {
    "trials.csv": "43057155f7217a460906661e293e4ab848889de864f602e63a8c666b74946190",
    "summary.json": "3ee0eda0ec9453f905ecf7d711fd0bc95ee17d5de3f667e66bfa9ad6365bfed5",
}
MORPH_GRID = {
    "trials.csv": "6de2a2bdbde42c11a44ae6dca7a53b13de1c00bd19fffa00e1923a0b012b9318",
    "summary.json": "76ca9c4309ff0d92b9b02d295567fba9fd60caba11de5bab9e8aae9dab93dedf",
}
BUILD_MODEL = {
    "model.tsv": "1afd30964bb7151dd40330f4a722a564c0014038ae0c8e92a85cb33675e064d4",
}
TOKENIZE_EVALUATE = {
    "tokens.txt": "4062c558535d964c8b093b67bb82acf00dad662c31b35d34a994f3ded47b4adb",
    "evaluate-fwd.json": "d1f73e75f7ac0f733cef297cfaa3eb83c8a5ae8f5ec6dc0c197a3b3ed43e1c85",
    "evaluate-union.json": "4f1b0069a1a904743d863a953b8386a2c0aac9bfb8f26a5b26cefa3b42de92fd",
}
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
WORD_GRID_SCRIPT = {
    "console": "e670594adc275ad0ccd7f0d67009b51d41c3129b43f893847432ce2277fbb55d",
    "wg/gold-spaced.txt": "17eb3cf48b2252118336c25b22164a7aa02ea1b232af96aca23e8808231ac830",
    "wg/gold-unspaced.txt": "17eb3cf48b2252118336c25b22164a7aa02ea1b232af96aca23e8808231ac830",
    "wg/summary-spaced.json": "aac57971c017da3718bf2c5bd8d6293e9b22ebbec1021ad1577b8a36d1841f0d",
    "wg/summary-unspaced.json": "2d5e7b32a94e372536507242e6c62e18c5e7a8295ce5fed56b0eb87845a7835f",
    "wg/test-spaced.txt": "17eb3cf48b2252118336c25b22164a7aa02ea1b232af96aca23e8808231ac830",
    "wg/test-unspaced.txt": "11945afd1b5112fc8b073d8cd296eda82e5c339cf5b01364a3dd76fdeee5e060",
    "wg/train-spaced.txt": "20a8ed31f8d5a4ff7e0f312f5202c14bb1735f98ca204daa4b95142303dfd6fc",
    "wg/train-unspaced.txt": "6c070623bf8847594aa3a4265b69aa01073d3a614140578a9fa177c339e438dc",
    "wg/trials-spaced.csv": "a857bbdedd2b849123b2598d4b9168c28fa7d2205904268d4dc0ebaedcb6cc24",
    "wg/trials-unspaced.csv": "0f4c9228dff2fbe3d0377204c985e6d0ecf79679a10a9e5744976fe188ae2a4a",
}
MORPH_GRID_SCRIPT = {
    "console": "3521974a45732c08c6f5d884e7ef9277ea603f1346a18682bd0fbf0ec3718caf",
    "mg/lexicon.txt": "821f39cbd0ab6530443cc6f36fbd4af20eab822fee35302d164c3353842094bd",
    "mg/suffixes.txt": "b48234e68f70853f74600616912769706c4aef2d3c04feaee4db9f1cb3eea9cb",
    "mg/summary.json": "70424cf1d1f8ad1a4aec7964e53390c1e062f9f4ef9b89bd71bdcf5078c9ea55",
    "mg/trials.csv": "889b2b563d22c89818b7204b211e1c09faab55d79e85ef7a2a78a8f169896fa7",
}
MORPH_EVAL = {
    "morph-fwd.json": "06da7cc769ca18986eff9b0bfcb8bb1db2bc509389a89a7e45ee825a4b2db4ac",
    "morph-union.json": "5caf88750c28d37923cf0a1ded87f8a34aeec7942bf892f25e5d073413e99fce",
}


def digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def write_word_data(directory):
    words, weights = make_vocabulary(5, size=12, min_len=2, max_len=4, alphabet="abcdef")
    train, _ = make_segmented_corpus(words, weights, 11, lines=60, min_words=3, max_words=6)
    test, gold = make_segmented_corpus(words, weights, 12, lines=10, min_words=3, max_words=6)
    save_text(train, directory / "train.txt")
    save_text(test, directory / "test.txt")
    save_segmented(gold.lines, directory / "gold.txt")


def write_morph_data(directory):
    lexicon, inventory = make_affixed_lexicon(3, stems=8, suffixes=3)
    entries = [f"{word}\t{1 + 97 % (i + 2)}" for i, word in enumerate(lexicon.entries)]
    save_text(TextCorpus(tuple(entries)), directory / "lexicon.txt")
    save_text(TextCorpus(tuple(sorted(inventory.suffixes))), directory / "suffixes.txt")
    stems = sorted({word[:2] for word in lexicon.entries})[:2]
    save_text(TextCorpus(tuple(stems)), directory / "prefixes.txt")


def test_grid_search_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_word_data(tmp_path)
    assert main(["grid-search", "--train", "train.txt", "--test", "test.txt", "--gold", "gold.txt",
                 "--n-max", "3", "--grid", "n=1..3;peak=0:0.9:0.3;prune=0,1;mode=fwd,bwd,union",
                 "--out-csv", "trials.csv", "--out-summary", "summary.json"]) == 0
    capsys.readouterr()
    assert digests(tmp_path, GRID_SEARCH) == GRID_SEARCH


def test_morph_grid_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_morph_data(tmp_path)
    assert main(["morph-grid", "--lexicon", "lexicon.txt", "--suffixes", "suffixes.txt",
                 "--prefixes", "prefixes.txt", "--min-stem", "2", "--n-max", "4",
                 "--grid", "n=1..4;peak=0.1:0.9:0.2;prune=0,2;mode=fwd,bwd,union",
                 "--out-csv", "trials.csv", "--out-summary", "summary.json"]) == 0
    capsys.readouterr()
    assert digests(tmp_path, MORPH_GRID) == MORPH_GRID


def test_build_model_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # literal "x", hex-like "x0a"/"x09", tab, lone CR and non-ASCII text all take the escape path
    words, weights = make_vocabulary(9, size=14, min_len=1, max_len=4, alphabet="abx0a9\t\r\u00e9\U0001d538")
    train, _ = make_segmented_corpus(words, weights, 13, lines=40, min_words=2, max_words=6)
    lines = train.lines + ("ab x0a cd", "x09\tx", "x", "\\x0d\\")
    save_text(TextCorpus(lines), tmp_path / "train.txt")
    assert main(["build-model", "--in", "train.txt", "--n-max", "4", "--out", "model.tsv"]) == 0
    capsys.readouterr()
    assert digests(tmp_path, BUILD_MODEL) == BUILD_MODEL


def test_tokenize_and_evaluate_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_word_data(tmp_path)
    assert main(["build-model", "--in", "train.txt", "--n-max", "3", "--out", "model.tsv"]) == 0
    assert main(["tokenize", "--model", "model.tsv", "--n", "2", "--peak", "0.3", "--mode", "fwd",
                 "test.txt", "--out", "tokens.txt"]) == 0
    for mode in ("fwd", "union"):
        capsys.readouterr()
        # csf1 segments the spaced test set with both half models at prune 2
        assert main(["evaluate", "--pred", "tokens.txt", "--gold", "gold.txt", "--train", "train.txt",
                     "--test", "test.txt", "--n", "2", "--peak", "0.3", "--prune", "2",
                     "--mode", mode, "--n-max", "3", "--metrics", "all"]) == 0
        (tmp_path / f"evaluate-{mode}.json").write_text(capsys.readouterr().out, encoding="utf-8")
    assert digests(tmp_path, TOKENIZE_EVALUATE) == TOKENIZE_EVALUATE


def test_morph_eval_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_morph_data(tmp_path)
    for mode in ("fwd", "union"):
        capsys.readouterr()
        assert main(["morph-eval", "--lexicon", "lexicon.txt", "--suffixes", "suffixes.txt",
                     "--prefixes", "prefixes.txt", "--min-stem", "2", "--n-max", "4",
                     "--n", "3", "--peak", "0.3", "--prune", "2", "--mode", mode]) == 0
        (tmp_path / f"morph-{mode}.json").write_text(capsys.readouterr().out, encoding="utf-8")
    assert digests(tmp_path, MORPH_EVAL) == MORPH_EVAL


@pytest.mark.parametrize("script,args,recorded", [
    ("run_word_grid.py", ["--lines", "300", "--test-lines", "20", "--out-dir", "wg"], WORD_GRID_SCRIPT),
    ("run_morph_grid.py", ["--out-dir", "mg"], MORPH_GRID_SCRIPT),
])
def test_experiment_script_bytes(tmp_path, script, args, recorded):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path, capture_output=True, check=True)
    written = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*") if path.is_file())
    assert written == sorted(recorded.keys() - {"console"})
    got = digests(tmp_path, written) | {"console": hashlib.sha256(done.stdout).hexdigest()}
    assert got == recorded
