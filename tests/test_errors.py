"""Every reader of a file fails through errors.reading: bytes that are not
UTF-8, and content its parse refuses, raise the error of the file's kind
naming the file."""

import json

import pytest

from stancekit.config import load_config
from stancekit.corpus import load_bodies, load_stances
from stancekit.embeddings import load_embeddings
from stancekit.ensemble import load_combiner
from stancekit.errors import ConfigError, DataFormatError, read_envelope
from stancekit.evaluation import read_delimited
from stancekit.keywords import read_keyword_set
from stancekit.mlp import init_model, load_model, save_model
from stancekit.pipeline import load_pipeline
from stancekit.text import BlockSlice, Vocabulary, load_idf, load_vocabulary


def envelope(fmt: str, **fields) -> bytes:
    return json.dumps({"format": fmt, "version": 1, **fields}).encode()


def model_with_block_name(tmp_path, name: bytes) -> bytes:
    """A saved one-block model whose block name is the given bytes."""
    path = tmp_path / "made.model.bin"
    save_model(init_model(4, 3, (BlockSlice("in", 0, 4),), seed=0), path)
    return path.read_bytes().replace(b"\x02\x00\x00\x00in", len(name).to_bytes(4, "little") + name)


# reader -> (call on a path, file name, content its parse refuses, error class)
READERS = {
    "vocabulary": (load_vocabulary, "v.txt", b"fake\nfake\n", DataFormatError),
    "idf": (lambda p: load_idf(p, Vocabulary(("fake",))), "i.txt", b"document_count=x\n0.5\n",
            DataFormatError),
    "keyword_set": (read_keyword_set, "k.txt", b"fake\n", DataFormatError),
    # a term tokenize never yields matches no column: its feature always reads 0
    "keyword_set_term_not_a_token": (read_keyword_set, "k.txt",
                                     b"# kw manual\nfake\nfraud word\n", DataFormatError),
    "vocabulary_term_not_a_token": (load_vocabulary, "v.txt", b"fake\nFake\n", DataFormatError),
    "idf_count_below_one": (lambda p: load_idf(p, Vocabulary(("fake",))), "i.txt",
                            b"document_count=-3\n0.5\n", DataFormatError),
    "scores": (read_delimited, "s.txt", b"grade=abc\n", DataFormatError),
    "envelope": (lambda p: read_envelope(p, "x"), "e.json", b"{", DataFormatError),
    "manifest": (lambda p: load_pipeline(p.parent, "p"), "p.pipeline.json",
                 envelope("stancekit-pipeline", name="p", blocks=5, files={}), DataFormatError),
    "combiner": (load_combiner, "c.json", envelope("stancekit-combiner", bias=[0.0] * 4),
                 DataFormatError),
    "model": (load_model, "m.model.bin", None, DataFormatError),
    "config": (load_config, "c.yaml", b"folds: !!int abc\n", ConfigError),
    "stances": (load_stances, "s.csv", b"Headline,Body ID\nfake,one\n", DataFormatError),
    "bodies": (load_bodies, "b.csv", b"Body ID,articleBody\none,text\n", DataFormatError),
    "embeddings": (load_embeddings, "vec.txt", b"fake 1.0 x\n", DataFormatError),
}


@pytest.mark.parametrize("first_byte_ff", [False, True], ids=["bad_content", "not_utf8"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_raises_naming_the_file(tmp_path, reader, first_byte_ff):
    read, name, content, error = READERS[reader]
    if content is None:  # the model's parse refuses a block name that is not UTF-8
        content = model_with_block_name(tmp_path, b"\xffn")
    path = tmp_path / name
    path.write_bytes(b"\xff" + content if first_byte_ff else content)
    with pytest.raises(error) as caught:
        read(path)
    message = str(caught.value)
    assert message.startswith(f"{path}:")
    # a model file is binary: a leading 0xff is a wrong magic, and the text
    # it holds is its block names
    if first_byte_ff != (reader == "model"):
        assert "not UTF-8 text (byte 0xff" in message


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_envelope_version_must_be_the_integer_1(tmp_path, version):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"format": "x", "version": version}), encoding="utf-8")
    with pytest.raises(DataFormatError, match="not a x file at version 1"):
        read_envelope(path, "x")
    path.write_text(json.dumps({"format": "x", "version": 1}), encoding="utf-8")
    assert read_envelope(path, "x") == {"format": "x", "version": 1}
