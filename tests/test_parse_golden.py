"""Parsing and serialization over a seeded corpus hash to a pinned digest.

The corpus holds the builtins, generated documents, texts corrupted by one
to three stacked ``mutate_text`` calls and texts with one inflated literal.
For every text the digest covers each rendered diagnostic (severity, line,
column, message, token), ``repr`` of the parsed document and its canonical
serialization, so any change to what the parser accepts, reports or builds
changes the digest.  The pinned value was captured from the parser before
its line readers were merged.
"""

import hashlib
import random

from bellbox import BUILTIN_NAMES, builtin_document, parse_document, serialize_document
from _docgen import inflate_literal, mutate_text, random_document

DIGEST = "d72f1127491b541d579b94bead75c8daecda26d1470d5777cf1c84cff4a83341"


def _corpus() -> list[str]:
    rand = random.Random(6006)
    sources = [serialize_document(builtin_document(n)) for n in BUILTIN_NAMES]
    sources += [serialize_document(random_document(rand)) for _ in range(400)]
    texts = list(sources)
    for _ in range(4000):
        text = rand.choice(sources)
        for _ in range(rand.randint(1, 3)):
            text = mutate_text(rand, text)
        texts.append(text)
    texts += [inflate_literal(rand, rand.choice(sources), digits=5000) for _ in range(300)]
    return texts


def _fingerprint(text: str) -> str:
    result = parse_document(text)
    parts = [d.render() for d in result.diagnostics]
    parts.append(repr(result.document))
    if result.document is not None:
        parts.append(serialize_document(result.document))
    return "\n".join(parts)


def test_corpus_digest_is_pinned():
    digest = hashlib.sha256()
    texts = _corpus()
    assert len(texts) == 4 + 400 + 4000 + 300
    for text in texts:
        digest.update(_fingerprint(text).encode("utf-8", "surrogatepass"))
        digest.update(b"\0")
    assert digest.hexdigest() == DIGEST
