"""``classify`` over a seeded set of behaviors hashes to a pinned digest.

The set holds random noncontextual models, PR-box mixtures (among them
v = 1/2, whose CHSH maximum is exactly 2), signaling contextual models,
singlet tables at quarter-degree angles, exact and mixed float tables and
tables with int entries.  Each report enters the digest in the
``_report_key`` form of ``test_exact_oracle`` (value, type and text of every
field, the decomposition and the certificate); a behavior that ``classify``
refuses enters as its error type, message and code.  The generators are
shared with that module, so a change to them changes the digest too.  The
pinned value was captured before the exact layer read tables through one
integer view; the same digest must come out when no table keeps a view.
"""

import hashlib
import math
import random
from fractions import Fraction

from bellbox import models, scenario
from bellbox.analysis import classify
from bellbox.document import BUILTIN_NAMES, builtin_document
from bellbox.models import QuantumDirections, random_noncontextual_model, singlet_behavior
from bellbox.scenario import Behavior
from test_exact_oracle import STANDARD, _behavior, _pr_mixture, _report_key, _row, _signaling

DIGEST = "cfb8141eb3b5708fbc151af38bd980d264f6231656ccd77505aae010eda3b7ac"


def _mixed_table(rng: random.Random) -> Behavior:
    table = {}
    for ctx in STANDARD.contexts():
        flat = _row(rng, 4, rng.choice(("mixed", "float", "int", "exact")), perturb=False)
        table[ctx] = [flat[:2], flat[2:]]
    return Behavior(STANDARD, table)


def _behaviors():
    for name in BUILTIN_NAMES:
        yield builtin_document(name).to_behavior()
    rng = random.Random(1313)
    for k in range(170):
        yield models.exact_behavior(random_noncontextual_model(rng, max_causes=6, denominator=32))
        v = Fraction(1, 2) if k % 4 == 0 else Fraction(rng.randint(0, 16), 16)
        yield models.exact_behavior(_pr_mixture(rng, v))
        yield models.exact_behavior(_signaling(rng))
        angles = [math.radians(rng.randrange(1440) / 4) for _ in range(4)]
        yield singlet_behavior(QuantumDirections(angles[:2], angles[2:]))
        yield _mixed_table(rng)
        yield _behavior(rng, STANDARD)


def _fingerprint(behavior: Behavior) -> str:
    try:
        report = classify(behavior)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return repr(("raised", type(exc).__name__, str(exc), getattr(exc, "code", None)))
    return repr(_report_key(report))


def _digest() -> str:
    digest = hashlib.sha256()
    count = 0
    for behavior in _behaviors():
        digest.update(_fingerprint(behavior).encode("utf-8"))
        digest.update(b"\0")
        count += 1
    assert count == len(BUILTIN_NAMES) + 170 * 6
    return digest.hexdigest()


def test_classify_digest_is_pinned():
    assert _digest() == DIGEST


def test_tables_without_an_integer_view_give_the_same_reports(monkeypatch):
    # With no room for a view, every exact table takes the Fraction paths
    # that tables past the view's size bound take.
    monkeypatch.setattr(scenario, "_VIEW_BITS", 0)
    assert not models.exact_behavior(models.socks_on())._int_view()
    assert _digest() == DIGEST
