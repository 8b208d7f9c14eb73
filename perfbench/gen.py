"""Seeded input generators for the benchmark (standard library only).

The generators return plain specs drawn from the workload seed (the cli
file pool from a fixed one): the benchmark renders them to canonical
``.bellbox`` text, which is all the program under test ever receives.
The oracles read the same specs, so the expected answers never come from
the program itself.

A spec describes one document:

* ``causes`` (noncontextual): ``[(id, weight, {x: alice_row}, {y: bob_row})]``
  shared by every context;
* ``blocks`` (contextual): ``{(x, y): [(id, weight, alice_row, bob_row)]}``;
* ``angles`` (singlet): ``(alice_degrees, bob_degrees)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

LOCAL = "LOCAL"
NONLOCAL = "NONLOCAL_NOSIGNALING"
SIGNALING = "SIGNALING"

BUILTIN_MODELS = ("socks-on", "socks-off", "socks-color")
CLI_BUILTINS = ("socks-on", "socks-off", "socks-color", "singlet")
CLI_SUBCOMMANDS = ("exact", "sample", "chsh", "nosig", "membership", "classify", "show")
CLI_MODES = ("table", "machine")
CLI_SAMPLE_FLAGS = ("--seed", "11", "--trials", "200", "--schedule", "cycle")
CLI_POOL_SIZE = 12

# A singlet table this close to CHSH = 2 could flip verdict when snapped.
SINGLET_MARGIN = 1e-3


@dataclass
class Spec:
    kind: str
    name: str
    alice: tuple[str, ...]
    bob: tuple[str, ...]
    alice_outcomes: tuple[int, ...]
    bob_outcomes: tuple[int, ...]
    causes: list = field(default_factory=list)
    blocks: dict = field(default_factory=dict)
    angles: tuple = ()
    description: str | None = None
    label: str | None = None

    def contexts(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(len(self.alice)) for y in range(len(self.bob))]

    def context_causes(self, ctx: tuple[int, int]) -> list:
        """``[(id, weight, alice_row, bob_row)]`` actualized in one context."""
        if self.kind == "contextual":
            return self.blocks[ctx]
        x, y = ctx
        return [(cid, w, arows[x], brows[y]) for cid, w, arows, brows in self.causes]


def read_canonical(text: str) -> Spec:
    """Spec of a canonical model or singlet document (the inverse of ``oracles.render``)."""
    fields: dict[str, str] = {}
    section = ""
    causes: list = []
    blocks: dict = {}
    ctx = None
    angles: dict[str, tuple] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("["):
            section = line[1:-1]
            if section in ("noncontextual", "contextual"):
                alice = tuple(fields["alice"].split())
                bob = tuple(fields["bob"].split())
            continue
        words = line.split()
        if section in ("metadata", "scenario"):
            key, _, value = line.partition(" = ")
            fields[key] = value
        elif section == "singlet":
            angles[words[0]] = tuple(float(w) for w in words[2:])
        elif words[0] == "context":
            ctx = (alice.index(words[1]), bob.index(words[2]))
            blocks[ctx] = []
        elif words[0] == "cause":
            cause = [words[1], Fraction(words[3]), {}, {}]
            (causes if section == "noncontextual" else blocks[ctx]).append(cause)
        elif words[0] == "respond":
            labels = alice if words[1] == "alice" else bob
            slot = 2 if words[1] == "alice" else 3
            cause[slot][labels.index(words[2])] = tuple(Fraction(w) for w in words[4:])
    spec = Spec(
        section,
        fields.get("name"),
        tuple(fields["alice"].split()),
        tuple(fields["bob"].split()),
        tuple(int(n) for n in fields["alice_outcomes"].split()),
        tuple(int(n) for n in fields["bob_outcomes"].split()),
        description=fields.get("description"),
    )
    spec.causes = [tuple(c) for c in causes]
    spec.blocks = {
        (x, y): [(cid, w, arows[x], brows[y]) for cid, w, arows, brows in block]
        for (x, y), block in blocks.items()
    }
    if angles:
        spec.angles = (angles["alice_angles_deg"], angles["bob_angles_deg"])
    return spec


def _labels(base: str, count: int) -> tuple[str, ...]:
    return tuple(base + "'" * i for i in range(count))


def _binary_spec(kind: str, name: str) -> Spec:
    return Spec(kind, name, ("A", "A'"), ("B", "B'"), (2, 2), (2, 2))


def _weights(rng: random.Random, n: int, top: int) -> list[Fraction]:
    parts = [rng.randint(1, top) for _ in range(n)]
    total = sum(parts)
    return [Fraction(p, total) for p in parts]


def _dyadic_weights(rng: random.Random, n: int) -> list[Fraction]:
    # Power-of-two denominators keep cumulative thresholds exact as floats.
    parts = [rng.randint(1, 8) for _ in range(n)]
    den = 1 << max(1, math.ceil(math.log2(sum(parts))))
    parts[-1] += den - sum(parts)
    return [Fraction(p, den) for p in parts]


def _row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    if rng.random() < 0.5:
        hit = rng.randrange(n)
        return tuple(Fraction(int(i == hit)) for i in range(n))
    return tuple(_weights(rng, n, 16))


def _det(bit: int) -> tuple[Fraction, ...]:
    return (Fraction(1), Fraction(0)) if bit == 0 else (Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def random_local(rng: random.Random, name: str) -> Spec:
    """Random exact noncontextual 2x2 model: LOCAL by construction."""
    spec = _binary_spec("noncontextual", name)
    n = rng.randint(1, 6)
    for i, w in enumerate(_weights(rng, n, 32)):
        spec.causes.append(
            (f"c{i + 1}", w, {x: _row(rng, 2) for x in (0, 1)}, {y: _row(rng, 2) for y in (0, 1)})
        )
    spec.label = LOCAL
    return spec


def prbox_mixture(rng: random.Random, name: str, v: Fraction | None = None) -> Spec:
    """``v * PR + (1 - v) * noise``, with CHSH exactly ``4 v``.

    The PR box is relabelled by random bits (a xor b = xy xor ax xor by xor
    g), and the noise is either one cause answering uniformly or four
    deterministic causes; both give the uniform table.  Without ``v`` the
    mixing weight is drawn too.
    """
    spec = _binary_spec("contextual", name)
    if v is None and rng.random() < 0.5:
        v = Fraction(rng.randint(6, 10), 16)
    elif v is None:
        v = Fraction(rng.randint(35, 65), 100)
    alpha, beta, gamma = (rng.randrange(2) for _ in range(3))
    four_noise = rng.random() < 0.5
    half = (Fraction(1, 2), Fraction(1, 2))
    for x, y in spec.contexts():
        target = (x * y) ^ (alpha * x) ^ (beta * y) ^ gamma
        causes = [(f"pr{a}", v / 2, _det(a), _det(a ^ target)) for a in (0, 1)]
        if four_noise:
            causes += [(f"n{a}{b}", (1 - v) / 4, _det(a), _det(b)) for a in (0, 1) for b in (0, 1)]
        else:
            causes.append(("noise", 1 - v, half, half))
        spec.blocks[(x, y)] = causes
    spec.label = NONLOCAL if v > Fraction(1, 2) else LOCAL
    return spec


def singlet_chsh(alice_deg, bob_deg) -> float:
    e = [
        -math.cos(math.radians(a) - math.radians(b)) for a in alice_deg for b in bob_deg
    ]
    return max(abs(sum(s * v for s, v in zip(signs, e))) for signs in oracles.ARRANGEMENTS)


def random_singlet(rng: random.Random, name: str, label: str | None = None) -> Spec:
    """Singlet table at random quarter-degree angles, away from CHSH = 2.

    With ``label``, angles are redrawn until the table has that verdict.
    """
    spec = _binary_spec("singlet", name)
    while True:
        alice = tuple(rng.randrange(1440) / 4 for _ in range(2))
        bob = tuple(rng.randrange(1440) / 4 for _ in range(2))
        chsh = singlet_chsh(alice, bob)
        spec.label = NONLOCAL if chsh > 2 else LOCAL
        if abs(chsh - 2) > SINGLET_MARGIN and label in (None, spec.label):
            break
    spec.angles = (alice, bob)
    return spec


def random_signaling(rng: random.Random, name: str) -> Spec:
    """Random contextual 2x2 model whose marginals shift: SIGNALING."""
    while True:
        spec = _binary_spec("contextual", name)
        for ctx in spec.contexts():
            n = rng.randint(1, 4)
            spec.blocks[ctx] = [
                (f"k{i + 1}", w, _row(rng, 2), _row(rng, 2))
                for i, w in enumerate(_weights(rng, n, 32))
            ]
        if oracles.residual(oracles.exact_table(spec)) > 0:
            spec.label = SIGNALING
            return spec


ANALYZE_MIX = (
    (random_local, 3),
    (prbox_mixture, 3),
    (random_singlet, 2),
    (random_signaling, 2),
)
# Mixing weights of the PR-box documents: CHSH = 4 v from 1.4 to 2.6, with
# CHSH = 2 exactly at v = 1/2.
PRBOX_WEIGHTS = tuple(Fraction(k, 16) for k in range(6, 11)) + tuple(
    Fraction(k, 100) for k in range(35, 66, 3)
)


def analyze_specs(seed: int, count: int = 2000) -> list[Spec]:
    """A stream of distinct documents whose every prefix has the same mix.

    Each block of ten holds the ``ANALYZE_MIX`` shares in shuffled order,
    each run of PR-box documents cycles through ``PRBOX_WEIGHTS``, and the
    singlet verdicts alternate, so the kinds, the weights and the verdicts
    keep their proportions however far a run gets; the instances vary with
    the seed.  The stream is long enough that a run never repeats a
    document, so its slowest operations are many documents, not a few
    repeated ones.
    """
    rng = random.Random(f"perfbench/analyze/{seed}")
    block = [maker for maker, share in ANALYZE_MIX for _ in range(share)]
    weights: list[Fraction] = []
    singlet_labels = [LOCAL, NONLOCAL] * count
    specs = []
    while len(specs) < count:
        rng.shuffle(block)
        for maker in block:
            name = f"gen-{len(specs)}"
            if maker is prbox_mixture:
                if not weights:
                    weights = list(PRBOX_WEIGHTS)
                    rng.shuffle(weights)
                specs.append(prbox_mixture(rng, name, v=weights.pop()))
            elif maker is random_singlet:
                specs.append(random_singlet(rng, name, label=singlet_labels.pop()))
            else:
                specs.append(maker(rng, name))
    return specs[:count]


# ---------------------------------------------------------------------------
# sample-counts / sample-export
# ---------------------------------------------------------------------------


def random_contextual(rng: random.Random, name: str, dyadic: bool, shape=None) -> Spec:
    """Contextual model with up to 3 settings, 4 outcomes and 8 causes each.

    ``shape`` fixes ``(alice_outcomes, bob_outcomes, causes per context)``;
    without it the shape is random too.
    """
    if shape is None:
        na, nb = rng.randint(2, 3), rng.randint(2, 3)
        alice_outcomes = tuple(rng.randint(2, 4) for _ in range(na))
        bob_outcomes = tuple(rng.randint(2, 4) for _ in range(nb))
        causes = None
    else:
        alice_outcomes, bob_outcomes, causes = shape
    spec = Spec(
        "contextual",
        name,
        _labels("A", len(alice_outcomes)),
        _labels("B", len(bob_outcomes)),
        alice_outcomes,
        bob_outcomes,
    )
    for x, y in spec.contexts():
        n = causes or rng.randint(2, 8)
        weights = _dyadic_weights(rng, n) if dyadic else _weights(rng, n, 32)
        spec.blocks[(x, y)] = [
            (f"k{i + 1}", w, _row(rng, spec.alice_outcomes[x]), _row(rng, spec.bob_outcomes[y]))
            for i, w in enumerate(weights)
        ]
    return spec


# Fixed shapes keep the cost of a trial nearly the same from seed to seed;
# the seed draws the weights and responses.  The first two have power-of-two
# weights (float thresholds in the sampler), the rest general rationals.
SAMPLE_SHAPES = (
    ((2, 3, 4), (4, 3, 2), 6),
    ((3, 3), (2, 2, 2), 4),
    ((4, 2, 3), (3, 4), 8),
    ((4, 4), (4, 4), 5),
    ((3, 3, 3), (3, 3, 3), 3),
)
SAMPLE_TRIALS = (250, 500, 1000, 2000)
SAMPLE_SCHEDULES = ("fixed", "uniform", "cycle")
LARGE_TRIALS = 100_000


@dataclass(frozen=True)
class SampleOp:
    model: int
    trials: int
    schedule: str
    context: tuple[int, int] | None
    seed: int


def sample_models(seed: int, builtin_texts: dict[str, str]) -> list[Spec]:
    """The three builtin cause models plus one seeded random model per shape."""
    rng = random.Random(f"perfbench/sample-models/{seed}")
    specs = [read_canonical(builtin_texts[name]) for name in BUILTIN_MODELS]
    specs += [
        random_contextual(rng, f"rand-{i}", dyadic=i < 2, shape=shape) for i, shape in enumerate(SAMPLE_SHAPES)
    ]
    return specs


def sample_ops(seed: int, models: list[Spec]) -> tuple[SampleOp, list[SampleOp]]:
    """One large experiment, then every model x trial count x schedule, shuffled."""
    rng = random.Random(f"perfbench/sample-ops/{seed}")
    ops = []
    for m, spec in enumerate(models):
        for trials in SAMPLE_TRIALS:
            for schedule in SAMPLE_SCHEDULES:
                ctx = rng.choice(spec.contexts()) if schedule == "fixed" else None
                ops.append(SampleOp(m, trials, schedule, ctx, rng.getrandbits(64)))
    rng.shuffle(ops)
    large = SampleOp(BUILTIN_MODELS.index("socks-off"), LARGE_TRIALS, "uniform", None, rng.getrandbits(64))
    return large, ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

MALFORMED_TEXT = (
    "bellbox-format 1\n\n[scenario]\nalice = A A'\nbob = B B'\n\n"
    "[behavior]\nP(1,1 | A,B) = 1/2\nP(1,2 | A,B) = 1/3\n"
)


def cli_pool() -> list[Spec]:
    """Fixed documents the cli workload reads from files; goldens cover all."""
    rng = random.Random("perfbench/cli-pool")
    makers = [random_local, prbox_mixture, random_singlet, random_signaling]
    pool = [makers[i % 4](rng, f"pool-{i}") for i in range(CLI_POOL_SIZE - 2)]
    pool += [random_contextual(rng, f"pool-{i}", dyadic=i % 2 == 0) for i in range(CLI_POOL_SIZE - 2, CLI_POOL_SIZE)]
    return pool


def cli_argv(subcommand: str, target: str, mode: str) -> list[str]:
    argv = [subcommand, target, "--output", mode]
    if subcommand == "sample":
        argv += list(CLI_SAMPLE_FLAGS)
    return argv


def golden_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_ops(seed: int, pool_paths: list[str], malformed_path: str, picks: int = 8) -> list[list[str]]:
    """Every subcommand x builtin x mode, seeded picks from the file pool, one malformed file."""
    rng = random.Random(f"perfbench/cli/{seed}")
    ops = [
        cli_argv(sub, target, mode)
        for sub in CLI_SUBCOMMANDS
        for target in CLI_BUILTINS
        for mode in CLI_MODES
    ]
    file_ops = [
        cli_argv(sub, path, mode) for path in pool_paths for sub in CLI_SUBCOMMANDS for mode in CLI_MODES
    ]
    ops += rng.sample(file_ops, picks)
    ops.append(cli_argv("classify", malformed_path, "table"))
    rng.shuffle(ops)
    return ops
