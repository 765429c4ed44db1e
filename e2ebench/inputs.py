"""Seeded input generators for the end-to-end benchmark.

Everything the benchmark feeds the program is made here from a seed:
legitimate WebBrowse pages (built with :class:`repro.apps.PageBuilder`),
the learning corpora, and the exploit/variant schedules.  The program
only ever receives the generated bytes.

The generators are *stratified*, because the benchmark compares runs
made with different seeds: every seed gets the same multiset of page
lengths (chunk counts at fixed log-uniform quantiles over 1-64), the
same number of chunks of each of the eight tag kinds, and the same
(exploit, variant) pairs.  The seed decides content and order, so the
work a run measures is the same size under every seed.
"""

from __future__ import annotations

import random
import string

from repro.apps import PageBuilder
from repro.apps.browser import (
    OP_CREATE,
    OP_CREATE_PTR,
    OP_INVOKE_A,
    OP_INVOKE_B,
    OP_INVOKE_GC,
    OP_WIDGET_A,
    OP_WIDGET_B,
    WIDGET_COUNT,
)
from repro.dynamo.execution import MAX_INPUT_BYTES
from repro.redteam import Exploit, all_exploits

#: Chunks (tags) per page range over 1..MAX_CHUNKS, log-uniformly.
MAX_CHUNKS = 64

TAG_KINDS = ("text", "heading", "script", "gif", "link", "unicode",
             "array", "strtext")

#: Object slots the script interpreter has (``obj_slots: .space 64``).
SCRIPT_SLOTS = 16

#: Browse workload: pages per sample.
BROWSE_PAGES = 400
#: Learn workload: episodes per sample and pages per episode (the size
#: of the paper's twelve-page Blue Team learning suite).
LEARN_EPISODES = 5
LEARN_PAGES = 12
#: Legitimate pages served after each patch (attack) or probed per wave
#: (fleet).
LEGIT_POOL = 16
#: Variants of each exploit presented per attack sample.
VARIANTS = 8
#: Rounds of the patchable roster per fleet sample.
FLEET_ROUNDS = 4

_HOST_CHARS = string.ascii_lowercase + string.digits + ".-"
_TEXT_CHARS = string.ascii_letters + string.digits + " .,"


def chunk_counts(count: int) -> list[int]:
    """*count* chunk counts at the mid-quantiles of a log-uniform
    distribution over 1..MAX_CHUNKS (the same list for every seed)."""
    return [max(1, round(MAX_CHUNKS ** ((index + 0.5) / count)))
            for index in range(count)]


def _text(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(_TEXT_CHARS)
                   for _ in range(rng.randint(low, high)))


def _script_ops(rng: random.Random) -> list[tuple[int, int, int]]:
    """One self-contained script: create an object, then use it only
    in ways its class supports (``method_store`` writes through field1,
    so INVOKE_B is legitimate only on a CREATE_PTR object)."""
    slot = rng.randrange(SCRIPT_SLOTS)
    if rng.random() < 0.5:
        ops = [(OP_CREATE, slot, rng.randint(1, 999))]
        uses = (OP_INVOKE_A, OP_WIDGET_A, OP_WIDGET_B, OP_INVOKE_GC)
    else:
        ops = [(OP_CREATE_PTR, slot, 0)]
        uses = (OP_INVOKE_A, OP_INVOKE_B, OP_WIDGET_A, OP_WIDGET_B,
                OP_INVOKE_GC)
    ops.extend((rng.choice(uses), slot, 0)
               for _ in range(rng.randint(1, 8)))
    return ops


def _add_chunk(builder: PageBuilder, kind: str,
               rng: random.Random) -> None:
    """Append one legitimate chunk of *kind*, within the ranges the
    browser handles without a defect firing."""
    if kind == "text":
        builder.text(_text(rng, 4, 48))
    elif kind == "heading":
        builder.heading(_text(rng, 4, 32))
    elif kind == "script":
        builder.script(_script_ops(rng))
    elif kind == "gif":
        # Row buffer is 16 words: count <= 8 rows at offset <= 8.
        builder.gif(count=rng.randint(1, 8), offset=rng.randint(0, 8),
                    pixels=[rng.getrandbits(16) for _ in range(8)])
    elif kind == "link":
        host = "".join(rng.choice(_HOST_CHARS)
                       for _ in range(rng.randint(3, 24)))
        builder.link(host.encode("ascii"))
    elif kind == "unicode":
        if rng.random() < 0.75:
            chars, grow = rng.randint(1, 16), 0        # static buffer
        else:
            # Growth path: the grow*4+64 allocation covers 2*chars.
            chars, grow = rng.randint(17, 40), rng.randint(4, 64)
        builder.unicode_text(chars, grow, bytes(
            rng.randint(0x20, 0x7E) for _ in range(2 * chars)))
    elif kind == "array":
        builder.array(1000 + rng.randrange(WIDGET_COUNT))
    elif kind == "strtext":
        content = _text(rng, 1, 48).encode("ascii")
        builder.strtext(rng.randint(3, 66), content)
    else:
        raise ValueError(f"unknown tag kind {kind!r}")


def legit_pages(rng: random.Random, count: int) -> list[bytes]:
    """*count* legitimate pages: stratified lengths, seeded content and
    order.  Each page cycles through its own seeded permutation of the
    tag kinds, so how many distinct handlers a page uses — which sets
    its cold code-cache cost — depends on its length alone."""
    counts = chunk_counts(count)
    rng.shuffle(counts)
    pages = []
    for chunks in counts:
        kinds = rng.sample(TAG_KINDS, len(TAG_KINDS))
        builder = PageBuilder()
        for index in range(chunks):
            _add_chunk(builder, kinds[index % len(kinds)], rng)
            # The end tag needs one byte; never outgrow the input ABI.
            if builder.size >= MAX_INPUT_BYTES:
                raise ValueError("generated page exceeds the input ABI")
        pages.append(builder.build())
    return pages


def browse_pages(seed: int) -> list[bytes]:
    return legit_pages(random.Random(f"browse:{seed}"), BROWSE_PAGES)


def learn_corpora(seed: int) -> list[list[bytes]]:
    """LEARN_EPISODES corpora of LEARN_PAGES pages, each stratified on
    its own so every episode is the same size of work."""
    rng = random.Random(f"learn:{seed}")
    return [legit_pages(rng, LEARN_PAGES) for _ in range(LEARN_EPISODES)]


def legit_pool(seed: int, purpose: str) -> list[bytes]:
    return legit_pages(random.Random(f"{purpose}:{seed}"), LEGIT_POOL)


def attack_schedule(seed: int) -> list[tuple[Exploit, int]]:
    """Every exploit of the ten-exploit roster with every variant
    0..VARIANTS-1, once each, in seeded order."""
    schedule = [(exploit, variant) for exploit in all_exploits()
                for variant in range(VARIANTS)]
    random.Random(f"attack:{seed}").shuffle(schedule)
    return schedule


def default_model_exploits() -> list[Exploit]:
    """The roster exploits the default model (twelve-page suite, one
    stack procedure) can patch."""
    return [exploit for exploit in all_exploits()
            if exploit.defect.patchable
            and not exploit.defect.needs_expanded_learning
            and exploit.defect.needs_stack_procedures == 1]


def fleet_schedule(seed: int) -> list[tuple[Exploit, int]]:
    """FLEET_ROUNDS rounds of the patchable roster, each round in
    seeded order with seeded variants."""
    rng = random.Random(f"fleet:{seed}")
    schedule = []
    for _ in range(FLEET_ROUNDS):
        roster = default_model_exploits()
        rng.shuffle(roster)
        schedule.extend((exploit, rng.randrange(VARIANTS))
                        for exploit in roster)
    return schedule
