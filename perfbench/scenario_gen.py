"""Generated scenario scripts whose query answers are known by construction.

Two rule families share one script, each with its own predicate names so
they never interact:

* umbrella-style chains ``u<k>a -> u<k>b`` and ``u<k>a & u<k>b -> u<k>c``
  carrying an object argument, so the second rule joins two premises on
  the same times and object;
* marriage-style exclusion pairs: marrying forms ``m<k>m(T+1,inf,X)``,
  divorcing forms ``m<k>v(T+1,inf,X)``, and two exclusion rules with
  negative conclusions restructure the marriage belief to end at the
  divorce.

Perceptions arrive in time order, ``infer`` directives are interleaved
between them, and every ``query`` is followed by an ``expect`` line whose
answer is computed here from the perceptions, not by the engine.  Answers
describe the state as of the latest ``infer``: derived beliefs appear only
after it, perceptions at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

INF = float("inf")


def _t(v) -> str:
    return "inf" if v == INF else str(v)


def _covers(points: set[int], lo: int, hi) -> bool:
    """Every point of [lo, hi] is in the finite point set."""
    return hi != INF and all(t in points for t in range(lo, int(hi) + 1))


def _within(lo: int, hi, outer_lo: int, outer_hi) -> bool:
    return outer_lo <= lo and hi <= outer_hi


@dataclass
class _Chain:
    perceived: dict[str, set[int]] = field(default_factory=dict)
    inferred: dict[str, set[int]] = field(default_factory=dict)


@dataclass
class _Couple:
    marry_at: int | None = None
    divorce_at: int | None = None
    married_inferred: bool = False
    divorced_inferred: bool = False


@dataclass
class Scenario:
    """A script plus the answers its queries must get, in order."""

    text: str
    expected: list[tuple[str, bool]]
    events: int


def make_scenario(seed: int, events: int) -> Scenario:
    rng = random.Random(seed)
    n_chains = max(1, events // 40)
    n_pairs = max(1, events // 60)
    objects = [f"o{i}" for i in range(max(2, events // 8))]

    lines: list[str] = [f"# generated scenario: {events} perceptions"]
    for k in range(n_chains):
        lines.append(f"rule K(u{k}a(T1,T2,X) -> u{k}b(T1,T2,X))")
        lines.append(f"rule K(u{k}a(T1,T2,X) & u{k}b(T1,T2,X) -> u{k}c(T1+1,inf,X))")
    for k in range(n_pairs):
        lines.append(f"rule K(m{k}a(T,T,X) -> m{k}m(T+1,inf,X))")
        lines.append(f"rule K(m{k}d(T,T,X) -> m{k}v(T+1,inf,X))")
        lines.append(f"rule K(m{k}m(T,inf,X) -> ~m{k}v(T,inf,X))")
        lines.append(f"rule K(m{k}v(T,inf,X) -> ~m{k}m(T,inf,X))")

    chains = [_Chain() for _ in range(n_chains)]
    couples: dict[tuple[int, str], _Couple] = {}
    expected: list[tuple[str, bool]] = []

    def do_infer():
        lines.append("infer")
        for ch in chains:
            ch.inferred = {o: set(ts) for o, ts in ch.perceived.items()}
        for c in couples.values():
            c.married_inferred = c.marry_at is not None
            c.divorced_inferred = c.divorce_at is not None

    def belief_query() -> tuple[str, bool]:
        """One B-query about a random fact, near the times where it changes."""
        if rng.random() < 0.6 or not couples:
            k = rng.randrange(n_chains)
            ch = chains[k]
            o = rng.choice(sorted(ch.perceived) or objects)
            known = sorted(ch.perceived.get(o, ())) or [clock]
            anchor = rng.choice(known)
            lo = max(0, anchor + rng.randint(-2, 2))
            hi = lo + rng.choice((0, 0, 1, 3)) if rng.random() < 0.85 else INF
            kind = rng.choice("abc")
            if kind == "a":
                value = _covers(ch.perceived.get(o, set()), lo, hi)
            elif kind == "b":
                value = _covers(ch.inferred.get(o, set()), lo, hi)
            else:
                done = ch.inferred.get(o)
                value = bool(done) and lo >= min(done) + 1
            return f"B(u{k}{kind}({lo},{_t(hi)},{o}))", value
        (k, o) = rng.choice(sorted(couples))
        c = couples[(k, o)]
        anchor = rng.choice([t for t in (c.marry_at, c.divorce_at) if t is not None])
        lo = max(0, anchor + rng.randint(-1, 3))
        hi = lo + rng.choice((0, 1, 2)) if rng.random() < 0.8 else INF
        kind = rng.choice("mmvva")
        if kind == "a":
            value = hi == lo == c.marry_at
        elif kind == "m":
            end = c.divorce_at if c.divorced_inferred else INF
            value = c.married_inferred and _within(lo, hi, c.marry_at + 1, end)
        else:
            value = c.divorced_inferred and _within(lo, hi, c.divorce_at + 1, INF)
        return f"B(m{k}{kind}({lo},{_t(hi)},{o}))", value

    def add_queries(n: int):
        for _ in range(n):
            roll = rng.random()
            if roll < 0.7:
                text, value = belief_query()
            elif roll < 0.9:
                (a, va), (b, vb) = belief_query(), belief_query()
                if rng.random() < 0.5:
                    text, value = f"{a} & ~{b}", va and not vb
                else:
                    text, value = f"{a} | {b}", va or vb
            else:
                k = rng.randrange(n_chains)
                if rng.random() < 0.5:
                    text, value = f"K(u{k}a(S,E,Y) -> u{k}b(S,E,Y))", True
                else:
                    text, value = f"K(u{k}b(S,E,Y) -> u{k}a(S,E,Y))", False
            lines.append(f"query {text}")
            lines.append(f"expect {'true' if value else 'false'}")
            expected.append((text, value))

    clock = 1
    since_infer = 0
    for _ in range(events):
        clock += rng.choice((0, 1, 1, 2))
        free = [
            key for key, c in couples.items()
            if c.divorce_at is None and c.marry_at is not None and c.marry_at < clock
        ]
        roll = rng.random()
        if roll < 0.6:
            k = rng.randrange(n_chains)
            o = rng.choice(objects)
            chains[k].perceived.setdefault(o, set()).add(clock)
            lines.append(f"perceive u{k}a({clock},{clock},{o}) @ {clock}")
        elif roll < 0.8 or not free:
            k = rng.randrange(n_pairs)
            o = rng.choice(objects)
            if (k, o) in couples:
                # already married once: perceive an umbrella event instead
                chains[0].perceived.setdefault(o, set()).add(clock)
                lines.append(f"perceive u0a({clock},{clock},{o}) @ {clock}")
            else:
                couples[(k, o)] = _Couple(marry_at=clock)
                lines.append(f"perceive m{k}a({clock},{clock},{o}) @ {clock}")
        else:
            k, o = rng.choice(sorted(free))
            couples[(k, o)].divorce_at = clock
            lines.append(f"perceive m{k}d({clock},{clock},{o}) @ {clock}")
        since_infer += 1
        if since_infer >= rng.randint(3, 10):
            do_infer()
            since_infer = 0
            add_queries(rng.randint(0, 3))
    do_infer()
    add_queries(4)
    return Scenario("\n".join(lines) + "\n", expected, events)
