"""Time the canonical modulus search for every (p, m) a field literal accepts.

A literal names p < 2^16, a base field F_{p^e} with p^e <= 2^40 and a
relative degree n <= 6, so the search runs at m = e * n.  Each distinct
(p, m) is searched once, with the search, irreducibility and ring caches
cleared first, so every pair is timed cold.  It also prints one sha256 over
repr((p, m, modulus)) of every pair in order, so two checkouts' moduli can be
compared whole, and one over repr((p, m, tests, gcds)), the work of each
search: its Ben-Or tests (the misses of the cleared irreducibility cache) and
the gcds they take.  The work digest reads the same on any host, so two
checkouts that search alike print it alike.  This is a hand-run measurement,
not a test: pytest does not collect it, and it takes about a minute.

    PYTHONPATH=src python tests/modulus_sweep.py
"""

import hashlib
import statistics
import time

from delpezzo import fields


def accepted_pairs():
    """Every (p, m) that parse_field_literal can pass to make_field, sorted."""
    pairs = set()
    for p in range(2, fields.MAX_CHARACTERISTIC):
        if fields._prime_power(p) != (p, 1):
            continue
        e = 1
        while p ** e <= fields.MAX_BASE_FIELD:
            pairs.update((p, e * n) for n in range(1, fields.MAX_RELATIVE_DEGREE + 1))
            e += 1
    return sorted(pairs)


def main():
    times, digest, work = [], hashlib.sha256(), hashlib.sha256()
    gcds, gcd = [0], fields._Fp.gcd  # _F2 inherits gcd, so this counts every ring's

    def counted_gcd(ring, a, b):
        gcds[0] += 1
        return gcd(ring, a, b)

    fields._Fp.gcd = counted_gcd
    for p, m in accepted_pairs():
        for cached in (fields._modulus, fields._is_irreducible, fields._ring):
            cached.cache_clear()
        gcds[0] = 0
        start = time.perf_counter()
        modulus = fields._modulus(p, m)
        elapsed = time.perf_counter() - start
        tests = fields._is_irreducible.cache_info().misses
        times.append((elapsed, p, m, tests, gcds[0]))
        digest.update(repr((p, m, modulus)).encode())
        work.update(repr((p, m, tests, gcds[0])).encode())
    fields._Fp.gcd = gcd
    total = sum(row[0] for row in times)
    print(f"{len(times)} (p, m) pairs in {total:.1f} s; "
          f"median {statistics.median(row[0] for row in times) * 1e3:.2f} ms")
    print(f"moduli sha256 {digest.hexdigest()}")
    print(f"work sha256 {work.hexdigest()} (Ben-Or tests and gcds of every pair)")
    print("slowest 20:")
    for t, p, m, tests, n_gcds in sorted(times, reverse=True)[:20]:
        print(f"  ({p}, {m}): {t * 1e3:.1f} ms, {tests} tests, {n_gcds} gcds")


if __name__ == "__main__":
    main()
