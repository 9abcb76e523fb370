import pytest

from anyonlat.numtheory import (
    crt_pair,
    factorize,
    is_prime,
    jacobi_symbol,
    prime_power_split,
    sqrt_mod,
    sqrt_mod_prime_power,
)


def test_jacobi_examples():
    for p in (3, 5, 7, 11, 13):
        assert jacobi_symbol(1, p) == 1
    assert jacobi_symbol(2, 3) == -1
    assert jacobi_symbol(2, 7) == 1  # 3^2 = 2 mod 7


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi_symbol(3, 4)
    with pytest.raises(ValueError):
        jacobi_symbol(3, -5)


def test_jacobi_matches_quadratic_residues_up_to_200():
    # For prime n the symbol must agree with the residue table exactly.
    for n in range(3, 201, 2):
        squares = {x * x % n for x in range(1, n)}
        for a in range(1, n):
            sym = jacobi_symbol(a, n)
            if is_prime(n):
                if a % n == 0:
                    assert sym == 0
                else:
                    assert sym == (1 if a in squares else -1), (a, n)
            else:
                # Composite n: symbol is multiplicative over the factorization.
                prod = 1
                for p, e in factorize(n).items():
                    prod *= jacobi_symbol(a, p) ** e
                assert sym == prod, (a, n)


def test_jacobi_completely_multiplicative():
    for n in (3, 9, 15, 21, 35, 105):
        for a in range(1, 20):
            for b in range(1, 20):
                assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)


def test_sqrt_mod_prime_power_examples():
    assert sqrt_mod_prime_power(1, 3, 2) == {1, 8}
    assert sqrt_mod_prime_power(1, 2, 4) == {1, 7, 9, 15}
    assert sqrt_mod_prime_power(3, 5, 1) == set()


def test_sqrt_mod_prime_power_exhaustive():
    # Every prime power q = p^k <= 2^12 over a spread of primes: the returned
    # set must equal the brute-force solution set, with cardinality in
    # {0, 1, 2, 4}.
    moduli = []
    for p in (2, 3, 5, 7, 11, 13, 17, 31, 61, 127, 251, 509, 1021, 2039, 4093):
        k = 1
        while p**k <= 4096:
            moduli.append((p, k))
            k += 1
    for p, k in moduli:
        q = p**k
        by_square: dict[int, set[int]] = {}
        for x in range(q):
            by_square.setdefault(x * x % q, set()).add(x)
        for a in range(1, min(q, 600)):
            if a % p == 0:
                continue
            got = sqrt_mod_prime_power(a, p, k)
            assert got == by_square.get(a % q, set()), (a, p, k)
            assert len(got) in (0, 1, 2, 4)


def test_sqrt_mod_prime_power_rejects_noncoprime():
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(3, 3, 2)


def test_sqrt_mod_composite():
    for n in (15, 45, 72, 100):
        squares: dict[int, set[int]] = {}
        for x in range(n):
            squares.setdefault(x * x % n, set()).add(x)
        for a in range(1, n):
            if any(a % p == 0 for p in factorize(n)):
                continue
            assert sqrt_mod(a, n) == squares.get(a, set()), (a, n)


def test_sqrt_mod_modulo_one():
    # Every residue is 0 mod 1, and 0 is its own square root.
    for a in (-3, 0, 1, 7):
        assert sqrt_mod(a, 1) == {0}


def test_prime_power_split():
    assert prime_power_split(27) == (3, 3)
    assert prime_power_split(2) == (2, 1)
    with pytest.raises(ValueError):
        prime_power_split(12)


def test_crt_pair():
    x = crt_pair(2, 3, 3, 5)
    assert x % 3 == 2 and x % 5 == 3


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**29 - 1)
