"""Elementary number theory: Jacobi symbols, square roots modulo prime powers,
primality, and factorization.

Everything here is exact integer arithmetic.  Square roots modulo 2^k follow
the classical case split (no solution / one / two / four roots depending on k
and the residue of a mod 8); odd prime powers use Tonelli-Shanks followed by
Hensel lifting.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "jacobi_symbol",
    "sqrt_mod_prime_power",
    "sqrt_mod",
    "is_prime",
    "factorize",
    "prime_power_split",
    "crt_pair",
]


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; the Legendre symbol if n is prime."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol requires odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond the sizes used here)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent} (trial division)."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_split(n: int) -> tuple[int, int]:
    """Return (p, r) with n = p^r, or raise ValueError if n is not a prime power."""
    fac = factorize(n)
    if len(fac) != 1:
        raise ValueError(f"{n} is not a prime power")
    (p, r), = fac.items()
    return p, r


def _sqrt_mod_odd_prime(a: int, p: int) -> int | None:
    """One square root of a modulo an odd prime p, or None."""
    a %= p
    if jacobi_symbol(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi_symbol(z, p) != -1:
        z += 1
    m, c, t, root = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        root = root * b % p
    return root


def sqrt_mod_prime_power(a: int, p: int, k: int) -> set[int]:
    """All solutions of x^2 = a (mod p^k) for a coprime to p.

    The solution set has 0 or 2 elements for odd p; for p = 2 it has 1 element
    when k = 1, 0 or 2 when k = 2, and 0 or 4 when k >= 3.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if gcd(a, p) != 1:
        raise ValueError(f"a must be coprime to p, got a={a}, p={p}")
    q = p**k
    a %= q
    if p == 2:
        if k == 1:
            return {1}
        if k == 2:
            return {1, 3} if a % 4 == 1 else set()
        if a % 8 != 1:
            return set()
        # Lift x = 1 from mod 8 upward: adjust by 2^(j-1) whenever the
        # residual (x^2 - a)/2^j is odd.
        x = 1
        mod = 8
        while mod < q:
            if (x * x - a) // mod % 2:
                x += mod // 2
            mod *= 2
        x %= q
        return {x % q, (-x) % q, (x + q // 2) % q, (-x + q // 2) % q}
    root = _sqrt_mod_odd_prime(a, p)
    if root is None:
        return set()
    # Hensel lift from p to p^k; 2*root is a unit, so lifting never stalls.
    mod = p
    while mod < q:
        mod_next = min(mod * mod, q)
        inv = pow(2 * root, -1, mod_next)
        root = (root - (root * root - a) * inv) % mod_next
        mod = mod_next
    return {root, (q - root) % q}


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for coprime moduli."""
    g = gcd(m1, m2)
    if g != 1:
        raise ValueError("crt_pair requires coprime moduli")
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % (m1 * m2)


def sqrt_mod(a: int, n: int) -> set[int]:
    """All solutions of x^2 = a (mod n) with gcd(a, n) = 1, n >= 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if gcd(a, n) != 1:
        raise ValueError(f"a must be coprime to n, got a={a}, n={n}")
    roots = {0}
    modulus = 1
    for p, k in sorted(factorize(n).items()):
        part = sqrt_mod_prime_power(a, p, k)
        if not part:
            return set()
        roots = {crt_pair(r, modulus, s, p**k) for r in roots for s in part}
        modulus *= p**k
    return roots

