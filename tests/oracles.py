"""Reference computations that the tests compare the package against.

Each one takes the slow, defining route to a value the package computes
another way, and checks its own arguments.
"""
import enum
import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction

from chernslope.numtheory import DomainError
from chernslope.prank import CyclicCoverData, h1_dim
from chernslope.rootcover import InvalidAssignmentError


def is_prime_trial(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def _check_prime(q: int) -> None:
    if not is_prime_trial(q):
        raise DomainError(f"q must be prime, got {q}")


# ---------------------------------------------------------------------------
# The defining O(q) Dedekind sum
# ---------------------------------------------------------------------------

def dedekind_sum_direct(q: int, a: int) -> Fraction:
    """The defining sum s(a, q) = sum_i ((i/q)) ((ia/q)), evaluated exactly,
    where the sawtooth ((x)) is x - floor(x) - 1/2 off the integers and 0 on
    them; for 0 < i < q, ((i/q)) = (2i - q)/(2q).

    O(q) work; the independent oracle for `numtheory.dedekind_data`.
    """
    if q < 2 or not 0 < a < q or math.gcd(a, q) != 1:
        raise DomainError(f"need coprime 0 < a < q, got a={a}, q={q}")
    total = 0
    for i in range(1, q):
        r = (i * a) % q
        total += (2 * i - q) * (2 * r - q)
    return Fraction(total, 4 * q * q)


def hj_digits_direct(q: int, a: int) -> list[int]:
    """The HJ digits of q/a one ceiling at a time: e = ceil(x/y), then
    (x, y) -> (y, e*y - x) until y = 0. One step per digit, runs of 2s
    included; the oracle for `numtheory.hj_pass`'s run steps."""
    if q < 2 or not 0 < a < q or math.gcd(a, q) != 1:
        raise DomainError(f"need coprime 0 < a < q, got a={a}, q={q}")
    digits = []
    x, y = q, a
    while y:
        e = -(-x // y)
        digits.append(e)
        x, y = y, e * y - x
    return digits


def hj_value(digits) -> Fraction:
    """Fold HJ digits back into the exact rational e1 - 1/(e2 - 1/(... - 1/es))."""
    if not digits:
        raise ValueError("need at least one digit")
    acc = Fraction(digits[-1])
    for e in reversed(digits[:-1]):
        acc = e - 1 / acc
    return acc


def node_residue(nu_i: int, nu_j: int, q: int) -> int:
    """The unique 0 < a < q with nu_i * a + nu_j = 0 (mod q).

    Swapping the two multiplicities replaces a by its inverse mod q; the
    node invariants c and l are insensitive to the swap.
    """
    _check_prime(q)
    if not (0 < nu_i < q and 0 < nu_j < q):
        raise InvalidAssignmentError(f"multiplicities {nu_i}, {nu_j} not in (0, {q})")
    return (-nu_j * pow(nu_i, -1, q)) % q


def c1sq_from_canonical_class(config, assign) -> Fraction:
    """c1^2 of the resolved degree-q cover from its canonical class: the
    reference for `rootcover.chern_of_cover(...).c1sq`.

    On the normal cover, K = pi^*(K_Y + (1 - 1/q) D) with D the reduced
    branch divisor, so K^2 = q (K_Y + (1 - 1/q) D)^2. The census gives
    K_Y^2 = c1sq_ambient, D_i^2 = self_int, K_Y.D_i = 2 g_i - 2 - D_i^2 and
    D_i.D_j from the nodes. Resolving a node of residue a, a point of type
    1/q(1, a), adds 2 - (2 + a + a')/q - sum(b_i - 2) to K^2, with b_i the
    HJ digits of q/a and a' = a^-1 mod q, from the discrepancies
    (Barth-Hulek-Peters-Van de Ven, ch. III): 1/4(1, 1) adds -1 and A_{q-1}
    adds 0. It reads no log Chern number, Dedekind sum or closed form.
    """
    q, nus = assign.q, assign.nus
    t = Fraction(q - 1, q)
    k_dot_d = sum(2 * c.genus - 2 - c.self_int for c in config.components)
    d_sq = sum(c.self_int for c in config.components) + 2 * sum(n for _, _, n in config.nodes)
    k_sq = q * (config.c1sq_ambient + 2 * t * k_dot_d + t * t * d_sq)
    for i, j, n in config.nodes:
        a = node_residue(nus[i], nus[j], q)
        digit_excess = sum(b - 2 for b in hj_digits_direct(q, a))
        k_sq += n * (2 - Fraction(2 + a + pow(a, -1, q), q) - digit_excess)
    return k_sq


def genus_via_cohomology(data: CyclicCoverData) -> int:
    """The genus as the sum of all eigenspace dimensions of H^1."""
    return sum(h1_dim(i, data) for i in range(1, data.q))


def is_primitive_root(p: int, q: int) -> bool:
    """Whether p generates (Z/q)* for a prime q: p^k steps through every
    unit before it first returns to 1."""
    _check_prime(q)
    if p % q == 0:
        return False
    x, order = p % q, 1
    while x != 1:
        x = x * p % q
        order += 1
    return order == q - 1


# ---------------------------------------------------------------------------
# Canonical JSON through the standard library's encoder
# ---------------------------------------------------------------------------

_LEAVES = frozenset({str, int, bool, float, type(None)})


def rat(x) -> dict[str, str]:
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def jsonable(obj):
    """Recursively convert to JSON-serializable structures; Fractions become
    {"num", "den"} string pairs so nothing is ever rounded.

    Dataclasses become dicts of their fields, read in place; sets become
    sorted lists. Anything else is returned as it is, for `json.dumps` to
    encode or refuse.
    """
    if type(obj) in _LEAVES:
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [jsonable(v) for v in sorted(obj)]
    if isinstance(obj, Fraction):
        return rat(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def canonical_json_stdlib(obj) -> str:
    """The reference for `serialize.canonical_json`: `jsonable`, then the
    standard library's encoder with sorted keys and a 2-space indent."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2)
