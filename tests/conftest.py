from __future__ import annotations

import pytest

from twozero import build_code, build_field, classify_parameters
from twozero.codes import ENGINES, run_engine
from twozero.gf import Polynomial


def conjugate_trace(field, a: int, d: int) -> int:
    """Tr_d^m(a) as the sum of the conjugates a**(p**(d i)), in polynomials.

    Polynomial arithmetic modulo the field's modulus: no field table is read,
    so this is the definition against which every trace is checked.
    """
    acc = t = Polynomial(field.p, field.coeffs(a))
    for _ in range(field.m // d - 1):
        t = t.pow_mod(field.p**d, field.modulus)
        acc = acc + t
    return field.encode(acc.coeffs)


@pytest.fixture(scope="session")
def field341():
    return build_field(3, 4)


@pytest.fixture(scope="session")
def params341():
    return classify_parameters(3, 4, 1)


@pytest.fixture(scope="session")
def code341():
    return build_code(3, 4, 1)


@pytest.fixture(scope="session")
def code364():
    return build_code(3, 6, 4)


@pytest.fixture(scope="session")
def code361():
    return build_code(3, 6, 1)


@pytest.fixture(scope="session")
def dists341(code341):
    return {engine: run_engine(code341, engine) for engine in ENGINES}


@pytest.fixture(scope="session")
def dists364(code364):
    return {engine: run_engine(code364, engine) for engine in ENGINES}


@pytest.fixture(scope="session")
def dists361(code361):
    return {engine: run_engine(code361, engine) for engine in ENGINES}


# Points of the direct-oracle equivalence tests: CaseB-odd-k (3, 4, 1) and the
# OddS points (5, 3, 1) and (3, 3, 1), each under a non-default modulus and
# under a non-default primitive element.
_DIRECT_POINTS = [
    ((p, m, k), {hook: 1})
    for p, m, k in [(3, 4, 1), (5, 3, 1), (3, 3, 1)]
    for hook in ("modulus_index", "primitive_index")
]


@pytest.fixture(
    scope="session",
    params=_DIRECT_POINTS,
    ids=[f"{p}{m}{k}-{next(iter(kw))}" for (p, m, k), kw in _DIRECT_POINTS],
)
def direct_point(request):
    (p, m, k), field_kw = request.param
    return build_field(p, m, **field_kw), classify_parameters(p, m, k)
