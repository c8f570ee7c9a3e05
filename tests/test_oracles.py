"""Tests of the half-plane reference route in ``oracles``."""

import cmath

import pytest

from wtree import NumericalDegeneracyError, sqrt_upper
from oracles import cos_sin, edge_step_R


def test_cos_sin_overflow_guard():
    with pytest.raises(NumericalDegeneracyError):
        cos_sin(complex(0.0, 400.0), 1.0)


def test_edge_step_R_basics():
    z = complex(2.0, 0.5)
    w = sqrt_upper(z)
    r0 = complex(0.7, 1.1)
    assert edge_step_R(r0, 0.0, z) == r0
    # iw is the fixed point of the flow
    assert abs(edge_step_R(1j * w, 2.3, z) - 1j * w) < 1e-12
    # semigroup property
    a = edge_step_R(edge_step_R(r0, 0.4, z), 0.9, z)
    b = edge_step_R(r0, 1.3, z)
    assert abs(a - b) < 1e-10


def test_edge_step_R_pole():
    z = complex(2.0, 0.0)  # boundary keeps the trig factors real
    with pytest.raises(NumericalDegeneracyError):
        # R0 = -w*cot(w*l) makes the denominator c + R0*s/w vanish at l
        w = sqrt_upper(z)
        l = 0.8
        c, s_ = cmath.cos(w * l), cmath.sin(w * l)
        edge_step_R(-w * c / s_, l, z)
