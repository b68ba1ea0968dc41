"""Layer microbenchmark for the exact scalar and polynomial kernels.

    python3 bench/microbench.py

Run it from any directory; it imports the program from the `src` directory
next to this file, so a checkout of another commit measures that commit.
Each kernel is timed with `timeit`, a fixed number of calls per repeat, and
the best of 7 repeats is reported in microseconds per call.  The kernels:

- `fraction_mul`: a bare `Fraction * Fraction`, the floor for a product over Q;
- `scalar_mul_q`, `scalar_add_q`: `Scalar * Scalar` and `Scalar + Scalar` over Q;
- `scalar_mul_zeta5`: `Scalar * Scalar` over Q(zeta_5), four nonzero coordinates;
- `multipoly_mul_q`: a seeded 30-term by 30-term `MultiPoly` product over Q
  in 6 variables;
- `multipoly_mul_zeta5`: the same shape over Q(zeta_5), every coefficient with
  four random rational coordinates;
- `multipoly_substitute_q`: a dense cubic in 4 variables under a linear change
  of variables with two +-1 entries per row, the way `change_basis` does it;
- `divide_exact_q`: a seeded 12-term by 12-term product divided by one factor;
- `matrix_det_q`: a 5 x 5 determinant by cofactor expansion whose entries are
  random linear polynomials in 3 variables;
- `strong_nilpotence_flag_q`: the strong-nilpotence flag of JH for the n5
  family at d = 2 behind a dense +-1 change of basis (the `conjugated`
  workload's T at seed 1), which it rejects with a word witness;
- `strong_nilpotence_flag_zeta3`: the same for f667 at d = 3, n = 4 over
  Q(zeta_3), which it triangularizes;
- `quasi_test_q`: `is_quasi_translation` on the n4 family at d = 3 behind a
  +-1 change of basis; the map is a quasi-translation;
- `linear_form_power_zeta5`: (zeta x1 + x2 - x3)^9 over Q(zeta_5), the power
  of a linear form that certificates and identities expand;
- `is_pure_power_q`: `is_pure_power` on 3/2 (x1 + 2 x3 - x5)^6 in 6 variables;
- `orthogonality_f666_d6`: the orthogonality clause of the f666 certificate
  at d = 6 (13 triples in 14 variables over Q), every pair c_j^t b_i, i >= j;
- `matrix_rank_q`: the rank over Q(x) of the 13 x 13 Jacobian of the pairing
  example's G, which is 5;
- `invert_triangular_q`: the inverse of x + H for the f666 family at d = 4
  (n = 10), whose Jacobian is strictly lower triangular;
- `matrix_power_q`: JH^5 for the n5 family at d = 2 behind the +-1 change of
  basis of `strong_nilpotence_flag_q`, the `nilpotent` check's power;
- `sum_condition_det_q`: the determinant of JF summed at 2 tuples of fresh
  indeterminates (12 variables) for the n4 family at d = 3 behind the
  change of basis of `quasi_test_q`, the `jc` check's determinant;
- `sum_condition_conj_n4_d3`: the `jc` decision (`properties._sum_condition`
  at 2 points) for the map of `quasi_test_q`, which fails with a point witness;
- `sum_condition_fallback_conj_n4_d5`: the `jc` fallback, det G at the power
  sums (`properties._at_power_sums`), for the n4 family at d = 5 behind the T
  of its report pin (`tests/test_report_bytes.py`) at 4 points: a 607-term
  determinant in 20 variables;
- `adapted_basis_f666_d4`: the flag's basis routine `linalg.adapted_basis`
  on the b vectors of the f666 certificate at d = 4 (n = 10) moved by the
  inverse of the change of basis of `change_basis_f666_d4` (b -> T^-1 b),
  last first, the way `triangularization_from_certificate` feeds it;
- `adapted_basis_f667_d5`: the same routine on the b vectors of the f667
  certificate at d = 5 (n = 12, 15 triples) over Q(zeta_5), where every
  vector has four rational coordinates per entry;
- `change_basis_f666_d4`: the f666 family at d = 4 (n = 10) behind a dense
  +-1 change of basis T, taken back by change_basis(G, T^-1, T), as a
  `jc_minus` inverse is;
- `report_dumps_f666_d5`: `serialize.report_to_json` and `serialize.dumps`
  together (work moves between them) on the `analyze --checks all` report on
  the f666 family at d = 5 (n = 12), 1.1 MB of JSON, most of it the
  `jc_minus` inverse;
- `map_from_json_f667_d6`: `serialize.map_from_json` on the parsed JSON of
  the f667 family at d = 6 (n = 14, over Q(zeta_6)), mostly scalar parsing;
- `numerators_adapted_basis_f667_d5`: the integer numerators that
  `linalg.adapted_basis` reads off the b vectors of `adapted_basis_f667_d5`
  (`multipoly._numerators`, one call per vector);
- `sum_vanishes_at_n4_d6`: the re-check of the `jc` point witness of the n4
  family at d = 6 (`properties._sum_vanishes_at`: the sum of JF at 5 points
  over Q[t]/(t^2 + 25/4), singular);
- `certificate_from_json_f667_d6`: `serialize.certificate_from_json` on the
  parsed JSON of the f667 certificate at d = 6 (n = 14, over Q(zeta_6));
- `round_trip_f666_d6`: the certificate round trip on the f666 family at
  d = 6 with nu = 1 (n = 14): `triangularization_from_certificate`, then
  `certificate_from_triangularization` on its T;
- `identity_pl667_d9`: `identities.verify_identity("pl667", 9)`, powers of
  linear forms and one sum over Q(zeta_9) in 20 variables.

Prints one JSON object with the machine, the Python version, the repeat
count and, per kernel, the calls per repeat and the best time per call.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import timeit
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from kellerlab import identities, linalg, properties, serialize  # noqa: E402
from kellerlab.constructions import (FamilySpec, family_certificate, gz_example,  # noqa: E402
                                     make_family)
from kellerlab.exactfield import QQ, Field, cyclotomic  # noqa: E402
from kellerlab.multipoly import (LinearForm, MultiPoly, _numerators,  # noqa: E402
                                 divide_exact, is_pure_power, variables)
from kellerlab.polymap import (PolyMatrix, change_basis, conjugate,  # noqa: E402
                               invert_triangular, jacobian, linear_combinations, matrix_det,
                               matrix_rank, plus_identity)

REPEAT = 7
SEED = 6


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _random_rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def _random_poly(rng, nvars, nterms, field=QQ):
    terms = {}
    while len(terms) < nterms:
        exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        terms[exps] = field.element([_random_rational(rng) for _ in range(field.degree)])
    return MultiPoly.from_terms(field, nvars, terms.items())


def _dense_cubic(rng, nvars):
    return MultiPoly.from_terms(QQ, nvars, [(e, _random_rational(rng)) for e in _exponents(nvars, 3)])


def _exponents(nvars, degree):
    """Every exponent vector of total degree at most `degree`."""
    if nvars == 0:
        yield ()
        return
    for first in range(degree + 1):
        for rest in _exponents(nvars - 1, degree - first):
            yield (first,) + rest


def _sign_change_of_variables(rng, nvars):
    """x_i -> +-x_j +-x_k: two +-1 entries per row, as in a conjugating T."""
    grid = [[QQ.zero()] * nvars for _ in range(nvars)]
    for row in grid:
        for j in rng.sample(range(nvars), 2):
            row[j] = QQ.scalar(rng.choice((-1, 1)))
    return linear_combinations(grid, variables(QQ, nvars), MultiPoly.zero(QQ, nvars))


def _linear_matrix(rng, size, nvars):
    one_and_xs = [MultiPoly.constant(QQ, nvars, 1)] + variables(QQ, nvars)
    return PolyMatrix([[sum((p * rng.randint(-3, 3) for p in one_and_xs),
                            MultiPoly.zero(QQ, nvars))
                        for _ in range(size)] for _ in range(size)])


# +-1 changes of basis drawn by `perfbench/workloads.conjugating_matrix` at seed 1
_HIDING = {
    ("n5", 2, None): [[-1, 0, -1, 0, 0], [0, 0, 0, 1, -1], [0, 1, 1, 0, 0],
                      [-1, 0, 0, 0, -1], [-1, -1, 0, 0, 0]],
    ("f667", 3, 4): [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1], [1, 0, 0, -1]],
    ("n4", 3, None): [[0, 1, -1, 0], [1, 0, 1, 0], [0, 0, -1, 1], [0, -1, -1, 0]],
    ("n4", 5, None): [[1, 0, 0, -1], [-1, 0, 1, 0], [1, 0, 1, 0], [0, 1, -1, 0]],
    ("f666", 4, None): [[0, 1, 0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, 0, 1, 0, 0],
                        [0, 0, 0, 0, 1, 0, 0, -1, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0, -1],
                        [0, 0, 0, 0, 0, 0, -1, 0, 0, -1], [0, 0, -1, 0, 0, 1, 0, 0, 0, 0],
                        [1, 0, 0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, -1, 1, 0],
                        [0, 0, 0, 0, 0, -1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1, 1, 0, 0]],
}


def _hidden_family(kind, d, n=None):
    h = make_family(FamilySpec(kind, d, n=n))
    return conjugate(h, PolyMatrix.from_scalars(h.field, h.nvars, _HIDING[kind, d, n]))


def kernels():
    """(name, zero-argument callable, calls per repeat) for every kernel."""
    fa, fb = Fraction(-7, 12), Fraction(5, 18)
    qa, qb = QQ.scalar(fa), QQ.scalar(fb)
    z5 = Field(cyclotomic(5))
    za = z5.element([Fraction(3, 4), -2, Fraction(1, 3), 5])
    zb = z5.element([-1, Fraction(2, 5), 7, Fraction(-3, 2)])
    rng = random.Random(SEED)
    pa, pb = _random_poly(rng, 6, 30), _random_poly(rng, 6, 30)
    za_poly, zb_poly = _random_poly(rng, 6, 30, z5), _random_poly(rng, 6, 30, z5)
    cubic, linear = _dense_cubic(rng, 4), _sign_change_of_variables(rng, 4)
    qa_poly, qb_poly = _random_poly(rng, 4, 12), _random_poly(rng, 4, 12)
    product = qa_poly * qb_poly
    matrix = _linear_matrix(rng, 5, 3)
    n5_jh = jacobian(_hidden_family("n5", 2))
    f667_jh = jacobian(_hidden_family("f667", 3, 4))
    n4_f = plus_identity(_hidden_family("n4", 3))
    zeta_form = LinearForm(z5, [z5.generator(), 1, -1]).to_poly()
    scaled_power = LinearForm(QQ, [1, 0, 2, 0, -1, 0]).to_poly() ** 6 * Fraction(3, 2)
    f666_cert = family_certificate(FamilySpec("f666", 6))
    gz_jacobian = jacobian(gz_example().G)
    f666_f = plus_identity(make_family(FamilySpec("f666", 4)))
    n4_sum = properties.substituted_jacobian_sum(n4_f, 2)
    f666_hidden = _hidden_family("f666", 4)
    f666_t = [[QQ.scalar(v) for v in row] for row in _HIDING["f666", 4, None]]
    f666_t_inv = linalg.invert(f666_t, QQ)
    n4_jf = jacobian(n4_f)
    n4_d5_sum, n4_d5_ms = properties._generic_sum(
        jacobian(plus_identity(_hidden_family("n4", 5))), 4)
    n4_d5_det = matrix_det(n4_d5_sum)
    f666_b = [linear_combinations(f666_t_inv, b, QQ.zero())
              for _, _, b in reversed(family_certificate(FamilySpec("f666", 4)).triples)]
    f667_cert = family_certificate(FamilySpec("f667", 5))
    f667_b = [b for _, _, b in reversed(f667_cert.triples)]
    f666_d5_report = properties.chain_report(plus_identity(make_family(FamilySpec("f666", 5))))
    f667_d6_data = json.loads(serialize.dumps(serialize.map_to_json(
        make_family(FamilySpec("f667", 6)))))
    n4_d6_jf = jacobian(plus_identity(make_family(FamilySpec("n4", 6))))
    n4_d6_witness = properties._sum_condition(n4_d6_jf, 5)[1]
    f667_d6_cert = json.loads(serialize.dumps(serialize.certificate_to_json(
        family_certificate(FamilySpec("f667", 6)))))
    f667_d6_field = serialize.map_from_json(f667_d6_data).field
    f666_d6_map = make_family(FamilySpec("f666", 6, nu=1))
    f666_d6_cert = family_certificate(FamilySpec("f666", 6, nu=1))
    return [
        ("fraction_mul", lambda: fa * fb, 20000),
        ("scalar_mul_q", lambda: qa * qb, 20000),
        ("scalar_add_q", lambda: qa + qb, 20000),
        ("scalar_mul_zeta5", lambda: za * zb, 2000),
        ("multipoly_mul_q", lambda: pa * pb, 20),
        ("multipoly_mul_zeta5", lambda: za_poly * zb_poly, 5),
        ("multipoly_substitute_q", lambda: cubic.substitute(linear), 20),
        ("divide_exact_q", lambda: divide_exact(product, qb_poly), 20),
        ("matrix_det_q", lambda: matrix_det(matrix), 2),
        ("strong_nilpotence_flag_q", lambda: properties._strong_nilpotence_flag(n5_jh), 10),
        ("strong_nilpotence_flag_zeta3",
         lambda: properties._strong_nilpotence_flag(f667_jh), 10),
        ("quasi_test_q", lambda: properties.is_quasi_translation(n4_f), 10),
        ("linear_form_power_zeta5", lambda: zeta_form ** 9, 10),
        ("is_pure_power_q", lambda: is_pure_power(scaled_power), 10),
        ("orthogonality_f666_d6", lambda: properties._orthogonality_failure(f666_cert), 20),
        ("matrix_rank_q", lambda: matrix_rank(gz_jacobian), 10),
        ("invert_triangular_q", lambda: invert_triangular(f666_f), 5),
        ("matrix_power_q", lambda: n5_jh.power(5), 10),
        ("sum_condition_det_q", lambda: matrix_det(n4_sum), 2),
        ("sum_condition_conj_n4_d3", lambda: properties._sum_condition(n4_jf, 2), 5),
        ("sum_condition_fallback_conj_n4_d5",
         lambda: properties._at_power_sums(n4_d5_det, n4_d5_ms, 4, 4), 20),
        ("adapted_basis_f666_d4", lambda: linalg.adapted_basis(QQ, 10, f666_b), 20),
        ("adapted_basis_f667_d5",
         lambda: linalg.adapted_basis(f667_cert.field, f667_cert.nvars, f667_b), 10),
        ("change_basis_f666_d4", lambda: change_basis(f666_hidden, f666_t_inv, f666_t), 2),
        ("report_dumps_f666_d5",
         lambda: serialize.dumps(serialize.report_to_json(f666_d5_report)), 2),
        ("map_from_json_f667_d6", lambda: serialize.map_from_json(f667_d6_data), 5),
        ("numerators_adapted_basis_f667_d5", lambda: [_numerators(b) for b in f667_b], 50),
        ("sum_vanishes_at_n4_d6", lambda: properties._sum_vanishes_at(
            n4_d6_jf, n4_d6_witness["field"], n4_d6_witness["points"]), 20),
        ("certificate_from_json_f667_d6",
         lambda: serialize.certificate_from_json(f667_d6_cert, f667_d6_field), 5),
        ("round_trip_f666_d6", lambda: properties.certificate_from_triangularization(
            f666_d6_map, properties.triangularization_from_certificate(
                f666_d6_cert, f666_d6_map.nvars)), 2),
        ("identity_pl667_d9", lambda: identities.verify_identity("pl667", 9), 2),
    ]


def main():
    results = {}
    for name, call, number in kernels():
        best = min(timeit.repeat(call, number=number, repeat=REPEAT)) / number
        results[name] = {"calls_per_repeat": number, "best_us": round(best * 1e6, 3)}
    print(json.dumps({
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "repeat": REPEAT,
        "seed": SEED,
        "results": results,
    }, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
