"""Golden trajectories: seeded walks, reductions and certificates.

The values were recorded before the incremental move index existed, when
every step re-enumerated the moves of the whole complex.  A search draws
from the move list by position, so any change to the enumeration order,
to the candidate set or to the calls made on the random stream shows up
here as a different digest or counter.
"""

import hashlib

import pytest

from bistellar import (
    cross_polytope,
    fan_certificate,
    random_fan_labelling,
    random_z2_walk,
    reduce_to_boundary_simplex,
    simplex_boundary,
    z2_reduce_to_cross_polytope,
)
from bistellar.cli import certificate_document, complex_document, dumps_canonical


def _trajectory(report):
    return (report.sequence.target_digest, len(report.sequence),
            report.flips_tried, report.flips_applied, report.restarts)


@pytest.mark.parametrize("seed, expected", [
    (1, ("1f8e16c2f6ffe9a144cfac2aa59e97e6b7dd0cc02bf7da58ee0f5b0b1b38ba7a",
         23, 32, 23, 0)),
    (2, ("3318f397ca523f2933b07bd2c317ed953260a85da5a160673e1ba5e224e72301",
         23, 33, 23, 0)),
    (3, ("fa48ff76d825f3e5bd7143a2e7103dfb411e3a28d4585b05e3b1e30e39589eb1",
         37, 61, 37, 0)),
])
def test_symmetric_reduction_of_sd_octahedron(seed, expected):
    sd, _ = cross_polytope(3).equivariant_sd()
    report = z2_reduce_to_cross_polytope(sd, seed=seed)
    assert report.reduced
    assert _trajectory(report) == expected


@pytest.mark.parametrize("seed, expected", [
    (1, ("e1c75aa1ebd2a1b581166f7f0031d147cfb949c08e76eed6d240b5ccd43e1639",
         217, 831, 223, 1)),
    (2, ("bdb1c01190f11f26e20b2c92cea64f89fc587f6492d7397d05ebcafb63f2e80b",
         147, 748, 155, 1)),
])
def test_plain_reduction_of_sd_simplex(seed, expected):
    # both seeds restart once, so the search also resumes from a best state
    sd, _ = simplex_boundary(4).barycentric_subdivide()
    report = reduce_to_boundary_simplex(sd, seed=seed)
    assert report.reduced
    assert _trajectory(report) == expected


def test_walk_on_cross_polytope():
    _, sequence = random_z2_walk(cross_polytope(4), 40, seed=3)
    assert len(sequence) == 40
    assert sequence.target_digest == \
        "70b62a442cab7903c0a649cb332a9a48ef149c95518dd6c95ca23377a02f7362"


def test_certificate_bytes_of_walked_sphere():
    walked, _ = random_z2_walk(cross_polytope(3), 40, seed=7)
    labelling = random_fan_labelling(walked, walked.dimension + 2, 3)
    certificate = fan_certificate(walked, labelling, seed=1)
    text = dumps_canonical(certificate_document(certificate))
    assert len(certificate.sequence) == 20
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "005e7688c8efca9977a3b65892284984e5996c56b2280b89aead214904ce502e"


@pytest.mark.parametrize("name, expected", [
    ("sd-cross-4", "2c8a60f94d57176ae673a982c838b3862ded10b72b123d2438bff7ca35c881ee"),
    ("walk-cross-3", "0c3e30fbb8880668f62279a4accfe469ec622548009e224957f922ef68f91eae"),
], ids=["sd-cross-4", "walk-cross-3"])
def test_labelled_document_bytes(name, expected):
    # sd(boundary of C4) with labels of bound 6 and seed 1; a 40-step walk
    # of C3 (seed 5) with labels of bound 4 and seed 2
    if name == "sd-cross-4":
        sphere, _ = cross_polytope(4).equivariant_sd()
        labelling = random_fan_labelling(sphere, sphere.dimension + 2, 1)
    else:
        sphere, _ = random_z2_walk(cross_polytope(3), 40, seed=5)
        labelling = random_fan_labelling(sphere, sphere.dimension + 2, 2)
    text = dumps_canonical(complex_document(sphere.complex, z2=True, labelling=labelling))
    assert hashlib.sha256(text.encode()).hexdigest() == expected
