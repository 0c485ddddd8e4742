"""Seeded inputs for the four benchmark workloads, and what each must produce.

Every ``make_*`` function writes its input file into ``out_dir`` with the
program's own writer and returns ``(path, points, expected)``, where
``points`` counts the samples (instances, for star-L) in the file.
``expected`` holds only values known from the construction (seeded spectra,
case ids, closed forms), never values computed by the analyses under test,
so the checks in ``checks.py`` stay independent of the program.

The program is imported inside the makers only, so that ``checks.py``,
``worker.py`` and the tests can use the constants here without it.

The same ``seed`` always gives the same bytes.  The amount of work per input
does not depend on the seed: the seed picks values, orderings and frames, not
how many points of each kind there are.
"""

import math
import os

import numpy as np

# instance sizes of a full run and of the smoke run (``--smoke``)
SIZES = {
    "s4-integrate": {"full": (5, 5, 6, 7), "smoke": (2, 3, 3, 4)},
    # aligned, h proportional to g, rotated, non-commuting
    "star-h-normal-form": {"full": (125, 65, 115, 25), "smoke": (4, 3, 4, 2)},
    # star-L uses the fixed criterion-07 instances; smoke keeps one known
    # failure so the failure path is exercised
    "star-L-critical": {"full": tuple(range(100)), "smoke": (0, 15)},
    # space-form cells, product-sphere cells, star-h samples, star-L samples
    "roundtrip-validate": {
        "full": ((5, 5, 6, 6), (4, 5, 4, 5), 1400, 600),
        "smoke": ((2, 2, 2, 2), (2, 2, 2, 2), 6, 6),
    },
}

# counts of spacelike critical planes predicted by the construction of each
# complex case (1: three planes, 2: a continuum, 3: one, 4: none)
STAR_L_COUNTS = {1: 3, 2: math.inf, 3: 1, 4: 0}
# the retry schedule of acceptance criterion 07
STAR_L_STARTS = (64, 128, 192)

UNIT_S4_VOLUME = 8.0 * math.pi**2 / 3.0


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def _star_h_values(rng):
    lambdas = rng.uniform(-2.0, 2.0, size=3)
    m1, m2 = rng.uniform(-1.0, 1.0, size=2)
    return lambdas, np.array([m1, m2, -(m1 + m2)])


def _generic_rows(rng):
    """Canonical rows of a random tensor that satisfies first Bianchi only.

    Pair order is 12, 13, 14, 23, 24, 34; Bianchi in dimension 4 is the one
    equation R_1234 - R_1324 + R_1423 = 0.
    """
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    k = rng.normal(size=(6, 6))
    k = (k + k.T) / 2.0
    k[2, 3] = k[1, 4] - k[0, 5]
    rows = []
    for a in range(6):
        for b in range(a, 6):
            rows.append([*pairs[a], *pairs[b], float(k[a, b])])
    return rows


def make_s4(out_dir, seed, smoke=False):
    """Round unit S^4 on a latitude-longitude grid, lines in seeded order.

    The seed permutes the per-axis cell counts and shuffles the lines; the
    number of points and the work per point stay fixed.
    """
    from curvforms.zoo import gen_space_form, write_samples

    rng = np.random.default_rng(seed)
    counts = tuple(int(c) for c in rng.permutation(SIZES["s4-integrate"]["smoke" if smoke else "full"]))
    samples = list(gen_space_form(4, 1.0, counts))
    samples = [samples[i] for i in rng.permutation(len(samples))]
    path = os.path.join(out_dir, "s4.jsonl")
    write_samples(path, samples)
    expected = {"points": len(samples), "chi": 2.0, "tau": 0.0, "total_weight": UNIT_S4_VOLUME}
    return path, len(samples), expected


def make_star_h(out_dir, seed, smoke=False):
    """Synthetic star-h samples of four kinds in seeded order.

    ``expected["points"][i]`` records the kind of line ``i`` and, for the
    commuting kinds, the seeded sorted spectra ``lambda + mu`` and
    ``lambda - mu``.
    """
    from curvforms.curvature import validate_curvature
    from curvforms.zoo import PointSample, gen_synthetic_star_h, write_samples

    rng = np.random.default_rng(seed)
    sizes = SIZES["star-h-normal-form"]["smoke" if smoke else "full"]
    kinds = ["aligned"] * sizes[0] + ["proportional"] * sizes[1] + ["rotated"] * sizes[2]
    kinds += ["generic"] * sizes[3]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    samples, points = [], []
    for kind in kinds:
        h_diag = rng.uniform(0.5, 2.0, size=4)
        if kind == "generic":
            g_diag = rng.uniform(0.5, 2.0, size=4)
            rm = validate_curvature(_generic_rows(rng), dim=4)
            samples.append(PointSample(dim=4, g=np.diag(g_diag), rm=rm, weight=1.0, h=np.diag(h_diag)))
            points.append({"kind": kind})
            continue
        lambdas, mus = _star_h_values(rng)
        if kind == "proportional":
            g_diag = rng.uniform(0.5, 2.0) * h_diag
        else:
            g_diag = rng.uniform(0.5, 2.0, size=4)
        rotation = None if kind == "aligned" else _rotation(rng)
        samples.append(gen_synthetic_star_h(lambdas, mus, h_diag, g_diag, frame_rotation=rotation))
        points.append({
            "kind": kind,
            "plus": sorted((lambdas + mus).tolist()),
            "minus": sorted((lambdas - mus).tolist()),
        })
    path = os.path.join(out_dir, "star_h.jsonl")
    write_samples(path, samples)
    return path, len(samples), {"points": points}


def star_l_instances(smoke=False):
    """(case, index) of the criterion-07 instances, 100 per case in full runs."""
    indices = SIZES["star-L-critical"]["smoke" if smoke else "full"]
    return [(case, i) for case in (1, 2, 3, 4) for i in indices]


def make_star_l(out_dir, seed, smoke=False):
    """Criterion-07 star-L instances (seeds 700000 + 1000 case + i).

    The instances do not depend on ``seed``: the counter's known failures are
    tied to them.  The seed only shuffles the order of the lines.
    """
    from curvforms.complex_forms import complex_case_matrix
    from curvforms.zoo import gen_synthetic_star_L, write_samples

    rng = np.random.default_rng(seed)
    ids = star_l_instances(smoke)
    ids = [ids[i] for i in rng.permutation(len(ids))]
    samples = []
    for case, i in ids:
        c = complex_case_matrix(case, np.random.default_rng(700_000 + 1000 * case + i))
        a = 0.5 * (-c.real - c.real.T)
        b = 0.5 * (-c.imag - c.imag.T)
        samples.append(gen_synthetic_star_L(a, b))
    path = os.path.join(out_dir, "star_l.jsonl")
    write_samples(path, samples)
    return path, len(samples), {"instances": [[case, i] for case, i in ids]}


def make_roundtrip(out_dir, seed, smoke=False):
    """A gzip file mixing every generator, so every optional key is present.

    Space-form and product-sphere grids carry ``coords`` (the latter also
    ``h``), star-h samples carry ``h`` and star-L samples carry ``T``.
    """
    from curvforms.complex_forms import complex_case_matrix
    from curvforms.zoo import (
        gen_product_spheres,
        gen_space_form,
        gen_synthetic_star_h,
        gen_synthetic_star_L,
        write_samples,
    )

    rng = np.random.default_rng(seed)
    space_cells, product_cells, n_star_h, n_star_l = SIZES["roundtrip-validate"]["smoke" if smoke else "full"]
    samples = list(gen_space_form(4, float(rng.uniform(0.5, 2.0)), space_cells))
    a, b = rng.uniform(0.5, 2.0, size=2)
    samples += list(gen_product_spheres(float(a), float(b), product_cells, h_scales=(float(b), float(a))))
    for _ in range(n_star_h):
        lambdas, mus = _star_h_values(rng)
        samples.append(gen_synthetic_star_h(
            lambdas, mus, rng.uniform(0.5, 2.0, size=4), rng.uniform(0.5, 2.0, size=4),
            frame_rotation=_rotation(rng),
        ))
    for _ in range(n_star_l):
        c = complex_case_matrix(int(rng.integers(1, 5)), rng)
        frame = _rotation(rng) * rng.uniform(0.5, 2.0, size=4)
        samples.append(gen_synthetic_star_L(0.5 * (-c.real - c.real.T), 0.5 * (-c.imag - c.imag.T), frame))
    samples = [samples[i] for i in rng.permutation(len(samples))]
    path = os.path.join(out_dir, "mixed.jsonl.gz")
    write_samples(path, samples)
    return path, len(samples), {"points": len(samples)}


MAKERS = {
    "s4-integrate": make_s4,
    "star-h-normal-form": make_star_h,
    "star-L-critical": make_star_l,
    "roundtrip-validate": make_roundtrip,
}
