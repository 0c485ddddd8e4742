"""The precondition chain: ``validate_sample``'s rules, in its order, for the
inputs a stacked path has (:func:`_preconditions`), run with the path's own
verdicts after them into each point's first error (:func:`_first_errors`)."""

from itertools import repeat

import numpy as np

from .curvature import _first_bianchi_errors
from .exceptions import DimensionError
from .hodge import _metric_errors, _unit_errors


def _first_errors(errors: list, rules) -> list:
    """``errors`` (one per point, None where it is clean) carried through ``rules``
    in order: each clean point takes the first error a rule gives it.

    A rule is called with the points still clean, ``at`` (``slice(None)`` while
    every point is, else their indices), and returns one error or None per
    point of ``at``; it runs only while some point is clean.  A path's last
    rule may return each point's result in place of None."""
    errors = list(errors)
    for rule in rules:
        clean = [p for p, e in enumerate(errors) if e is None]
        if not clean:
            break
        at = slice(None) if len(clean) == len(errors) else np.array(clean)
        for p, error in zip(clean, rule(at)):
            errors[p] = error
    return errors


def _preconditions(tol, g=None, h=None, name="h", t=None, given=None, weight=None, k0=None, dim=None) -> list:
    """The rules, at ``tol``: the metric rule (``hodge._metric_errors``) on ``g``
    (N, n, n), then on ``h``, called ``name`` (one, or one per point); the unit
    rule (``hodge._unit_errors``) on ``t`` (N, n) where ``given`` (N,) is True
    (default: every point); the path's weight rule; first Bianchi
    (``curvature._first_bianchi_errors``, the one rule) on the pair matrices
    ``k0`` (N, m, m).  With ``dim``, a metric or ``t`` of another shape fails every point."""
    rules = []
    for m, called in ((g, "g"), (h, name)):
        if m is None:
            continue
        if dim is not None and m.shape[1:] != (dim, dim):
            rules.append(lambda at, e=DimensionError(f"{called} must be {dim}x{dim}, got {m.shape[1:]}"): repeat(e))
        rules.append(lambda at, m=m, called=called: _metric_errors(
            m[at], called if isinstance(called, str) else called[at], tol
        ))
    if t is not None:
        if dim is not None and t.shape[1:] != (dim,):
            rules.append(lambda at, e=DimensionError(f"T must have {dim} components"): repeat(e))

        def unit(at):
            errors = _unit_errors(g[at], t[at], tol)[1]
            return errors if given is None else [e if ok else None for e, ok in zip(errors, given[at].tolist())]

        rules.append(unit)
    if weight is not None:
        rules.append(weight)
    if k0 is not None:
        rules.append(lambda at: _first_bianchi_errors(k0[at], tol))
    return rules

