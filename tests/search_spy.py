"""Spying on the hom solves of compute_quotient's search alone.

compute_quotient binds solver.bottom_kernels and solver.hom_stack when
it starts, and hom, whose single-pair solves the search starts with,
binds them at each of its calls; patch_search lets the search see the
spies and hom the real functions.
"""

from btquot import quotient, solver


def patch_search(monkeypatch, **spies):
    """Set each solver.<name> to its spy for the search, while
    quotient.hom runs on the real functions."""
    real = {name: getattr(solver, name) for name in spies}
    hom = quotient.hom

    def unspied(alg, v, w):
        for name, f in real.items():
            setattr(solver, name, f)
        try:
            return hom(alg, v, w)
        finally:
            for name, f in spies.items():
                setattr(solver, name, f)
    monkeypatch.setattr(quotient, "hom", unspied)
    for name, f in spies.items():
        monkeypatch.setattr(solver, name, f)
