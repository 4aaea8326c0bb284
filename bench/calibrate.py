"""Fixed pure-Python work that measures how fast the host runs right now.

The benchmark runs this program between its measurements and rescales
them by its wall time (see ``Calibrator`` in run.py). It computes the
orders of the subgroups of S6 generated by 300 fixed pairs of elements,
closing under products as the spq subgroup code does; it never changes
with the program under test.
"""

IDENTITY = tuple(range(6))


def compose(p, q):
    return tuple(p[i] for i in q)


def closure(gens):
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def main() -> int:
    elements = sorted(closure([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]))
    orders = [len(closure([a, b])) for a in elements[::12] for b in elements[::150]]
    return 0 if len(elements) == 720 and len(orders) == 300 else 1


if __name__ == "__main__":
    raise SystemExit(main())
