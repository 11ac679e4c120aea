"""Regenerate the nested quadrature tables in src/conformable/quad.py.

Starting from the 7-point Gauss-Legendre rule G7, each stage adds the nodes
that raise the degree the most (Kronrod 1965; Patterson, The optimum
addition of points to quadrature formulae, Math. Comp. 22, 1968):

- G7's nodes are the roots of the Legendre polynomial P7, found by Newton's
  method;
- K15 adds the 8 roots of the polynomial E8 with ∫ P7 E8 x^k dx = 0 on
  [-1, 1] for k < 8;
- P31 adds the 16 roots of the polynomial E16 with ∫ P7 E8 E16 x^k dx = 0
  for k < 16.

Each rule's weights solve its moment system Σ w x^k = 2/(k+1), so K15 is
exact through degree 23 and P31 through degree 47.  The script checks that
every node is real and inside (-1, 1), every weight is positive, the
degrees hold, and the K15 stage rounds to the floats of `_XGK`/`_WGK`;
then it prints the P31 literals to the 33 decimals of those tables.

Run:  python3 tests/gen_patterson_table.py
"""

import sys
from pathlib import Path

DPS = 80
DECIMALS = 33  # as in quad._XGK


def main() -> None:
    import mpmath as mp

    mp.mp.dps = DPS

    def poly_mul(p, q):
        # coefficient lists, lowest degree first
        r = [mp.mpf(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                r[i + j] += a * b
        return r

    def moment(k):
        return mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)

    def node_poly(nodes):
        p = [mp.mpf(1)]
        for x in nodes:
            p = poly_mul(p, [-x, mp.mpf(1)])
        return p

    def extension(base, n):
        """The monic degree-n polynomial, even in x, orthogonal to x^k (k < n)
        under the weight `base` (an odd polynomial) on [-1, 1]."""
        # E(x) = x^n + Σ_j c_j x^(2j); only odd k give non-trivial equations.
        rows, rhs = [], []
        for k in range(1, n, 2):
            def integral(m):
                return mp.fsum(c * moment(i + m + k) for i, c in enumerate(base))
            rows.append([integral(2 * j) for j in range(n // 2)])
            rhs.append(-integral(n))
        c = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
        # roots in y = x^2, then x = ±sqrt(y)
        coeffs = [mp.mpf(1)] + [c[j] for j in reversed(range(n // 2))]
        ys = mp.polyroots(coeffs, maxsteps=200, extraprec=4 * DPS)
        for y in ys:
            assert abs(mp.im(y)) < mp.mpf(10) ** (-DPS // 2), "complex node"
            assert 0 < mp.re(y) < 1, "node outside (-1, 1)"
        return sorted(mp.sqrt(mp.re(y)) for y in ys)

    def weights(half_nodes):
        """Weights of the symmetric rule on ±half_nodes and 0 (last weight)."""
        unknowns = list(half_nodes) + [mp.mpf(0)]
        rows = [
            [2 * x ** (2 * k) if x != 0 else (1 if k == 0 else 0) for x in unknowns]
            for k in range(len(unknowns))
        ]
        rhs = [moment(2 * k) for k in range(len(unknowns))]
        return list(mp.lu_solve(mp.matrix(rows), mp.matrix(rhs)))

    def degree(half_nodes, w):
        """Highest even k up to which the rule integrates x^k to 1e-60."""
        k = 0
        while True:
            s = w[-1] * (1 if k == 0 else 0) + 2 * mp.fsum(
                wi * x ** k for wi, x in zip(w, half_nodes)
            )
            if abs(s - moment(k)) > mp.mpf(10) ** -60:
                return k - 1
            k += 2

    # G7: positive roots of P7 by Newton's method on mp.legendre
    g7 = []
    for i in range(1, 4):
        x = mp.cos(mp.pi * (i - mp.mpf(0.25)) / (7 + mp.mpf(0.5)))
        for _ in range(100):
            step = mp.legendre(7, x) / mp.diff(lambda s: mp.legendre(7, s), x)
            x -= step
            if abs(step) < mp.mpf(10) ** (-DPS + 5):
                break
        g7.append(x)
    g7 = sorted(g7)
    p7 = node_poly([-x for x in g7] + [mp.mpf(0)] + g7)

    k15_new = extension(p7, 8)
    k15 = sorted(g7 + k15_new, reverse=True)
    wk15 = weights(k15)
    assert all(w > 0 for w in wk15), "K15 weight not positive"
    assert degree(k15, wk15) == 23, degree(k15, wk15)

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from conformable import quad

    for x, w, x_table, w_table in zip(k15 + [mp.mpf(0)], wk15, quad._XGK, quad._WGK):
        assert float(x) == x_table and float(w) == w_table, "K15 differs from quad's table"

    p15 = poly_mul(p7, node_poly([-x for x in k15_new] + k15_new))
    p31_new = sorted(extension(p15, 16), reverse=True)
    p31 = sorted(k15 + p31_new, reverse=True)
    wp31 = weights(p31)
    assert all(w > 0 for w in wp31), "P31 weight not positive"
    assert degree(p31, wp31) == 47, degree(p31, wp31)

    weight_of = dict(zip(p31 + [mp.mpf(0)], wp31))

    def literal(x):
        # every node and weight lies in (0, 1)
        return "0." + str(int(mp.nint(x * 10**DECIMALS))).zfill(DECIMALS)

    print("# P31 weights of the K15 nodes, in the order of _XGK")
    print("_WPK = (")
    for x in k15 + [mp.mpf(0)]:
        print(f"    {literal(weight_of[x])},")
    print(")")
    print("# the 16 nodes P31 adds (positive half) and their weights")
    print("_XP = (")
    for x in p31_new:
        print(f"    {literal(x)},")
    print(")")
    print("_WP = (")
    for x in p31_new:
        print(f"    {literal(weight_of[x])},")
    print(")")


if __name__ == "__main__":
    main()
