"""The term-by-term product kernel, kept as the oracle of ``fusion.product_tree``.

The package multiplies 2x2 matrices on Kronecker-packed big ints.  This
is the kernel it replaced: one loop iteration per (term, term, label,
label) product, read from the same structure constants
(``fusion._fusion_table``), with no packing, no slot width and no powers.
A matrix is (a, b, c, d) of sparse terms (exponent, nonzero (label,
coefficient) pairs); ``sparse_product`` multiplies a list of them in a
balanced tree and returns four exponent -> dense row dicts, as
``product_tree`` does.
"""

from braiddyn.fusion import _fusion_table


def nonzero(row) -> list[tuple[int, int]]:
    return [(a, c) for a, c in enumerate(row) if c]


def sparse_matrix(entries) -> tuple:
    """(a, b, c, d), each a sequence of (exponent, coefficient row), as sparse terms."""
    return tuple(tuple((e, tuple(nonzero(row))) for e, row in entry) for entry in entries)


def fuse_into(table, acc: list[int], u, v) -> None:
    """Add the product of the nonzero (label, coefficient) pairs u and v into ``acc``."""
    for a, ca in u:
        by_b = table[a]
        for b, cb in v:
            m = ca * cb
            for c in by_b[b]:
                acc[c] += m


def sparse_dot(n: int, table, pairs) -> dict[int, list[int]]:
    """Sum of the Laurent products x * y over ``pairs``, as exponent -> dense row."""
    acc: dict[int, list[int]] = {}
    for x, y in pairs:
        for e1, u in x:
            for e2, v in y:
                out = acc.get(e1 + e2)
                if out is None:
                    out = acc[e1 + e2] = [0] * (n - 1)
                fuse_into(table, out, u, v)
    return acc


def sparse_matrix_mul(n: int, table, x, y) -> tuple:
    a, b, c, d = x
    p, q, r, s = y
    return tuple(
        [(e, u) for e, row in sparse_dot(n, table, pairs).items() if (u := nonzero(row))]
        for pairs in (((a, p), (b, r)), ((a, q), (b, s)), ((c, p), (d, r)), ((c, q), (d, s)))
    )


def sparse_product(n: int, mats) -> tuple[dict[int, list[int]], ...]:
    """mats[0] mats[1] ... in a balanced tree; the empty product is the identity."""
    table = _fusion_table(n)
    level = list(mats) or [(((0, ((0, 1),)),), (), (), ((0, ((0, 1),)),))]
    while len(level) > 1:
        paired = [
            sparse_matrix_mul(n, table, level[i], level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        level = paired + level[len(paired) * 2 :]
    rows = []
    for entry in level[0]:
        dense: dict[int, list[int]] = {}
        for e, pairs in entry:
            row = dense[e] = [0] * (n - 1)
            for a, c in pairs:
                row[a] = c
        rows.append(dense)
    return tuple(rows)
