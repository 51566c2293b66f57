"""The one memory budget of every blocked array pass: row blocks of an (n_rows, n_cols) pass."""

# Elements per block, read at each call of row_blocks: 1 MB of float64 stays in
# cache, and blocks of 1M elements made the oracle's root sweeps 40 % slower.
BLOCK_ELEMENTS = 1 << 17


def row_blocks(n_rows: int, n_cols: int):
    step = max(1, BLOCK_ELEMENTS // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))
