"""Five 3001-row moment tables hold their bytes; run as a script, it times each.

The tables run the moments command's path as a whole: rows resumed from the
degree before, rows the complement declines, rows that round to zero.
``python tests/test_tables.py`` prints each table's best of 3 in one process
beside its SHA-256.
"""

import hashlib
import io
import time
from contextlib import redirect_stdout

import pytest

from bergmanlab import cli

# SHA-256 of the stdout of `bergmanlab moments --rho RHO --m M --max-degree 3000`
TABLES = {
    ("-2", "10"): "67ab6b1da23ca340203b06453b85f3aaee02497632bbadf32ec7d848ed8e8bd0",
    ("0", "10"): "a0e30c7c68b5602e330eb4da9d621bd5719f80ec067558c0b663dd0dedc684de",
    ("2", "10"): "1b9db05fe035be21b773333115b0ec1849f031d30e2da8ebd9034d7ac32c5b73",
    ("2", "1000000"): "c63ade20643b6f05e722cd63ccd6f994d2d7cda00d558e603e9153821950604a",
    ("-2", "100000"): "a677c2fad462453b99489701fe6a7a02860c8fb5273a1be85a38f9283da9e8b8",
}


def table_digest(rho, m):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["moments", "--rho", rho, "--m", m, "--max-degree", "3000"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("rho, m", list(TABLES))
def test_table_holds_its_bytes(rho, m):
    assert table_digest(rho, m) == TABLES[rho, m]


if __name__ == "__main__":
    for (rho, m), want in TABLES.items():
        times = []
        for _ in range(3):
            start = time.perf_counter()
            digest = table_digest(rho, m)
            times.append(time.perf_counter() - start)
        verdict = "holds" if digest == want else "CHANGED"
        print(f"rho={rho} m={m}: best of 3 {min(times):.3f} s, sha256 {digest} {verdict}")
