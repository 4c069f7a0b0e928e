"""Matrix multiplication (``mmul``).

The paper runs 100x100; the default here is 24x24 (the transition
percentages depend on the loop code, not the matrix size — see
DESIGN.md).
Double-precision, classic i/j/k triple loop with a k-innermost dot
product, as a compiler would emit for ``C[i][j] += A[i][k]*B[k][j]``.
"""

from __future__ import annotations

from repro.workloads.common import (
    Workload,
    assert_close,
    format_doubles,
    pseudo_values,
    read_doubles,
)

DEFAULT_N = 24


def _reference(a: list[float], b: list[float], n: int) -> list[float]:
    c = [0.0] * (n * n)
    for i in range(n):
        for j in range(n):
            total = 0.0
            for k in range(n):
                total += a[i * n + k] * b[k * n + j]
            c[i * n + j] = total
    return c


def build(n: int = DEFAULT_N) -> Workload:
    """Build the mmul workload for ``n`` x ``n`` matrices."""
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    a = pseudo_values(n * n, seed=1)
    b = pseudo_values(n * n, seed=2)
    expected = _reference(a, b, n)

    source = f"""
# mmul: C = A * B, {n}x{n} doubles, i/j/k loops
        .data
A:
{format_doubles(a)}
B:
{format_doubles(b)}
C:
        .space {8 * n * n}
        .text
main:
        li    $s0, {n}          # N
        sll   $s4, $s0, 3       # row stride in bytes (8*N)
        la    $s5, A
        la    $s6, B
        la    $s7, C
        li    $s1, 0            # i
iloop:
        li    $s2, 0            # j
jloop:
        mul   $t5, $s1, $s0     # i*N
        sll   $t5, $t5, 3
        addu  $t3, $s5, $t5     # &A[i][0]
        sll   $t6, $s2, 3
        addu  $t4, $s6, $t6     # &B[0][j]
        mtc1  $zero, $f4        # sum = 0.0
        li    $s3, 0            # k
kloop:
        l.d   $f6, 0($t3)       # A[i][k]
        l.d   $f8, 0($t4)       # B[k][j]
        mul.d $f10, $f6, $f8
        add.d $f4, $f4, $f10
        addiu $t3, $t3, 8
        addu  $t4, $t4, $s4
        addiu $s3, $s3, 1
        bne   $s3, $s0, kloop
        mul   $t5, $s1, $s0     # C[i][j] = sum
        addu  $t5, $t5, $s2
        sll   $t5, $t5, 3
        addu  $t5, $s7, $t5
        s.d   $f4, 0($t5)
        addiu $s2, $s2, 1
        bne   $s2, $s0, jloop
        addiu $s1, $s1, 1
        bne   $s1, $s0, iloop
        li    $v0, 10
        syscall
"""

    def verify(cpu) -> None:
        measured = read_doubles(cpu, "C", n * n)
        assert_close(measured, expected, what="mmul C")

    return Workload(
        name="mmul",
        description=f"matrix multiplication, {n}x{n} doubles (paper: 100x100)",
        source=source,
        params={"n": n},
        verify=verify,
    )
