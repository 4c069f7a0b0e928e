"""Fast Fourier transform (``fft``) — radix-2, in-place, decimation in
time, on ``n`` complex doubles (paper block size: 256, the default).

Two phases, exactly as a textbook C implementation compiles:

1. **Bit-reversal permutation** — an inner per-bit loop plus a
   conditional swap.  These very short basic blocks are why the paper
   reports fft as its worst case ("a number of very short basic blocks
   exist within the major loop").
2. **Butterfly stages** — triple loop over stage size / group / index
   with twiddle factors from a precomputed ROM table.
"""

from __future__ import annotations

import math

from repro.workloads.common import (
    Workload,
    assert_close,
    format_doubles,
    pseudo_values,
    read_doubles,
)

DEFAULT_N = 256


def _reference(re: list[float], im: list[float]) -> tuple[list[float], list[float]]:
    """The DFT by recursive radix-2 splitting into even and odd halves
    (a different algorithm from the assembled iterative bit-reversal
    FFT, so it stays an independent check).  The twiddle of index ``j``
    is ``e^(-2πi·j/n)``, read from an n-entry table; a sub-transform of
    size ``m`` steps through it ``n/m`` entries at a time."""
    n = len(re)
    cos_of = [math.cos(-2.0 * math.pi * j / n) for j in range(n)]
    sin_of = [math.sin(-2.0 * math.pi * j / n) for j in range(n)]

    def transform(xr, xi, stride):
        if len(xr) == 1:
            return list(xr), list(xi)
        even_re, even_im = transform(xr[0::2], xi[0::2], 2 * stride)
        odd_re, odd_im = transform(xr[1::2], xi[1::2], 2 * stride)
        half = len(even_re)
        out_re, out_im = even_re + even_re, even_im + even_im
        for k in range(half):
            c, s = cos_of[k * stride], sin_of[k * stride]
            tr = odd_re[k] * c - odd_im[k] * s
            ti = odd_re[k] * s + odd_im[k] * c
            out_re[k] += tr
            out_im[k] += ti
            out_re[k + half] -= tr
            out_im[k + half] -= ti
        return out_re, out_im

    return transform(re, im, 1)


def build(n: int = DEFAULT_N) -> Workload:
    """Build the fft workload for a power-of-two ``n``."""
    if n < 4 or n & (n - 1):
        raise ValueError(f"fft size must be a power of two >= 4, got {n}")
    log2n = n.bit_length() - 1
    re0 = pseudo_values(n, seed=5)
    im0 = pseudo_values(n, seed=6)
    twiddle_re = [math.cos(-2.0 * math.pi * t / n) for t in range(n // 2)]
    twiddle_im = [math.sin(-2.0 * math.pi * t / n) for t in range(n // 2)]
    expected_re, expected_im = _reference(re0, im0)

    source = f"""
# fft: radix-2 DIT, {n} complex points, bit-reversal + butterflies
        .data
RE:
{format_doubles(re0)}
IM:
{format_doubles(im0)}
WR:
{format_doubles(twiddle_re)}
WI:
{format_doubles(twiddle_im)}
        .text
main:
        li    $s0, {n}          # N
        la    $t0, RE
        la    $t1, IM
        la    $t2, WR
        la    $t3, WI
# ---- bit-reversal permutation ----
        li    $s1, 0            # i
brloop:
        move  $t5, $s1          # bits to reverse
        li    $t6, 0            # j
        li    $t7, {log2n}
brbit:
        sll   $t6, $t6, 1
        andi  $t8, $t5, 1
        or    $t6, $t6, $t8
        srl   $t5, $t5, 1
        addiu $t7, $t7, -1
        bnez  $t7, brbit
        slt   $t8, $s1, $t6
        beqz  $t8, noswap
        sll   $t7, $s1, 3
        addu  $t7, $t0, $t7
        sll   $t8, $t6, 3
        addu  $t8, $t0, $t8
        l.d   $f4, 0($t7)
        l.d   $f6, 0($t8)
        s.d   $f6, 0($t7)
        s.d   $f4, 0($t8)
        sll   $t7, $s1, 3
        addu  $t7, $t1, $t7
        sll   $t8, $t6, 3
        addu  $t8, $t1, $t8
        l.d   $f4, 0($t7)
        l.d   $f6, 0($t8)
        s.d   $f6, 0($t7)
        s.d   $f4, 0($t8)
noswap:
        addiu $s1, $s1, 1
        bne   $s1, $s0, brloop
# ---- butterfly stages ----
        li    $s1, 2            # m = stage size
mloop:
        srl   $s2, $s1, 1       # half = m/2
        divq  $s5, $s0, $s1     # twiddle stride = N/m
        li    $s3, 0            # k = group base
kloop:
        li    $s4, 0            # j
        li    $t4, 0            # twiddle index
jloop:
        addu  $t5, $s3, $s4     # p = k + j
        addu  $t6, $t5, $s2     # q = p + half
        sll   $t5, $t5, 3
        sll   $t6, $t6, 3
        addu  $t7, $t0, $t5     # &RE[p]
        addu  $t8, $t0, $t6     # &RE[q]
        addu  $t5, $t1, $t5     # &IM[p]
        addu  $t6, $t1, $t6     # &IM[q]
        sll   $t9, $t4, 3
        addu  $v1, $t2, $t9
        l.d   $f2, 0($v1)       # wr
        addu  $v1, $t3, $t9
        l.d   $f4, 0($v1)       # wi
        l.d   $f6, 0($t8)       # RE[q]
        l.d   $f8, 0($t6)       # IM[q]
        mul.d $f10, $f2, $f6
        mul.d $f12, $f4, $f8
        sub.d $f10, $f10, $f12  # tr = wr*REq - wi*IMq
        mul.d $f12, $f2, $f8
        mul.d $f14, $f4, $f6
        add.d $f12, $f12, $f14  # ti = wr*IMq + wi*REq
        l.d   $f6, 0($t7)       # RE[p]
        l.d   $f8, 0($t5)       # IM[p]
        sub.d $f16, $f6, $f10
        s.d   $f16, 0($t8)      # RE[q] = RE[p] - tr
        sub.d $f16, $f8, $f12
        s.d   $f16, 0($t6)      # IM[q] = IM[p] - ti
        add.d $f6, $f6, $f10
        s.d   $f6, 0($t7)       # RE[p] += tr
        add.d $f8, $f8, $f12
        s.d   $f8, 0($t5)       # IM[p] += ti
        addu  $t4, $t4, $s5
        addiu $s4, $s4, 1
        bne   $s4, $s2, jloop
        addu  $s3, $s3, $s1     # k += m
        bne   $s3, $s0, kloop
        sll   $s1, $s1, 1       # m *= 2
        ble   $s1, $s0, mloop
        li    $v0, 10
        syscall
"""

    def verify(cpu) -> None:
        measured_re = read_doubles(cpu, "RE", n)
        measured_im = read_doubles(cpu, "IM", n)
        assert_close(measured_re, expected_re, tolerance=1e-6, what="fft RE")
        assert_close(measured_im, expected_im, tolerance=1e-6, what="fft IM")

    return Workload(
        name="fft",
        description=f"radix-2 FFT, {n} complex doubles (paper: 256)",
        source=source,
        params={"n": n},
        verify=verify,
    )
