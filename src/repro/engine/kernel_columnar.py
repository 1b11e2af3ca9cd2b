"""Columnar (structure-of-arrays) batch engine for the fused kernel.

Running a batch instance by instance walks each program independently,
which leaves the vector units idle.  This module turns the batch inside
out.  It is the one C engine: a single loop runs here too, as a batch
of one.

* every per-instance block (params, state, mode coefficients, actuator
  constants) is **transposed** to structure-of-arrays — one contiguous
  row per op-parameter / state-slot, with the instance index (the
  *column*) as the fastest-moving, stride-1 axis;
* each program shape (op kinds, state layout, mode count) runs on its
  own **code-generated megakernel** (:func:`columnar_interpreter`),
  built on first use, once per shape per process, through the
  sha-keyed ``.so`` cache.  It loops **samples outer, instances
  inner**, and the whole op chain is one single-pass loop over the
  instance axis, split only at ``OP_TANH``, that the compiler
  auto-vectorizes (``-O3``, IEEE-strict: no fast-math,
  ``-ffp-contract=off`` so no FMA contraction; ``tanh`` stays the
  scalar libm call);
* the columns are dealt to one contiguous **block per C thread**
  (:func:`_thread_blocks`): blocks carry nearly equal sample sums, and
  each is non-increasing in sample count, so its *active prefix*
  shrinks as samples pass each instance's end and every inner sweep
  stays contiguous;
* waveforms are **packed by sample count**: column ``k``'s samples of
  each waveform start at ``off[k] = sum(round8(n_j) for j < k)``, and
  the kernel reads each instance's bridge noise from its own array, so
  memory follows what each instance computes, not the batch's width
  times its longest instance;
* output waveforms go through an 8-sample staging tile per instance,
  flushed to 64-byte-aligned result rows with non-temporal stores.

Contract: every instance of a columnar batch is **bit-identical** to its
reference-loop run, pinned with ``np.array_equal`` by
``tests/engine/test_kernel_columnar.py``.  Each lane runs the reference
``step()`` chain's exact per-sample operation sequence: FMA
contraction is off at every vector width, and the kernel calls scalar
libm ``tanh``.  glibc's vector ``tanh`` (libmvec) differs
from libm's in the last bits, so the kernel does not use it.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import KernelError
from .resilience import poll_fault
from .timing import StageTimer
from . import kernel as _k
from .kernel import (
    _N_PARAMS,
    OP_BIAS,
    OP_CLIP,
    OP_DEADZONE,
    OP_DIFF,
    OP_GAIN,
    OP_LATCH,
    OP_RC,
    OP_SLEW,
    OP_SOS,
    OP_TANH,
    OP_TAP_LIMIN,
    OP_TAP_LIMOUT,
    KernelRunInfo,
    KernelRunResult,
    record_batch,
    record_op_profile,
    record_run,
)

__all__ = [
    "ATOL_SCALE",
    "COLUMNAR_FLAGS",
    "RTOL",
    "columnar_interpreter",
    "max_ulp_distance",
    "run_columnar_cc",
]

# -- comparison tolerances ---------------------------------------------------------
#
# No engine relies on these: every kernel route, columnar included, is
# bit-exact to the reference loop.  They remain the documented tolerance for a
# harness that compares reduced columns (a relative tolerance plus an
# absolute floor scaled to the column's own peak, since waveform units
# span volts to nanometres), and max_ulp_distance() says how far apart
# two arrays are when a bit-exact check fails.

RTOL = 1e-9
ATOL_SCALE = 1e-12


# -- allocation --------------------------------------------------------------------
#
# Every buffer a run hands the kernel is allocated for that run through
# _aligned_rows(): the packed waveform rows, which escape as zero-copy
# result views, and the five 8-sample staging tiles and the value row
# the tanh split passes between segments, which are a few KB and never
# escape.  _tune_malloc() raises glibc's M_MMAP_THRESHOLD and
# M_TRIM_THRESHOLD once per process, so freed rows and a loop's own
# arrays go back to the heap and are reused there instead of being
# unmapped and zero-filled again, page fault by page fault, on the
# next run.  It pays on serial sweeps, which run one short batch per
# loop: eight 16-point serial sweeps at 0.1 s per point took 0.143 s
# each with it and 0.161 s without (medians, faster in 9 of 10
# alternating process rounds on a 2-vCPU Xeon), for 0.8 MB more peak
# RSS; 96-instance batches did not move beyond their spread.

_M_TRIM_THRESHOLD = -1   # glibc mallopt() parameter ids
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 64 << 20
_TRIM_THRESHOLD_BYTES = 128 << 20
_MALLOC_TUNED = False


def _aligned_rows(size: int) -> np.ndarray:
    """``size`` fresh float64s whose data pointer is 64-byte aligned.
    With every column offset a multiple of 8 doubles this puts every
    8-sample window of every instance on one whole cacheline — the
    property that lets the kernel flush output rows with non-temporal
    stores."""
    raw = np.empty(size + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + size]


def _tune_malloc() -> None:
    """One-shot glibc allocator tuning (no-op off glibc)."""
    global _MALLOC_TUNED
    if _MALLOC_TUNED:
        return
    _MALLOC_TUNED = True
    try:
        mallopt = ctypes.CDLL(None, use_errno=True).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def max_ulp_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Largest ULP distance between two float64 arrays (0 = identical).

    Monotonic integer reinterpretation of IEEE doubles; NaNs in
    matching positions count as 0, mismatched NaNs as a huge distance.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    ia = a.view(np.int64).copy()
    ib = b.view(np.int64).copy()
    # map negative floats to a monotonic integer line
    ia[ia < 0] = np.int64(-(2**63) + 1) - ia[ia < 0]
    ib[ib < 0] = np.int64(-(2**63) + 1) - ib[ib < 0]
    nan_a = np.isnan(a)
    nan_b = np.isnan(b)
    if np.any(nan_a != nan_b):
        return 2**62
    diff = np.abs(ia - ib)
    diff[nan_a & nan_b] = 0
    return int(diff.max()) if diff.size else 0


# -- SoA block assembly ------------------------------------------------------------


def _thread_blocks(ns: np.ndarray, threads: int) -> tuple:
    """Deal a batch's instances to ``threads`` contiguous column blocks.

    Returns ``(order, bounds)``: column ``c`` runs instance
    ``order[c]``, and block ``t`` is columns ``bounds[t]:bounds[t+1]``.
    The instances are dealt round-robin in descending sample count, so
    every block is non-increasing in ``n`` (the C worker's shrinking
    active prefix needs that) and two blocks' sample sums differ by at
    most the largest ``n``.  One thread makes one descending block.
    """
    desc = np.argsort(-ns, kind="stable")
    blocks = [desc[t::threads] for t in range(threads)]
    bounds = np.cumsum([0] + [len(b) for b in blocks], dtype=np.int64)
    return np.concatenate(blocks), bounds


@dataclass
class _Blocks:
    """One batch transposed to structure-of-arrays, in thread-block
    column order, with its waveforms packed by sample count."""

    order: np.ndarray        # column -> original instance index
    bounds: np.ndarray       # thread block t is columns bounds[t]:bounds[t+1]
    ns_sorted: np.ndarray    # per-column sample counts, non-increasing per block
    off: np.ndarray          # column -> start of its samples in a packed row
    size: int                # doubles in one packed row: sum of round8(n)
    n_inst: int
    n_ops: int
    n_state: int
    p_cols: tuple            # 5 x (n_ops, n_inst)
    state: np.ndarray        # (n_state, n_inst)
    mode_coef: np.ndarray    # (7*n_modes, n_inst)
    mode_state: np.ndarray   # (2*n_modes, n_inst)
    noise: np.ndarray        # (n_inst,) uintp: each column's noise array
    act: np.ndarray          # (3, n_inst): r, imax, force-per-ampere
    has_taps: bool


def _assemble(batch, threads: int) -> _Blocks:
    _tune_malloc()
    kernels = batch.kernels
    n_inst = batch.n_instances
    ns = np.asarray(batch.ns, dtype=np.int64)
    order, bounds = _thread_blocks(ns, threads)
    ns_sorted = ns[order]
    # every column starts on a cacheline: its full 8-sample windows
    # stream straight to memory
    spans = (ns_sorted + 7) & ~7
    off = np.cumsum(spans) - spans
    size = int(spans.sum())
    rep = kernels[0]
    n_ops, n_modes, n_state = rep.n_ops, len(rep.modes), rep.n_state

    params = np.asarray(
        [kernels[i]._params for i in order], dtype=float
    ).reshape(n_inst, n_ops, _N_PARAMS)
    p_cols = tuple(
        np.ascontiguousarray(params[:, :, j].T) for j in range(_N_PARAMS)
    )
    state = np.ascontiguousarray(np.asarray(
        [kernels[i]._state0 for i in order], dtype=float
    ).reshape(n_inst, n_state).T)
    mode_coef = np.ascontiguousarray(np.asarray(
        [[c for m in kernels[i].modes
          for c in (m.a11, m.a12, m.a21, m.a22, m.b1, m.b2, m.coef)]
         for i in order], dtype=float,
    ).reshape(n_inst, 7 * n_modes).T)
    mode_state = np.ascontiguousarray(np.asarray(
        [[c for m in kernels[i].modes for c in (m.x0, m.v0)]
         for i in order], dtype=float,
    ).reshape(n_inst, 2 * n_modes).T)
    # the kernel reads each column's noise in place, through one
    # pointer per column (the batch keeps the arrays alive)
    noise = np.array([batch.noises[i].ctypes.data for i in order],
                     dtype=np.uintp)
    act = np.ascontiguousarray(np.asarray(
        [[kernels[i].act_r, kernels[i].act_imax, kernels[i].act_fpc]
         for i in order], dtype=float,
    ).T)
    return _Blocks(
        order=order, bounds=bounds, ns_sorted=ns_sorted,
        off=off, size=size, n_inst=n_inst,
        n_ops=n_ops, n_state=n_state,
        p_cols=p_cols, state=state,
        mode_coef=mode_coef, mode_state=mode_state,
        noise=noise, act=act, has_taps=rep.has_taps,
    )


def _package(
    batch, blocks: _Blocks, rows: Sequence[np.ndarray],
    threads_used: int, timer: StageTimer,
) -> list:
    """Un-permute, slice, and sync the columnar outputs back to
    per-instance :class:`~repro.engine.kernel.KernelRunResult`\\ s.

    ``rows`` are the packed waveform rows the C kernel wrote — each
    instance's record is a zero-copy slice at its column's offset.
    """
    disp_r, bridge_r, limin_r, limout_r, drive_r = rows
    col_of = np.empty(blocks.n_inst, dtype=np.int64)
    col_of[blocks.order] = np.arange(blocks.n_inst)
    run_seconds = timer.seconds("run")
    compile_seconds = timer.seconds("compile")
    total = int(np.sum(blocks.ns_sorted))
    record_op_profile(batch.kernels[0]._kinds, total)
    results = []
    for i, kernel in enumerate(batch.kernels):
        col = int(col_of[i])
        n_i = batch.ns[i]
        start = int(blocks.off[col])
        span = slice(start, start + n_i)
        kernel._sync_stages([float(s) for s in blocks.state[:, col]])
        if blocks.has_taps:
            limin = limin_r[span]
            limout = limout_r[span]
            drive = drive_r[span]
        else:
            limin = limout = drive = np.zeros(n_i)
        info = KernelRunInfo(
            backend="fused",
            engine="cc-columnar",
            n_samples=n_i,
            n_ops=blocks.n_ops,
            n_state=blocks.n_state,
            lower_seconds=0.0,
            compile_seconds=compile_seconds if i == 0 else 0.0,
            run_seconds=run_seconds if i == 0 else 0.0,
        )
        record_run("fused", n_i, 0.0, compile_seconds)
        results.append(KernelRunResult(
            displacement=disp_r[span],
            bridge_voltage=bridge_r[span],
            limiter_input=limin,
            limiter_output=limout,
            drive_voltage=drive,
            mode_state=[float(s) for s in blocks.mode_state[:, col]],
            info=info,
        ))
    record_batch(
        batch.n_instances, threads_used, total, run_seconds, engine="columnar"
    )
    return results


# -- the compiled columnar megakernel ----------------------------------------------
#
# One kernel per program shape, generated from its op list (below).
# IEEE-strict: -O3 but no fast-math, FMA contraction off, tanh left as
# the scalar libm call — per-lane arithmetic is the exact reference
# sequence.

COLUMNAR_FLAGS = [
    "-O3", "-fPIC", "-shared", "-ffp-contract=off",
    "-fno-math-errno", "-pthread",
]

#: Tried first on every columnar build, dropped if the compiler rejects
#: it.  The ``.so`` cache is per-machine, so ISA tuning is safe — and
#: it does not change the arithmetic: ``-ffp-contract=off`` keeps FMA
#: contraction off at any vector width and ``tanh`` stays the scalar
#: libm call, so the sweeps produce bit-identical results (measured
#: ~25% faster on an AVX2 box).
NATIVE_FLAG = "-march=native"

_C_STRUCT = """
/* Structure-of-arrays layout: every 2-d block is row-major with the
 * column (instance) index k as the last, stride-1 axis.  Waveform rows
 * are packed instead: column k's samples start at off[k], a multiple
 * of 8; its noise is its own array, noise[k].  Each thread owns one
 * contiguous column
 * block [lo, hi) whose ns are non-increasing, so its still-running
 * instances are always a prefix that shrinks as the sample index
 * passes each instance's end. */

typedef struct {
    long lo, hi;                 /* this worker's column block */
    long n_inst;
    const long *ns, *off;
    const double *p0, *p1, *p2, *p3, *p4;
    double *state;
    const double *mode_coef;
    double *mode_state;
    const double *const *noise;  /* one array per column: [k][i] */
    const double *act;
    double *vbuf;
    /* 8-sample staging tiles, one window per instance: [k*8 + it] */
    double *stg_disp, *stg_bridge;
    double *stg_limin, *stg_limout, *stg_drive;
    /* packed result rows, 64-byte aligned: [off[k] + i] */
    double *row_disp, *row_bridge;
    double *row_limin, *row_limout, *row_drive;
} col_args;
"""

_C_ENTRY = """
void run_columnar(
    long n_inst, long n_blocks, const long *bounds,
    const long *ns, const long *off,
    const double *p0, const double *p1, const double *p2,
    const double *p3, const double *p4,
    double *state, const double *mode_coef, double *mode_state,
    const double *const *noise, const double *act, double *vbuf,
    double *stg_disp, double *stg_bridge,
    double *stg_limin, double *stg_limout, double *stg_drive,
    double *row_disp, double *row_bridge,
    double *row_limin, double *row_limout, double *row_drive)
{
    /* one thread per non-empty block [bounds[t], bounds[t + 1]);
     * n_blocks <= 64 (MAX_BATCH_THREADS) */
    col_args args[64];
    pthread_t tids[64];
    long nt = 0;
    for (long t = 0; t < n_blocks && t < 64; t++) {
        long lo = bounds[t], hi = bounds[t + 1];
        if (lo >= hi) continue;
        col_args a = { lo, hi, n_inst, ns, off,
            p0, p1, p2, p3, p4,
            state, mode_coef, mode_state, noise, act, vbuf,
            stg_disp, stg_bridge, stg_limin, stg_limout, stg_drive,
            row_disp, row_bridge, row_limin, row_limout, row_drive };
        args[nt++] = a;
    }
    long launched = 0;
    for (long t = 1; t < nt; t++) {
        if (pthread_create(&tids[launched], 0, col_worker, &args[t]) != 0)
            col_worker(&args[t]);       /* spawn failed: run inline */
        else
            launched++;
    }
    col_worker(&args[0]);
    for (long t = 0; t < launched; t++)
        pthread_join(tids[t], 0);
}
"""


# -- the generated kernel body -----------------------------------------------------
#
# Dispatching on op kind inside the sample loop would make the kernel
# dispatch bound, not arithmetic bound.  So the engine *generates* the
# body for one program shape: the whole op chain runs as one
# single-pass vector loop over the instance axis, split only at OP_TANH
# (the lone transcendental).  Each segment is a noinline function
# taking every row as its own ``restrict`` parameter — that is what
# lets GCC vectorize without runtime alias versioning (derived pointers
# off one base defeat its alias budget).  The tanh segment calls scalar
# libm ``tanh`` lane by lane: glibc's libmvec vector ``tanh`` differs
# from it in the last bits, which would break the bit-exact contract.
# Every segment keeps the exact per-sample arithmetic order of the
# reference ``step()`` chain, with clamps rewritten as NaN-equivalent
# ternaries so the bodies stay branch-free.
#
# Memory traffic is the kernel's budget.  It reads each instance's
# bridge noise from that instance's own array, through one pointer per
# column (``nzi[k][i]`` — a gather, L1-resident since each line covers
# 8 consecutive samples of one instance), so no copy of the noise is
# ever made.  Output waveforms go
# through an 8-sample staging tile per instance (``stg[k*8 + it]`` —
# one cacheline per waveform per instance, about 5 KB of L1 at 16
# instances) that is flushed to the packed rows once per tile with
# non-temporal stores.  The rows are freshly allocated every run (they
# escape as zero-copy result views), so every row line is cold: a
# cached store would pay read-for-ownership on all of them, while
# streaming stores retire straight to memory.  This only works because
# the rows are 64-byte aligned and every column starts at a multiple of
# 8 doubles — every full window is exactly one whole cacheline.
# Measured against plain row-direct stores into unaligned rows packed
# without the round8 spacing (2-vCPU Xeon, 8 alternating process
# rounds): a 96-instance batch of 0.1 s loops took 0.121 s of C time
# against 0.200 s, and its 96-point sweep 0.453 s against 0.509 s, both
# faster in 8 of 8 rounds.

_SPEC_HEADER = """
#include <math.h>
#include <pthread.h>

#define NI __attribute__((noinline))

/* Flush one instance's 8-sample staging window to its packed row.
 * Rows are 64-byte aligned and every column starts at a multiple of 8
 * doubles, so every full window lands on one whole cacheline and can
 * be streamed non-temporally — the stores retire without the
 * read-for-ownership a cached store to a never-re-read line pays.
 * Partial windows (instance tails) fall back to plain stores. */
#if defined(__x86_64__) && defined(__SSE2__)
#include <immintrin.h>
static inline void col_flush8(const double *restrict s,
    double *restrict d, long n)
{
    if (n == 8) {
#ifdef __AVX__
        _mm256_stream_pd(d,     _mm256_loadu_pd(s));
        _mm256_stream_pd(d + 4, _mm256_loadu_pd(s + 4));
#else
        _mm_stream_pd(d,     _mm_loadu_pd(s));
        _mm_stream_pd(d + 2, _mm_loadu_pd(s + 2));
        _mm_stream_pd(d + 4, _mm_loadu_pd(s + 4));
        _mm_stream_pd(d + 6, _mm_loadu_pd(s + 6));
#endif
    } else {
        for (long t = 0; t < n; t++) d[t] = s[t];
    }
}
static inline void col_sfence(void) { _mm_sfence(); }
#else
static inline void col_flush8(const double *restrict s,
    double *restrict d, long n)
{
    for (long t = 0; t < n; t++) d[t] = s[t];
}
static inline void col_sfence(void) { (void)0; }
#endif
"""

_TANH_FUNC = """
NI static void col_tanhseg(long lo, long hi, double *restrict v,
    const double *restrict q0, const double *restrict q1)
{
    for (long k = lo; k < hi; k++)
        v[k] = q1[k]*tanh(q0[k]*v[k]/q1[k]);
}
"""


def _generate_specialized_source(
    kinds: Sequence[int], sidx: Sequence[int], n_modes: int,
) -> str:
    """Emit the megakernel for one program shape: op chains fused into
    single-pass vector loops, split at OP_TANH, behind the
    ``run_columnar`` entry point."""

    # split the op list into chains at every tanh
    chains: list[list[int]] = [[]]
    tanhs: list[int] = []
    for jj, kind in enumerate(kinds):
        if kind == OP_TANH:
            tanhs.append(jj)
            chains.append([])
        else:
            chains[-1].append(jj)
    n_c = len(chains)
    with_v = n_c > 1

    def row(params: dict, name: str, expr: str, const: bool,
            ctype: str = "double") -> str:
        p = params.get(name)
        if p is None:
            params[name] = {"expr": expr, "const": const, "ctype": ctype}
        elif not const:
            p["const"] = False
        return name

    def emit_op(params: dict, jj: int) -> list:
        k = kinds[jj]

        def q(p):
            return row(params, f"q{p}_{jj}", f"a->p{p} + {jj}*ni", True)

        def s(off=0):
            r = int(sidx[jj]) + off
            return row(params, f"s{r}", f"a->state + {r}*ni", False)

        if k == OP_BIAS:
            return [f"x = x + {q(0)}[k];"]
        if k == OP_GAIN:
            return [f"x = x * {q(0)}[k];"]
        if k == OP_SOS:
            s1, s2 = s(0), s(1)
            return [
                "{",
                f"    double y = {q(0)}[k]*x + {s1}[k];",
                f"    {s1}[k] = {q(1)}[k]*x - {q(3)}[k]*y + {s2}[k];",
                f"    {s2}[k] = {q(2)}[k]*x - {q(4)}[k]*y;",
                "    x = y;",
                "}",
            ]
        if k == OP_RC:
            s1 = s()
            return [
                "{",
                f"    double t = {s1}[k];",
                f"    t = t + {q(0)}[k]*(x - t);",
                f"    {s1}[k] = t;",
                "    x = t;",
                "}",
            ]
        if k == OP_CLIP:
            return [
                f"x = (x < {q(0)}[k]) ? {q(0)}[k] : x;",
                f"x = (x > {q(1)}[k]) ? {q(1)}[k] : x;",
            ]
        if k == OP_DIFF:
            s1 = s()
            return [
                "{",
                f"    double y = (x - {s1}[k])*{q(0)}[k];",
                f"    {s1}[k] = x;",
                "    x = y;",
                "}",
            ]
        if k == OP_DEADZONE:
            return [
                f"x = (x <= {q(0)}[k] && x >= {q(1)}[k]) ? 0.0"
                f" : ((x > 0.0) ? x - {q(0)}[k] : x - {q(1)}[k]);",
            ]
        if k == OP_SLEW:
            s1 = s()
            return [
                "{",
                f"    double d = x - {s1}[k];",
                f"    x = (d > {q(0)}[k]) ? {s1}[k] + {q(0)}[k]"
                f" : ((d < {q(1)}[k]) ? {s1}[k] + {q(1)}[k] : x);",
                f"    {s1}[k] = x;",
                "}",
            ]
        if k == OP_LATCH:
            return [f"{s()}[k] = x;"]
        if k == OP_TAP_LIMIN:
            o = row(params, "sli", "a->stg_limin", False)
            return [f"{o}[k*8 + it] = x;"]
        if k == OP_TAP_LIMOUT:
            o = row(params, "slo", "a->stg_limout", False)
            return [f"{o}[k*8 + it] = x;"]
        o = row(params, "sdr", "a->stg_drive", False)
        return [f"{o}[k*8 + it] = x;"]  # OP_TAP_DRIVE

    def emit_bridge(params: dict) -> list:
        # one pointer per column, to that instance's own noise array
        nz = row(params, "nzi", "a->noise", True, "double *const")
        ob = row(params, "sbr", "a->stg_bridge", False)
        bc0 = row(params, "bc0", "a->mode_coef + 6*ni", True)
        mx0 = row(params, "mx0", "a->mode_state", True)
        lines = []
        if n_modes == 1:
            lines.append(f"double x = {bc0}[k]*{mx0}[k] + {nz}[k][i];")
        else:
            lines.append(f"double x = {bc0}[k]*{mx0}[k];")
            for m in range(1, n_modes):
                bcm = row(params, f"bc{m}", f"a->mode_coef + {7*m+6}*ni", True)
                mxm = row(params, f"mx{m}", f"a->mode_state + {2*m}*ni", True)
                lines.append(f"x = x + {bcm}[k]*{mxm}[k];")
            lines.append(f"x = x + {nz}[k][i];")
        lines.append(f"{ob}[k*8 + it] = x;")
        return lines

    def emit_epilogue(params: dict) -> list:
        ar = row(params, "ar", "a->act", True)
        ai = row(params, "ai", "a->act + ni", True)
        af = row(params, "af", "a->act + 2*ni", True)
        od = row(params, "sdi", "a->stg_disp", False)
        lines = [
            f"double cur = x/{ar}[k];",
            f"cur = (cur > {ai}[k]) ? {ai}[k] : cur;",
            f"cur = (cur < -{ai}[k]) ? -{ai}[k] : cur;",
            f"double f = {af}[k]*cur;",
        ]
        for m in range(n_modes):
            c = [
                row(params, f"c{p}_{m}", f"a->mode_coef + {7*m+p}*ni", True)
                for p in range(6)
            ]
            suffix = "" if m == 0 else f" + {2*m}*ni"
            mx = row(params, f"mx{m}", f"a->mode_state{suffix}", False)
            mv = row(params, f"mv{m}", f"a->mode_state + {2*m+1}*ni", False)
            lines += [
                "{",
                f"    double x0 = {mx}[k];",
                f"    double v0 = {mv}[k];",
                f"    {mx}[k] = {c[0]}[k]*x0 + {c[1]}[k]*v0 + {c[4]}[k]*f;",
                f"    {mv}[k] = {c[2]}[k]*x0 + {c[3]}[k]*v0 + {c[5]}[k]*f;",
                "}",
            ]
        lines.append(f"{od}[k*8 + it] = mx0[k];")
        return lines

    # One parameter registry per segment: every row a segment touches is
    # its own ``restrict`` parameter of that noinline function — derived
    # pointers off one shared base defeat GCC's alias-versioning budget,
    # separate restrict parameters do not.  One noinline call per segment
    # per sample measured ~35% faster than merging the chain bodies into
    # a single function containing the sample loop, even though the
    # merged form vectorizes identically.
    seg_params: list[dict] = []
    chain_bodies: list[list] = []
    for t, chain in enumerate(chains):
        params: dict = {}
        body: list = []
        if t == 0:
            body += emit_bridge(params)
        else:
            body.append("double x = v[k];")
        for jj in chain:
            body += emit_op(params, jj)
        if t == n_c - 1:
            body += emit_epilogue(params)
        else:
            body.append("v[k] = x;")
        seg_params.append(params)
        chain_bodies.append(body)

    # worker-level hoists: same name in two segments is the same row
    # (names encode the op/state index), so constness merges non-const
    # wins
    hoist: dict = {}
    for params in seg_params:
        for name, p in params.items():
            h = hoist.setdefault(name, dict(p))
            if not p["const"]:
                h["const"] = False
    for t, jj in enumerate(tanhs):
        hoist[f"tq0_{t}"] = {"expr": f"a->p0 + {jj}*ni", "const": True,
                             "ctype": "double"}
        hoist[f"tq1_{t}"] = {"expr": f"a->p1 + {jj}*ni", "const": True,
                             "ctype": "double"}

    funcs: list[str] = []
    calls: list[str] = []
    for t, (params, body) in enumerate(zip(seg_params, chain_bodies)):
        sig = ["long lo", "long hi", "long i", "long it"]
        args = ["lo", "hi", "i", "it"]
        if with_v:
            sig.append("double *restrict v")
            args.append("v")
        for name, p in params.items():
            const = "const " if p["const"] else ""
            sig.append(f"{const}{p['ctype']} *restrict {name}")
            args.append(name)
        funcs.append("\n".join([
            f"NI static void seg{t}(",
            "    " + ",\n    ".join(sig) + ")",
            "{",
            "    (void)i; (void)it;",
            "    for (long k = lo; k < hi; k++) {",
            *["        " + ln for ln in body],
            "    }",
            "}",
        ]))
        calls.append(f"seg{t}(" + ", ".join(args) + ");")
        if t < len(tanhs):
            calls.append(f"col_tanhseg(lo, hi, v, tq0_{t}, tq1_{t});")

    # staging name -> destination row matrix for the per-tile flush
    flush_rows = {"sdi": "a->row_disp", "sbr": "a->row_bridge",
                  "sli": "a->row_limin", "slo": "a->row_limout",
                  "sdr": "a->row_drive"}

    w = [
        "static void *col_worker(void *argp)",
        "{",
        "    col_args *a = (col_args *)argp;",
        "    const long ni = a->n_inst;",
        "    const long lo = a->lo;",
        "    long hi = a->hi;",
        "    const long *ns = a->ns;",
        "    const long *off = a->off;",
        "    const long n_i = ns[lo];         /* block max (non-increasing) */",
        "    (void)ni;",
    ]
    if with_v:
        w.append("    double *v = a->vbuf;")
    for name, h in hoist.items():
        const = "const " if h["const"] else ""
        w.append(f"    {const}{h['ctype']} *{name} = {h['expr']};")
    active_flush = [n for n in flush_rows if n in hoist]
    for name in active_flush:
        w.append(f"    double *{name}_r = {flush_rows[name]};")
    w += [
        "    for (long i0 = 0; i0 < n_i; i0 += 8) {",
        "        const long iend = i0 + 8 < n_i ? i0 + 8 : n_i;",
        "        const long hi0 = hi;   /* instances live at tile start */",
        "        for (long i = i0; i < iend; i++) {",
        "            while (hi > lo && ns[hi - 1] <= i) hi--;",
        "            const long it = i - i0;",
        *[f"            {c}" for c in calls],
        "        }",
        "        for (long k = lo; k < hi0; k++) {",
        "            const long ke = ns[k] < iend ? ns[k] : iend;",
        "            const long nv = ke - i0;",
        "            if (nv <= 0) continue;",
        *[f"            col_flush8({n} + k*8, {n}_r + off[k] + i0, nv);"
          for n in active_flush],
        "        }",
        "    }",
        "    col_sfence();",
        "    return 0;",
        "}",
    ]

    parts = [
        f"/* columnar megakernel: kinds={list(map(int, kinds))}",
        f"   sidx={list(map(int, sidx))} n_modes={n_modes} */",
        _SPEC_HEADER,
        _C_STRUCT,
    ]
    if tanhs:
        parts.append(_TANH_FUNC)
    parts += ["\n".join(funcs), "\n".join(w), _C_ENTRY]
    return "\n".join(parts)


#: The loaded megakernels, keyed by program shape (``batch_signature``).
_ENGINES: dict[tuple, Callable] = {}
_LOCK = threading.Lock()


def _reset_engine() -> None:
    """Forget the loaded megakernels (reset_compiler_probe hook)."""
    with _LOCK:
        _ENGINES.clear()


def _build_so(source: str, flags: Sequence[str], stem: str) -> Callable:
    """Compile + wrap one megakernel's 26-argument ``run_columnar``
    entry point."""
    lib = _k._cc_compile_so(source, list(flags), stem)
    dbl = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    idx = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    ptrs = np.ctypeslib.ndpointer(dtype=np.uintp, flags="C_CONTIGUOUS")
    lib.run_columnar.restype = None
    lib.run_columnar.argtypes = (
        [ctypes.c_long] * 2     # n_inst, n_blocks
        + [idx] * 3             # bounds, ns, off
        + [dbl] * 5             # p0..p4
        + [dbl] * 3             # state, mode_coef, mode_state
        + [ptrs]                # noise: one array pointer per column
        + [dbl] * 2             # act, vbuf
        + [dbl] * 5             # the five 8-sample staging tiles
        + [dbl] * 5             # the five packed waveform rows
    )
    raw = lib.run_columnar

    def run(*args):
        raw(*args)

    run._lib = lib  # keep the CDLL alive alongside the wrapper
    return run


def _build_so_tuned(source: str, flags: Sequence[str], stem: str) -> Callable:
    """:func:`_build_so` with :data:`NATIVE_FLAG` first, plain retry."""
    try:
        return _build_so(source, [*flags, NATIVE_FLAG], stem)
    except KernelError:
        return _build_so(source, flags, stem)


def columnar_interpreter(signature: tuple) -> Callable:
    """The compiled megakernel for one program shape.

    ``signature`` is the batch's
    :func:`~repro.engine.kernel.batch_signature`.  Each shape is built
    once per process (``.so`` cached on disk, keyed by its source).
    Under the C engine's trust machinery: an injected
    ``kernel.compile`` fault raises per its plan and is never memoized,
    and a real build failure is memoized into the module-wide
    ``cc_build_error`` (a compiler that cannot build one kernel source
    cannot build another).  On :class:`KernelError`,
    :meth:`KernelBatch.run` declines, and the loops run the reference
    loop.
    """
    if poll_fault("kernel.compile") is not None:
        raise KernelError("injected fault at kernel.compile")
    if _k._CC_BUILD_ERROR is not None:
        raise KernelError(_k._CC_BUILD_ERROR)
    fn = _ENGINES.get(signature)
    if fn is None:
        if not _k.cc_available():
            raise KernelError("no C compiler on PATH")
        kinds, sidx, n_modes, _ = signature
        with _LOCK:
            fn = _ENGINES.get(signature)
            if fn is None:
                try:
                    fn = _build_so_tuned(
                        _generate_specialized_source(kinds, sidx, n_modes),
                        COLUMNAR_FLAGS, "columnar",
                    )
                except KernelError as err:
                    _k._CC_BUILD_ERROR = str(err)
                    raise
                _ENGINES[signature] = fn
    return fn


def run_columnar_cc(batch, fn, threads_used: int, timer: StageTimer) -> list:
    """Run a batch on its shape's megakernel (engine tag ``cc-columnar``).

    ``fn`` is what :func:`columnar_interpreter` returned for the
    :class:`~repro.engine.kernel.KernelBatch`'s signature.
    """
    blocks = _assemble(batch, threads_used)
    n_inst = blocks.n_inst
    # each staging tile holds one 8-sample window per instance, [k*8 + it]
    waves = 5 if blocks.has_taps else 2
    stg = [_aligned_rows(n_inst * 8) for _ in range(waves)]
    rows = [_aligned_rows(blocks.size) for _ in range(waves)]
    stg += [np.zeros(1) for _ in range(5 - waves)]
    rows += [np.zeros(1) for _ in range(5 - waves)]
    vbuf = _aligned_rows(n_inst)
    with timer.stage("run"):
        fn(
            n_inst, len(blocks.bounds) - 1, blocks.bounds,
            blocks.ns_sorted, blocks.off,
            *blocks.p_cols,
            blocks.state, blocks.mode_coef, blocks.mode_state,
            blocks.noise, blocks.act, vbuf, *stg, *rows,
        )
    return _package(batch, blocks, rows, threads_used, timer)
