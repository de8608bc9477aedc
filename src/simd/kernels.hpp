// Per-backend kernel tables for the SIMD-dispatched hot paths.
//
// Four layers go through these tables:
//   * the in-place radix-4 butterfly stages (fft/inplace_radix2.cpp), which
//     run every power-of-two fft::Fft from 512 points up,
//   * the recursive executor's combine loop and the size-4/8/16 leaf
//     codelets (fft/executor.cpp, dft/codelets.cpp),
//   * the stride-1 checksum dot products (checksum/dot.cpp) and the slot
//     checksum fold of the memory-FT bookkeeping (CMCG, the section-4.3
//     column sums, the sharded FFT1 fold),
//   * the table-driven DMR twiddle multiply between the ABFT layers
//     (abft/dmr.cpp).
//
// Each backend TU (kernels_scalar.cpp, kernels_avx2.cpp, kernels_neon.cpp)
// fills one static table; the getters below return nullptr when the backend
// is not compiled into this binary. The runtime dispatcher (dispatch.cpp)
// picks one table per process; callers fetch it through
// simd::fft_kernels() / simd::checksum_kernels().
#pragma once

#include <cstddef>
#include <cstdint>

#include "checksum/dot.hpp"
#include "common/complex.hpp"

namespace ftfft::simd {

/// Read-only view of the two-table twiddle factorization (abft::
/// TwiddleTables): omega_n^j == hi[c][j >> shift] * lo[c][j & (2^shift - 1)]
/// for every j < n, with c = 0 / 1 selecting one of two separately
/// allocated, value-identical table pairs.
struct TwiddleTableView {
  const cplx* hi[2];
  const cplx* lo[2];
  unsigned shift;
  std::size_t n;
};

/// Callback given copy 1 of a DMR twiddle multiply before it is verified
/// (the fault injector's kTwiddleDmrCopy strike).
using TwiddleHook = void (*)(void* ctx, cplx* data, std::size_t n);

/// Stride-1 checksum reductions. Semantics match the checksum::* functions
/// of the same name with stride == 1; see checksum/dot.hpp.
struct ChecksumKernels {
  cplx (*weighted_sum)(const cplx* w, const cplx* x, std::size_t n);
  checksum::DualSum (*dual_weighted_sum)(const cplx* w, const cplx* x,
                                         std::size_t n);
  double (*energy)(const cplx* x, std::size_t n);
  checksum::SumEnergy (*weighted_sum_energy)(const cplx* w, const cplx* x,
                                             std::size_t n);
  /// weighted_sum_energy of the stream x[idx[0]], x[idx[1]], ...: bitwise
  /// that sweep over the gathered copy, so a buffer held in permuted order
  /// (a bit-reversed staged sub-FFT input) is summed in natural order.
  checksum::SumEnergy (*weighted_sum_energy_at)(const cplx* w, const cplx* x,
                                                const std::uint32_t* idx,
                                                std::size_t n);
  checksum::DualSumEnergy (*dual_weighted_sum_energy)(const cplx* w,
                                                      const cplx* x,
                                                      std::size_t n);
  cplx (*omega3_weighted_sum)(const cplx* x, std::size_t n);
  /// dst = src copied in one pass, fused with the all-ones dual checksum and
  /// the energy of the stream (stored to *energy unless null). Keeps the
  /// exact accumulator structures of dual_weighted_sum(nullptr, ...) and
  /// energy(), so both are bit-identical to the separate sweeps on the same
  /// backend — the parallel six-step path uses this so the transpose
  /// message checksum and its threshold scale ride the pack/unpack copy
  /// instead of re-reading the block (the staging-copy trick applied to
  /// communication).
  checksum::DualSum (*copy_dual_sum)(cplx* dst, const cplx* src,
                                     std::size_t n, double* energy);
  /// out[m] = sum_j u_j^m * w_j * x_j for m in [0, moments), the 2t moment
  /// sums of the multi-error syndromes (checksum/multi_error.hpp). nodes2 is
  /// the duplicated node table from shared_syndrome_nodes(n); w == nullptr
  /// means all-ones. moments <= 8.
  void (*syndrome_dot)(const cplx* w, const cplx* x, const double* nodes2,
                       std::size_t n, int moments, cplx* out);
  /// checksum::fold_row. Every product is rounded before its add
  /// (cmul_nofma, scale_nofma, add_norm2_to) and a vector backend's odd
  /// tail lane runs in the contraction-pinned scalar TU, so the slots are
  /// bitwise equal across backends and to the plain per-element loop.
  void (*fold_row)(const cplx* row, std::size_t width, const cplx* w,
                   double r, cplx* a1, cplx* a2, double* e);
  /// checksum::plain_sum at stride 1: the strided loop's four add chains
  /// held lane by lane, so bitwise equal to it on every backend.
  cplx (*plain_sum)(const cplx* x, std::size_t n);
};

/// FFT butterfly/combine kernels.
struct FftKernels {
  /// Twiddle-free radix-2 pass over adjacent pairs (the odd-log2n opener of
  /// the fused in-place schedule). Identical forward and inverse.
  void (*radix2_stage0)(cplx* data, std::size_t n);
  /// Out-of-place radix2_stage0: dst = opener(src), dst/src disjoint, n even.
  /// Used by the COBRA permutation to fuse the opener into tile write-back.
  void (*radix2_stage0_from)(cplx* dst, const cplx* src, std::size_t n);
  /// First fused radix-4 stage (len == 4, unit twiddles) over contiguous
  /// quadruples.
  void (*radix4_first_stage)(cplx* data, std::size_t n, bool inverse);
  /// Out-of-place radix4_first_stage: dst = stage(src), dst/src disjoint,
  /// n a multiple of 4 (COBRA fused-opener write-back, even log2n).
  void (*radix4_first_stage_from)(cplx* dst, const cplx* src, std::size_t n,
                                  bool inverse);
  /// One fused radix-4 stage of block length `len` (>= 8) over data[0..n).
  /// w1/w2 are the per-butterfly twiddles packed contiguously in j
  /// (quarter = len/4 entries each, forward values; the kernel conjugates
  /// for the inverse). `scale` multiplies every output (real factor, fused
  /// 1/n normalization of the final inverse stage); 1.0 is a no-op.
  void (*radix4_stage)(cplx* data, std::size_t n, std::size_t len,
                       const cplx* w1, const cplx* w2, bool inverse,
                       double scale);
  /// One fused radix-16 stage — two consecutive radix-4 stages (four
  /// radix-2 levels) performed while the sixteen len/16-strided elements
  /// sit in registers — of block length `len` (>= 16 * width) over
  /// data[0..n). w1a/w2a are the inner stage's packed twiddles (len/16
  /// entries each, the stage of block length len/4), w1b/w2b the outer
  /// stage's (len/4 entries each): exactly the runs radix4_stage would
  /// load for the two stages separately, so the fused pass is bit-identical
  /// to them — each butterfly keeps the same cmul orientation and the same
  /// structural +/-i rotation, which is what FMA backends need for
  /// bit-equality (a pre-rotated twiddle would round differently under
  /// fmaddsub). The kernel conjugates for the inverse; `scale` as in
  /// radix4_stage.
  void (*radix16_stage)(cplx* data, std::size_t n, std::size_t len,
                        const cplx* w1a, const cplx* w2a, const cplx* w1b,
                        const cplx* w2b, bool inverse, double scale);
  /// Cooley-Tukey combine: for every k1 in [0,m) an r-point DFT across the
  /// column out[(k1 + m*t1) * os] with twiddles tw[(t1-1)*m + k1], written
  /// back to the same index set. r <= 64.
  void (*combine)(cplx* out, std::size_t os, std::size_t m, std::size_t r,
                  const cplx* tw);
  /// Strided-input, contiguous-output leaf codelets (os == 1). nullptr means
  /// "use the scalar codelet"; only backends with width > 1 provide them.
  void (*dft4)(const cplx* in, std::size_t is, cplx* out);
  void (*dft8)(const cplx* in, std::size_t is, cplx* out);
  void (*dft16)(const cplx* in, std::size_t is, cplx* out);
  // ---- Real-transform post-pass (PR 8). One streaming Hermitian sweep
  // converts between the nc-point complex transform of the packed real
  // signal and the nc+1 half-spectrum (see fft/real_fft.hpp for the
  // layout). All arithmetic is elementwise add/sub/conj/±i-rotation plus
  // cmul_nofma, so dst is bitwise identical across every backend — the
  // scalar TU (contraction pinned off) is the reference the others equal,
  // not just approximate.
  /// Unpack: dst[0..nc] = half-spectrum of the length-2*nc real signal
  /// whose packed nc-point transform is src[0..nc). wq holds omega(2*nc, k)
  /// for k = 0..nc/2. dst may alias src (dst must have nc+1 slots).
  void (*r2c_finalize)(cplx* dst, const cplx* src, std::size_t nc,
                       const cplx* wq);
  /// Pack: dst[0..nc) = nc-point spectrum whose inverse transform
  /// interleaves to the real signal with half-spectrum src[0..nc]
  /// (the exact inverse of r2c_finalize). `conjugate` writes conj(dst)
  /// instead — the protected path rides the conjugate-forward-conjugate
  /// inverse. dst/src must not overlap.
  void (*c2r_prepare)(cplx* dst, const cplx* src, std::size_t nc,
                      const cplx* wq, bool conjugate);
  /// Final radix-4 butterfly stage of the packed forward (block length ==
  /// nc, i.e. the whole array is one block) fused with the r2c Hermitian
  /// unpack: dst[0..nc) holds the pre-stage data on entry and the nc+1
  /// half-spectrum on exit (slot nc is written; dst needs nc+1 slots).
  /// Butterfly j and its mirror nc/4 - j emit the eight spectrum entries of
  /// four complete Hermitian pairs, so the unpack consumes the butterfly
  /// outputs while they are still in registers and the separate
  /// r2c_finalize sweep — a whole read+write pass over the array —
  /// disappears. w1/w2 are the stage's packed twiddles (nc/4 entries each,
  /// exactly what radix4_stage would load), wq as in r2c_finalize. nc >= 8.
  /// Butterfly op order matches radix4_stage, unpack op order matches
  /// r2c_finalize; only the pairing of loop iterations differs, so accuracy
  /// is that of the unfused pair of kernels.
  void (*r2c_last_stage4)(cplx* dst, std::size_t nc, const cplx* w1,
                          const cplx* w2, const cplx* wq);
  /// Same fusion for a schedule whose final pass is the fused radix-16
  /// stage (two radix-4 stages, len == nc): group j pairs with group
  /// nc/16 - j, covering sixteen Hermitian pairs per group pair. w1a/w2a
  /// inner, w1b/w2b outer twiddle packs as in radix16_stage. nc >= 32.
  void (*r2c_last_stage16)(cplx* dst, std::size_t nc, const cplx* w1a,
                           const cplx* w2a, const cplx* w1b, const cplx* w2b,
                           const cplx* wq);
  // ---- Table-driven DMR twiddle multiply (the stage between the ABFT
  // layers, paper section 3.1; contract and tables in abft/dmr.hpp).
  /// dst[i] = src[i*stride] * omega_n^(j0 + i*step) for i < len, with
  /// j0 + (len-1)*step < t.n (the caller checks). Each twiddle is
  /// cmul_nofma(hi, lo) and the product cmul_nofma(src, twiddle), so dst is
  /// bitwise identical across every backend; remainder lanes and the vote
  /// run in the contraction-pinned scalar TU.
  /// redundant == false: one write pass over table pair 0 (src may equal
  /// dst; hook and cw are ignored). Returns 0.
  /// redundant == true (src/dst must not overlap): copy 1 is evaluated from
  /// pair 0 and copy 2 from pair 1 — the two evaluations never read the
  /// same table word — and compared lane by lane. With a hook, copy 1 is
  /// written to dst and handed to it first, then a second pass recomputes
  /// copy 2 in registers against the stored copy; without one, a single
  /// pass evaluates both copies in registers and stores copy 1. Any
  /// disagreement sends the run through the scalar TU once more: every
  /// mismatching element is settled by majority vote against a third,
  /// table-free evaluation of the same formula (the entries recomputed),
  /// so a fault in either copy or in either table pair is repaired bitwise
  /// to the clean value. Returns the number of mismatching elements. When
  /// cw is non-null, *se receives sum_i cw[i]*dst[i] and sum_i |dst[i]|^2
  /// over the verified outputs, with the exact accumulator structure of
  /// weighted_sum_energy (bit-identical to that sweep on the same backend).
  /// perm (redundant only; an involution, len even) stores the verified
  /// element i at dst[perm[i]] — the bit-reversed input order of the next
  /// sub-FFT — while the hook, the vote and the sums still see natural
  /// order: without a hook copy 1 is stored permuted from registers, and a
  /// hooked or voted run is permuted after its vote.
  std::size_t (*dmr_twiddle)(const cplx* src, std::size_t stride, cplx* dst,
                             std::size_t len, std::size_t j0,
                             std::size_t step, const TwiddleTableView& t,
                             bool redundant, TwiddleHook hook, void* hook_ctx,
                             const cplx* cw, checksum::SumEnergy* se,
                             const std::uint32_t* perm);
};

/// Backend tables. A getter returns nullptr when that backend is not
/// compiled into the binary (wrong ISA, FTFFT_DISABLE_AVX2, ...).
const ChecksumKernels* scalar_checksum_kernels();
const FftKernels* scalar_fft_kernels();
const ChecksumKernels* avx2_checksum_kernels();
const FftKernels* avx2_fft_kernels();
const ChecksumKernels* neon_checksum_kernels();
const FftKernels* neon_fft_kernels();

/// Reference scalar combine over columns [k1_begin, k1_end): the loop the
/// executor ran before dispatch existed. Shared by the scalar table and by
/// the vector kernels' remainder/odd-radix fallbacks.
void scalar_combine_columns(cplx* out, std::size_t os, std::size_t m,
                            std::size_t r, const cplx* tw,
                            std::size_t k1_begin, std::size_t k1_end);

/// Reference scalar radix-2 pair pass over data[begin..end) (begin/end are
/// element indices, must be even).
void scalar_radix2_stage0_range(cplx* data, std::size_t begin,
                                std::size_t end);

/// Reference scalar first fused radix-4 stage over blocks [begin, end).
void scalar_radix4_first_stage_range(cplx* data, std::size_t begin,
                                     std::size_t end, bool inverse);

/// Out-of-place reference openers over [begin, end) (remainder fallbacks of
/// the vector backends' *_from kernels).
void scalar_radix2_stage0_from_range(cplx* dst, const cplx* src,
                                     std::size_t begin, std::size_t end);
void scalar_radix4_first_stage_from_range(cplx* dst, const cplx* src,
                                          std::size_t begin, std::size_t end,
                                          bool inverse);

/// Reference Hermitian pair sweep of r2c_finalize over k in [begin, end)
/// (1 <= begin, end <= nc/2; each k also writes the mirror nc-k). Lives in
/// the contraction-pinned scalar TU so the vector backends' remainder pairs
/// round exactly like the reference.
void scalar_r2c_finalize_range(cplx* dst, const cplx* src, std::size_t nc,
                               const cplx* wq, std::size_t begin,
                               std::size_t end);

/// Reference fold_row over slots [begin, end) (the vector backends' odd
/// tail lane).
void scalar_fold_row_range(const cplx* row, std::size_t begin,
                           std::size_t end, const cplx* w, double r,
                           cplx* a1, cplx* a2, double* e);

/// Reference pair sweep of c2r_prepare over k in [begin, end).
void scalar_c2r_prepare_range(cplx* dst, const cplx* src, std::size_t nc,
                              const cplx* wq, bool conjugate,
                              std::size_t begin, std::size_t end);

/// One twiddle-table entry omega_n^k, evaluated in extended precision and
/// rounded to double (more accurate than omega(), whose angle rounding
/// dominates at large n). The table builder and the vote's third
/// evaluation both call this, so their bits agree.
cplx twiddle_table_entry(std::size_t n, std::uint64_t k);

/// Reference scalar table twiddle omega_n^j from table pair `copy`
/// (cmul of the hi and lo entries, contraction pinned off).
cplx scalar_table_twiddle(const TwiddleTableView& t, int copy, std::size_t j);

/// The table-free third evaluation: the same hi * lo product over entries
/// recomputed with twiddle_table_entry, bitwise equal to a clean lookup.
cplx scalar_exact_twiddle(const TwiddleTableView& t, std::size_t j);

/// Reference write pass of dmr_twiddle (pair 0) over i in [begin, end).
void scalar_twiddle_write_range(const cplx* src, std::size_t stride,
                                cplx* dst, std::size_t begin, std::size_t end,
                                std::size_t j0, std::size_t step,
                                const TwiddleTableView& t);

/// Reference verify pass of dmr_twiddle over i in [begin, end): copy 2 from
/// pair 1 against dst (or, when `both`, against copy 1 from pair 0 written
/// here first). A mismatching element gets the majority of the two copies
/// and x * scalar_exact_twiddle(j) (the third itself when no two agree).
/// Returns the mismatch count.
std::size_t scalar_twiddle_verify_range(const cplx* src, std::size_t stride,
                                        cplx* dst, std::size_t begin,
                                        std::size_t end, std::size_t j0,
                                        std::size_t step,
                                        const TwiddleTableView& t, bool both);

}  // namespace ftfft::simd
