#include "fft/fft.hpp"

#include "common/math_util.hpp"
#include "fft/executor.hpp"

namespace ftfft::fft {

Fft::Fft(std::size_t n, Direction dir) : n_(n), dir_(dir) {
  if (uses_inplace_engine(n_)) {
    inplace_ = InplaceRadix2Plan::get(n_);
    return;
  }
  plan_ = make_plan(n_);
  scratch_.resize(plan_->scratch_need);
  if (dir_ == Direction::kInverse || !is_pow2(n_)) dir_scratch_.resize(n_);
}

void Fft::execute(const cplx* in, cplx* out) {
  execute_strided(in, 1, out, 1);
}

void Fft::execute_strided(const cplx* in, std::size_t is, cplx* out,
                          std::size_t os) {
  if (inplace_) {
    execute_on_inplace_plan(in, is, out, os);
  } else if (dir_ == Direction::kForward) {
    execute_plan(*plan_, in, is, out, os, scratch_.data());
  } else {
    // Inverse via conjugation: idft(x) = conj(dft(conj(x))) / n.
    for (std::size_t t = 0; t < n_; ++t)
      dir_scratch_[t] = std::conj(in[t * is]);
    execute_staged(out, os);
  }
}

void Fft::execute_staged(cplx* out, std::size_t os) {
  execute_plan(*plan_, dir_scratch_.data(), 1, out, os, scratch_.data());
  if (dir_ == Direction::kForward) return;
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t t = 0; t < n_; ++t)
    out[t * os] = std::conj(out[t * os]) * inv_n;
}

void Fft::execute_on_inplace_plan(const cplx* in, std::size_t is, cplx* out,
                                  std::size_t os) {
  // Strided output stages through dir_scratch_, allocated on first use: no
  // other call on this engine needs it.
  cplx* dst = out;
  if (os != 1) {
    dir_scratch_.resize(n_);
    dst = dir_scratch_.data();
  }
  if (dir_ == Direction::kForward && is == 1) {
    inplace_->forward_copy(in, dst);
  } else {
    // Gather + in-place run: bit-identical to forward_copy by its contract;
    // inverse() folds in the 1/n scaling.
    for (std::size_t t = 0; t < n_; ++t) dst[t] = in[t * is];
    if (dir_ == Direction::kForward) {
      inplace_->forward(dst);
    } else {
      inplace_->inverse(dst);
    }
  }
  if (os != 1) {
    for (std::size_t t = 0; t < n_; ++t) out[t * os] = dst[t];
  }
}

void Fft::execute_inplace(cplx* data) {
  if (is_pow2(n_)) {
    const auto plan = inplace_ ? inplace_ : InplaceRadix2Plan::get(n_);
    if (dir_ == Direction::kForward) {
      plan->forward(data);
    } else {
      plan->inverse(data);
    }
    return;
  }
  for (std::size_t t = 0; t < n_; ++t) {
    dir_scratch_[t] =
        dir_ == Direction::kForward ? data[t] : std::conj(data[t]);
  }
  execute_staged(data, 1);
}

std::vector<cplx> fft(const std::vector<cplx>& in) {
  std::vector<cplx> out(in.size());
  Fft engine(in.size(), Direction::kForward);
  engine.execute(in.data(), out.data());
  return out;
}

std::vector<cplx> ifft(const std::vector<cplx>& in) {
  std::vector<cplx> out(in.size());
  Fft engine(in.size(), Direction::kInverse);
  engine.execute(in.data(), out.data());
  return out;
}

}  // namespace ftfft::fft
