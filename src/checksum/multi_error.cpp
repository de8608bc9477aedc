#include "checksum/multi_error.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/plan_registry.hpp"
#include "common/seal.hpp"
#include "simd/dispatch.hpp"

namespace ftfft::checksum {
namespace {

// How far a recovered node, mapped back to index space, may sit from an
// integer before the localization is declared unreliable. 0.25 splits the
// distance to the neighboring index evenly between round-off slack and
// mislocation guard.
constexpr double kIndexSlack = 0.25;

constexpr double kEpsilon = std::numeric_limits<double>::epsilon();

// Residual acceptance: a correct hypothesis reproduces every moment up to
// accumulated round-off. The absolute term allows a few etas of slack per
// moment (two syndrome generations plus the solves); the relative term
// handles exponent-scale corruptions, whose syndrome differences are so
// large that even a correct decode leaves an eps * |corruption| residue —
// the iterative repair loop then shrinks it (see repair_errors).
constexpr double kResidualEtaFactor = 8.0;
constexpr double kRelResidual = 1e-9;

// Pivot smaller than this fraction of the matrix scale means the system is
// (numerically) singular — expected when the hypothesized error count
// exceeds the true one, so the caller just tries the next count.
constexpr double kPivotRel = 1e-12;

// Solves the e x e complex system A z = b in place by Gaussian elimination
// with partial pivoting; the solution lands in b. Returns false when the
// system is numerically singular or contaminated.
bool solve_dense(int e, cplx A[][kMaxCorrectableErrors], cplx* b) {
  double scale = 0.0;
  for (int r = 0; r < e; ++r) {
    for (int c = 0; c < e; ++c) scale = std::max(scale, std::abs(A[r][c]));
  }
  if (!(scale > 0.0) || !std::isfinite(scale)) return false;
  for (int col = 0; col < e; ++col) {
    int piv = col;
    double best = std::abs(A[col][col]);
    for (int r = col + 1; r < e; ++r) {
      const double a = std::abs(A[r][col]);
      if (a > best) {
        best = a;
        piv = r;
      }
    }
    if (!(best > kPivotRel * scale) || !std::isfinite(best)) return false;
    if (piv != col) {
      for (int c = col; c < e; ++c) std::swap(A[piv][c], A[col][c]);
      std::swap(b[piv], b[col]);
    }
    for (int r = col + 1; r < e; ++r) {
      const cplx f = A[r][col] / A[col][col];
      A[r][col] = cplx{0.0, 0.0};
      for (int c = col + 1; c < e; ++c) A[r][c] -= f * A[col][c];
      b[r] -= f * b[col];
    }
  }
  for (int r = e - 1; r >= 0; --r) {
    cplx acc = b[r];
    for (int c = r + 1; c < e; ++c) acc -= A[r][c] * b[c];
    b[r] = acc / A[r][r];
  }
  return true;
}

// Evaluates the monic locator z^e + lam[e-1] z^(e-1) + ... + lam[0].
cplx eval_locator(int e, const cplx* lam, cplx z) {
  cplx p{1.0, 0.0};
  for (int l = e - 1; l >= 0; --l) p = p * z + lam[l];
  return p;
}

// Durand-Kerner simultaneous root iteration for the monic locator. The
// roots of a valid hypothesis lie in [0, 1) on the real axis, so the
// standard (0.4 + 0.9i)^k starting spiral (magnitude ~1) brackets them.
bool durand_kerner(int e, const cplx* lam, cplx* roots) {
  const cplx seed{0.4, 0.9};
  cplx z{1.0, 0.0};
  for (int i = 0; i < e; ++i) {
    z *= seed;
    roots[i] = z;
  }
  for (int iter = 0; iter < 96; ++iter) {
    double step = 0.0;
    for (int i = 0; i < e; ++i) {
      cplx denom{1.0, 0.0};
      for (int j = 0; j < e; ++j) {
        if (j != i) denom *= roots[i] - roots[j];
      }
      if (!(std::abs(denom) > 0.0) || !std::isfinite(std::abs(denom))) {
        return false;
      }
      const cplx delta = eval_locator(e, lam, roots[i]) / denom;
      roots[i] -= delta;
      step = std::max(step, std::abs(delta));
    }
    if (step < 1e-14) return true;
  }
  // No strict convergence: the roots may still be good enough for the
  // integer snap; let validation decide.
  return true;
}

// Roots of the monic locator for the given error count. Closed form for
// e <= 2 (the overwhelmingly common cases), Durand-Kerner beyond.
bool locator_roots(int e, const cplx* lam, cplx* roots) {
  if (e == 1) {
    roots[0] = -lam[0];
    return true;
  }
  if (e == 2) {
    // z^2 + lam1 z + lam0: stable quadratic — pick the sign that avoids
    // cancellation in the larger root, derive the other via the product.
    const cplx b = lam[1];
    const cplx c = lam[0];
    const cplx sq = std::sqrt(b * b - 4.0 * c);
    const cplx q1 = -0.5 * (b + sq);
    const cplx q2 = -0.5 * (b - sq);
    const cplx q = (std::abs(q1) >= std::abs(q2)) ? q1 : q2;
    if (std::abs(q) > 0.0) {
      roots[0] = q;
      roots[1] = c / q;
    } else {
      roots[0] = cplx{0.0, 0.0};
      roots[1] = cplx{0.0, 0.0};
    }
    return true;
  }
  return durand_kerner(e, lam, roots);
}

bool finite(const SyndromeSet& syn) {
  for (int m = 0; m < syn.moments; ++m) {
    if (!std::isfinite(syn.s[m].real()) || !std::isfinite(syn.s[m].imag())) {
      return false;
    }
  }
  return true;
}

// Index of the element with the largest weighted term |w_j x_j| (w ==
// nullptr: all ones), a non-finite one first.
std::size_t largest_weighted_term(const cplx* data, std::size_t stride,
                                  const cplx* w, std::size_t n) {
  std::size_t j = 0;
  double top = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double mag =
        std::abs(data[i * stride]) * (w == nullptr ? 1.0 : std::abs(w[i]));
    if (!(mag <= top)) {  // NaN wins
      top = mag;
      j = i;
      if (std::isnan(mag)) break;
    }
  }
  return j;
}

}  // namespace

int clamp_max_errors(int requested) noexcept {
  return std::clamp(requested, 1, kMaxCorrectableErrors);
}

SyndromeSet syndrome_sum(const cplx* w, const cplx* x, std::size_t n,
                         std::size_t stride, int moments,
                         const double* nodes2) {
  SyndromeSet out;
  out.moments = std::clamp(moments, 1, kMaxMoments);
  if (n == 0) return out;
  if (out.moments == 2) {
    return dual_moments(dual_weighted_sum(w, x, n, stride), n);
  }
  if (stride == 1 && nodes2 != nullptr) {
    simd::checksum_kernels().syndrome_dot(w, x, nodes2, n, out.moments,
                                          out.s.data());
    return out;
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j) {
    cplx q = (w == nullptr) ? x[j * stride] : cmul(w[j], x[j * stride]);
    const double u =
        (nodes2 != nullptr) ? nodes2[2 * j] : static_cast<double>(j) * inv_n;
    out.s[0] += q;
    for (int m = 1; m < out.moments; ++m) {
      q *= u;
      out.s[m] += q;
    }
  }
  return out;
}

MultiLocateResult locate_errors(const SyndromeSet& stored,
                                const SyndromeSet& current, const cplx* w,
                                std::size_t n, double eta, int max_errors) {
  MultiLocateResult out;
  const int nm = std::min(stored.moments, current.moments);
  const int t = std::min(clamp_max_errors(max_errors), nm / 2);
  if (nm < 2 || n == 0) return out;

  cplx d[kMaxMoments];
  double maxd = 0.0;
  bool any = false;
  bool finite = true;
  for (int m = 0; m < nm; ++m) {
    d[m] = current.s[m] - stored.s[m];
    const double a = std::abs(d[m]);
    finite = finite && std::isfinite(a);
    maxd = std::max(maxd, a);
    any = any || !(a <= eta);  // NaN compares false: a mismatch too
  }
  if (!any) return out;  // within round-off: no mismatch
  out.mismatch = true;
  if (!finite) return out;  // NaN/Inf contamination: not localizable

  const double nd = static_cast<double>(n);
  const double tol = std::max(kResidualEtaFactor * eta, kRelResidual * maxd);

  for (int e = 1; e <= t; ++e) {
    // Key equation: sum_l lam_l d_{r+l} = -d_{e+r} for r = 0..e-1. The
    // Hankel matrix is singular when the true error count is below e; the
    // pivot guard rejects that hypothesis and the loop moves on.
    cplx A[kMaxCorrectableErrors][kMaxCorrectableErrors];
    cplx lam[kMaxCorrectableErrors];
    for (int r = 0; r < e; ++r) {
      for (int l = 0; l < e; ++l) A[r][l] = d[r + l];
      lam[r] = -d[e + r];
    }
    if (!solve_dense(e, A, lam)) continue;

    cplx roots[kMaxCorrectableErrors];
    if (!locator_roots(e, lam, roots)) continue;

    // Snap roots to integer indices within the confidence slack.
    std::size_t idx[kMaxCorrectableErrors];
    double u[kMaxCorrectableErrors];
    bool ok = true;
    for (int i = 0; i < e && ok; ++i) {
      const double xr = roots[i].real() * nd;
      const double rounded = std::round(xr);
      const double imag_slack = kIndexSlack * (1.0 + std::abs(rounded));
      if (std::abs(xr - rounded) > kIndexSlack ||
          std::abs(roots[i].imag()) * nd > imag_slack || rounded < 0.0 ||
          rounded >= nd) {
        ok = false;
        break;
      }
      idx[i] = static_cast<std::size_t>(rounded);
      u[i] = static_cast<double>(idx[i]) * (1.0 / nd);
      for (int j = 0; j < i; ++j) ok = ok && idx[j] != idx[i];
    }
    if (!ok) continue;

    // Error values from the leading e moments: V[m][i] = u_i^m, V E = d.
    cplx V[kMaxCorrectableErrors][kMaxCorrectableErrors];
    cplx E[kMaxCorrectableErrors];
    for (int i = 0; i < e; ++i) V[0][i] = cplx{1.0, 0.0};
    for (int m = 1; m < e; ++m) {
      for (int i = 0; i < e; ++i) V[m][i] = V[m - 1][i] * u[i];
    }
    for (int m = 0; m < e; ++m) E[m] = d[m];
    if (!solve_dense(e, V, E)) continue;

    // Accept only when the hypothesis explains every stored moment.
    bool pass = true;
    for (int m = 0; m < nm && pass; ++m) {
      cplx recon{0.0, 0.0};
      for (int i = 0; i < e; ++i) {
        recon += E[i] * std::pow(u[i], static_cast<double>(m));
      }
      pass = std::abs(d[m] - recon) <= tol;
    }
    if (!pass) continue;

    out.valid = true;
    out.count = e;
    for (int i = 0; i < e; ++i) {
      out.index[i] = idx[i];
      out.delta[i] = (w == nullptr) ? E[i] : E[i] / w[idx[i]];
    }
    return out;
  }
  return out;  // mismatch detected but not explainable by <= t errors
}

void apply_corrections(cplx* data, std::size_t stride,
                       const MultiLocateResult& loc) {
  if (!loc.valid) return;
  for (int i = 0; i < loc.count; ++i) {
    data[loc.index[i] * stride] -= loc.delta[i];
  }
}

MultiRepairResult repair_errors(const SyndromeSet& stored, cplx* data,
                                std::size_t stride, const cplx* w,
                                std::size_t n, double eta, int max_errors,
                                int max_iters, const double* nodes2) {
  MultiRepairResult out;
  const auto verifies = [&] {
    const SyndromeSet cur =
        syndrome_sum(w, data, n, stride, stored.moments, nodes2);
    return !locate_errors(stored, cur, w, n, eta, max_errors).mismatch;
  };
  // Set when the rounds cannot converge: a recomputed moment is not finite,
  // or a correction is so large that its eps-relative rounding residue alone
  // exceeds eta (each round shrinks that residue by a factor of ~eps, so a
  // ~1e308 corruption needs some twenty rounds). A repair that then fails
  // gets one erasure rebuild: the element with the largest weighted term is
  // recomputed from the stored plain sum of the others, (s0 - sum_{i != j}
  // w_i x_i) / w_j, and kept only if the data then verify.
  bool too_large = false;
  const auto give_up = [&] {
    if (!too_large) return out;
    const std::size_t j = largest_weighted_term(data, stride, w, n);
    cplx& x = data[j * stride];
    const cplx old = x;
    x = cplx{0.0, 0.0};
    const cplx rest = dual_weighted_sum(w, data, n, stride).plain;
    x = (stored.s[0] - rest) / (w == nullptr ? cplx{1.0, 0.0} : w[j]);
    if (verifies()) {
      out.applied.add(j, old - x);
      out.corrected = true;
      out.errors = 1;
    } else {
      x = old;
    }
    return out;
  };
  for (int iter = 0; iter < max_iters; ++iter) {
    const SyndromeSet cur =
        syndrome_sum(w, data, n, stride, stored.moments, nodes2);
    too_large = too_large || !finite(cur);
    const MultiLocateResult loc =
        locate_errors(stored, cur, w, n, eta, max_errors);
    if (!loc.mismatch) {
      out.corrected = out.mismatch;  // clean now (trivially true if never bad)
      return out;
    }
    out.mismatch = true;
    if (!loc.valid) return give_up();  // not explainable by <= t errors
    too_large =
        too_large || kEpsilon * std::abs(cur.s[0] - stored.s[0]) > eta;
    apply_corrections(data, stride, loc);
    for (int i = 0; i < loc.count; ++i) {
      out.applied.add(loc.index[i], loc.delta[i]);
    }
    out.errors = loc.count;
  }
  // Ran out of rounds: check whether the last correction landed.
  out.corrected = verifies();
  return out.corrected ? out : give_up();
}

namespace {

PlanRegistry<std::size_t, std::vector<double>> nodes_cache(
    "syndrome-nodes", [](const std::vector<double>& v) {
      return fnv1a(v.data(), v.size() * sizeof(double));
    });

}  // namespace

std::shared_ptr<const std::vector<double>> shared_syndrome_nodes(
    std::size_t n) {
  return nodes_cache.get_or_build(n, [&] {
    std::vector<double> nodes(2 * n);
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double u = static_cast<double>(j) * inv_n;
      nodes[2 * j] = u;
      nodes[2 * j + 1] = u;
    }
    return std::make_shared<const std::vector<double>>(std::move(nodes));
  });
}

}  // namespace ftfft::checksum
