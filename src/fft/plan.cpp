#include "fft/plan.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "dft/codelets.hpp"
#include "fft/executor.hpp"

namespace ftfft::fft {
namespace {

// Factors the planner may use as the combine radix, best first. Larger
// radices mean fewer passes over the data.
constexpr std::size_t kRadixPreference[] = {16, 8, 5, 4, 3, 2};

// Sizes up to this bound that are not divisible by any preferred radix run
// as a generic O(n^2) codelet; beyond it Bluestein wins.
constexpr std::size_t kMaxGenericCodelet = 32;

std::shared_ptr<const PlanNode> build_plan(std::size_t n);

std::shared_ptr<const PlanNode> build_codelet(std::size_t n) {
  auto node = std::make_shared<PlanNode>();
  node->n = n;
  node->kind = PlanNode::Kind::kCodelet;
  return node;
}

std::shared_ptr<const PlanNode> build_cooley_tukey(std::size_t n,
                                                   std::size_t r) {
  auto node = std::make_shared<PlanNode>();
  node->n = n;
  node->kind = PlanNode::Kind::kCooleyTukey;
  node->radix = r;
  const std::size_t m = n / r;
  node->sub = build_plan(m);
  node->twiddles.resize((r - 1) * m);
  for (std::size_t t1 = 1; t1 < r; ++t1) {
    for (std::size_t k1 = 0; k1 < m; ++k1) {
      node->twiddles[(t1 - 1) * m + k1] =
          omega(n, static_cast<std::uint64_t>(t1) * k1);
    }
  }
  node->scratch_need = node->sub->scratch_need;
  return node;
}

std::shared_ptr<const PlanNode> build_bluestein(std::size_t n) {
  auto node = std::make_shared<PlanNode>();
  node->n = n;
  node->kind = PlanNode::Kind::kBluestein;
  node->conv_n = next_pow2(2 * n - 1);
  // chirp c[t] = exp(-pi i t^2 / n) = omega(2n, t^2 mod 2n).
  node->chirp.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint64_t sq =
        (static_cast<std::uint64_t>(t) * t) % (2 * n);
    node->chirp[t] = omega(2 * n, sq);
  }
  // b[t] = conj(c[|t|]) wrapped cyclically into the convolution buffer.
  std::vector<cplx> b(node->conv_n, cplx{0.0, 0.0});
  b[0] = std::conj(node->chirp[0]);
  for (std::size_t t = 1; t < n; ++t) {
    b[t] = std::conj(node->chirp[t]);
    b[node->conv_n - t] = std::conj(node->chirp[t]);
  }
  node->conv_plan = build_plan(node->conv_n);
  // conv_n is a power of two, so conv_plan needs no scratch of its own and
  // the Bluestein scratch layout in the executor (2 * conv_n) is exact.
  node->chirp_fft.resize(node->conv_n);
  execute_plan(*node->conv_plan, b.data(), 1, node->chirp_fft.data(), 1,
               nullptr);
  node->scratch_need = 2 * node->conv_n;
  return node;
}

std::shared_ptr<const PlanNode> build_plan(std::size_t n) {
  if (n == 0) throw std::invalid_argument("make_plan: n must be >= 1");
  if (dft::has_unrolled_codelet(n)) return build_codelet(n);
  for (std::size_t r : kRadixPreference) {
    if (n % r == 0 && n / r > 1) {
      // Guard: only split when the cofactor is still worth recursing on;
      // n == r was already handled by the codelet check above.
      return build_cooley_tukey(n, r);
    }
  }
  if (n <= kMaxGenericCodelet) return build_codelet(n);
  return build_bluestein(n);
}

}  // namespace

void collect_plan_state(const PlanNode& node, StateSpans& out) {
  out.add_vec(node.twiddles);
  out.add_vec(node.chirp);
  out.add_vec(node.chirp_fft);
  if (node.sub) collect_plan_state(*node.sub, out);
  if (node.conv_plan) collect_plan_state(*node.conv_plan, out);
}

namespace {

PlanRegistry<std::size_t, PlanNode> plan_cache(
    "fft-plan", [](const PlanNode& root) {
      StateSpans spans;
      collect_plan_state(root, spans);
      return seal_spans(spans);
    });

}  // namespace

std::shared_ptr<const PlanNode> make_plan(std::size_t n) {
  // LRU-bounded by FTFFT_PLAN_CACHE_CAP; the builder runs outside the
  // registry lock because plan construction may be slow for large n.
  // Eviction of a root node releases its whole subtree (sub-plans are not
  // cached individually).
  return plan_cache.get_or_build(n, [n] { return build_plan(n); });
}

std::string describe_plan(const PlanNode& node) {
  std::ostringstream out;
  const PlanNode* cur = &node;
  bool first = true;
  while (cur != nullptr) {
    if (!first) out << " -> ";
    first = false;
    switch (cur->kind) {
      case PlanNode::Kind::kCodelet:
        out << "codelet(" << cur->n << ")";
        cur = nullptr;
        break;
      case PlanNode::Kind::kCooleyTukey:
        out << "ct(n=" << cur->n << ",r=" << cur->radix << ")";
        cur = cur->sub.get();
        break;
      case PlanNode::Kind::kBluestein:
        out << "bluestein(n=" << cur->n << ",conv=" << cur->conv_n << ")";
        cur = cur->conv_plan.get();
        break;
    }
  }
  return out.str();
}

}  // namespace ftfft::fft
