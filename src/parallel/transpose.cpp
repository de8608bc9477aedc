#include "parallel/transpose.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "common/error.hpp"

namespace ftfft::parallel {

namespace detail {

void verify_block(cplx* block, std::size_t len, const abft::StoredSums& stored,
                  double eta, int max_retries, TransposeStats& stats) {
  abft::repair_region(
      stored, block, 1, nullptr, len, eta, max_retries,
      {stats.comm_errors_detected, stats.comm_errors_corrected,
       stats.comm_multi_corrected},
      "block transpose: received block failed verification beyond repair");
}

}  // namespace detail

void block_transpose(RankCtx& ctx, cplx* local, std::size_t block_len,
                     const TransposeOptions& opts, TransposeStats& stats,
                     int tag_base) {
  const std::size_t p = ctx.nranks();
  const std::size_t r = ctx.rank();
  const NetworkModel& net = ctx.net();
  RankClock& clock = ctx.clock();
  // Trailer: 2 dual-checksum values (the paper's ~2p/n overhead), or 2t
  // syndrome moments under a multi-error budget (~2tp/n).
  const int t_max =
      opts.checksums ? checksum::clamp_max_errors(opts.max_errors) : 1;
  const std::size_t trailer = opts.checksums ? (t_max > 1 ? 2 * t_max : 2) : 0;
  const std::size_t payload_len = block_len + trailer;
  const double msg_cost = net.cost(payload_len * sizeof(cplx));

  // Modeled node loss: the configured rank dies as it enters the configured
  // communication phase, before any peer exchange of this transpose.
  if (r == net.fail_rank && opts.phase != 0 && opts.phase == net.fail_phase) {
    throw RankFailedError("parallel fft: rank failed entering transpose phase " +
                          std::to_string(opts.phase));
  }

  // Resident block: no communication, but the hook still applies.
  if (opts.on_block) {
    clock.begin_compute();
    opts.on_block(r, local + r * block_len, block_len);
    clock.end_compute();
  }

  // Round-robin tournament schedule (circle method): in every round each
  // rank exchanges with exactly one peer, and the block it sends is the one
  // it receives into — so no block is overwritten before it has been sent.
  // Even p: p-1 rounds, rank p-1 is the "fixed player". Odd p: p rounds,
  // one rank idles per round.
  const std::size_t circle = (p % 2 == 0) ? p - 1 : p;
  const std::size_t rounds = circle;
  for (std::size_t s = 0; s < rounds; ++s) {
    std::size_t peer;
    if (p % 2 == 0 && r == p - 1) {
      // Fixed player pairs with the circle rank j solving 2j = s (mod
      // circle); circle is odd so 2 is invertible: j = s*(circle+1)/2.
      peer = s * ((circle + 1) / 2) % circle;
    } else {
      const std::size_t self_paired = (2 * r) % circle;
      if (p % 2 == 0 && self_paired == s % circle) {
        peer = p - 1;  // we are the circle rank that meets the fixed player
      } else {
        peer = (s + circle - r % circle) % circle;
        if (peer == r) continue;  // odd p: idle this round
      }
    }

    // -- pack (measured): copy the outgoing block, generate its checksums.
    clock.begin_compute();
    std::vector<cplx> payload(payload_len);
    std::memcpy(payload.data(), local + peer * block_len,
                block_len * sizeof(cplx));
    if (opts.checksums) {
      if (t_max > 1) {
        const auto syn = checksum::syndrome_sum(nullptr, payload.data(),
                                                block_len, 1, 2 * t_max,
                                                opts.syndrome_nodes);
        for (int mo = 0; mo < 2 * t_max; ++mo) {
          payload[block_len + static_cast<std::size_t>(mo)] = syn.s[mo];
        }
      } else {
        const checksum::DualSum d =
            checksum::dual_weighted_sum(nullptr, payload.data(), block_len);
        payload[block_len] = d.plain;
        payload[block_len + 1] = d.indexed;
      }
    }
    const double t_pack = clock.end_compute();
    stats.bytes_sent += payload_len * sizeof(cplx);
    // Straggler model: every message out of the stalled rank departs late.
    if (r == net.stall_rank) clock.add_comm(net.stall_seconds);
    ctx.send(peer, tag_base + static_cast<int>(s), std::move(payload));

    // -- receive + verify + process (measured). The peer's message replaces
    // the block we just sent it (a true pairwise exchange).
    Message msg = ctx.recv(peer, tag_base + static_cast<int>(s));
    clock.begin_compute();
    cplx* dst = local + peer * block_len;
    std::memcpy(dst, msg.payload.data(), block_len * sizeof(cplx));
    ++stats.messages_received;
    // Modeled link corruption (NetworkModel::corrupt_every) lands here, like
    // the injector below: after sender checksum generation, before receiver
    // verification. Without checksums it silently poisons the output — the
    // unprotected variants exist to demonstrate exactly that.
    if (net.corrupt_every != 0 &&
        stats.messages_received % net.corrupt_every == 0) {
      corrupt_in_flight(dst);
    }
    if (opts.checksums) {
      // In-flight corruption hits the payload between sender checksum
      // generation and receiver verification.
      ctx.injector().apply(fault::Phase::kCommBlock, peer, dst, block_len);
      abft::StoredSums stored{
          {msg.payload[block_len], msg.payload[block_len + 1]}};
      checksum::SyndromeSet syn;
      if (t_max > 1) {
        syn.moments = 2 * t_max;
        for (int mo = 0; mo < 2 * t_max; ++mo) {
          syn.s[mo] = msg.payload[block_len + static_cast<std::size_t>(mo)];
        }
        stored = {{}, &syn, t_max, opts.syndrome_nodes};
      }
      detail::verify_block(dst, block_len, stored, opts.eta, opts.max_retries,
                           stats);
    }
    if (opts.on_block) opts.on_block(peer, dst, block_len);
    const double t_proc = clock.end_compute();

    // -- simulated time. The sender's clock is a lower bound on when the
    // message could have left; the transfer itself costs msg_cost. Under
    // Algorithm 3 the transfer of this step rides under the pack/process
    // compute of neighboring steps, so only the excess is charged.
    clock.advance_to(msg.send_time);
    if (opts.overlap) {
      const double hidden = t_pack + t_proc;
      clock.add_comm(std::max(0.0, msg_cost - hidden));
    } else {
      clock.add_comm(msg_cost);
    }
  }
}

}  // namespace ftfft::parallel
