// Tests for the work-conserving batcher: a worker with an idle peer (or
// no peer) runs what is queued at once; a worker whose peers are all
// mid-batch waits for company, bounded by max_wait and member
// deadlines; close/drain semantics. (request_queue has its own suite in
// test_serve_queue.cpp.)
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "serve/batcher.hpp"
#include "serve/request_queue.hpp"
#include "util/error.hpp"

namespace {

using namespace appeal;
using namespace std::chrono_literals;

serve::request make_request(std::uint64_t id) {
  serve::request r;
  r.id = id;
  r.key = id;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

/// A shard of two workers whose other worker is always mid-batch: the
/// only case in which a batcher waits for more requests.
struct busy_peer {
  busy_peer() { roster.busy.store(1); }
  serve::worker_roster roster{2};
};

TEST(batcher, size_triggered_flush_does_not_wait) {
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 4;
  policy.max_wait = std::chrono::microseconds(10'000'000);  // "forever"
  busy_peer peer;
  serve::batcher form(queue, policy, peer.roster);

  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.push(make_request(i)));
  }
  const auto before = std::chrono::steady_clock::now();
  const serve::batch b = form.next_batch();
  const auto took = std::chrono::steady_clock::now() - before;

  EXPECT_EQ(b.requests.size(), 4U);
  EXPECT_EQ(b.reason, serve::flush_reason::batch_full);
  // A full queue must flush immediately, far below the 10 s wait bound.
  EXPECT_LT(took, 1s);
}

TEST(batcher, timeout_triggered_flush_emits_partial_batch) {
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(5000);  // 5 ms
  busy_peer peer;
  serve::batcher form(queue, policy, peer.roster);

  ASSERT_TRUE(queue.push(make_request(7)));
  const serve::batch b = form.next_batch();
  EXPECT_EQ(b.requests.size(), 1U);
  EXPECT_EQ(b.reason, serve::flush_reason::wait_expired);
  EXPECT_EQ(b.requests.front().id, 7U);
}

TEST(batcher, close_flushes_remainder_then_reports_closed) {
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000'000);
  busy_peer peer;
  serve::batcher form(queue, policy, peer.roster);

  ASSERT_TRUE(queue.push(make_request(1)));
  ASSERT_TRUE(queue.push(make_request(2)));
  queue.close();

  const serve::batch partial = form.next_batch();
  EXPECT_EQ(partial.requests.size(), 2U);
  EXPECT_EQ(partial.reason, serve::flush_reason::queue_closed);

  const serve::batch done = form.next_batch();
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(done.reason, serve::flush_reason::queue_closed);
}

TEST(batcher, tight_deadline_caps_the_flush_wait) {
  // A request whose deadline lands inside the max_wait window must not
  // wait out the whole window (that would guarantee expiry at the
  // worker): the flush fires at the tightest member deadline instead.
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000'000);  // "forever"
  busy_peer peer;
  serve::batcher form(queue, policy, peer.roster);

  serve::request tight = make_request(11);
  tight.deadline = std::chrono::steady_clock::now() + 20ms;
  ASSERT_TRUE(queue.push(std::move(tight)));
  const auto before = std::chrono::steady_clock::now();
  const serve::batch b = form.next_batch();
  const auto took = std::chrono::steady_clock::now() - before;

  EXPECT_EQ(b.requests.size(), 1U);
  EXPECT_EQ(b.reason, serve::flush_reason::wait_expired);
  EXPECT_LT(took, 5s) << "flush must not wait out max_wait";
  // The request is still alive at flush time (the whole point): its
  // deadline had not passed when the batch formed.
  EXPECT_EQ(b.requests.front().id, 11U);
}

TEST(batcher, late_arrival_with_tight_deadline_shortens_the_window) {
  // The first request has no deadline; a follower with a tight one joins
  // the forming batch and must pull the flush forward for everyone.
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000'000);
  busy_peer peer;
  serve::batcher form(queue, policy, peer.roster);

  ASSERT_TRUE(queue.push(make_request(1)));
  std::thread producer([&queue] {
    std::this_thread::sleep_for(5ms);
    serve::request tight = make_request(2);
    tight.deadline = std::chrono::steady_clock::now() + 20ms;
    ASSERT_TRUE(queue.push(std::move(tight)));
  });
  const auto before = std::chrono::steady_clock::now();
  const serve::batch b = form.next_batch();
  const auto took = std::chrono::steady_clock::now() - before;
  producer.join();

  EXPECT_EQ(b.requests.size(), 2U);
  EXPECT_EQ(b.reason, serve::flush_reason::wait_expired);
  EXPECT_LT(took, 5s) << "the follower's deadline must cap the flush";
}

TEST(batcher, lone_worker_runs_what_is_queued_without_waiting) {
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000'000);  // "forever"
  serve::worker_roster roster(1);
  serve::batcher form(queue, policy, roster);

  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.push(make_request(i)));
  }
  const auto before = std::chrono::steady_clock::now();
  const serve::batch b = form.next_batch();
  const auto took = std::chrono::steady_clock::now() - before;

  EXPECT_EQ(b.requests.size(), 5U);
  EXPECT_EQ(b.reason, serve::flush_reason::drained);
  EXPECT_LT(took, 1s) << "a lone worker must not wait for company";
  EXPECT_EQ(roster.busy.load(), 1U) << "the worker holds its batch";
}

TEST(batcher, idle_peer_means_no_wait) {
  // The other worker holds no batch, so it would serve a newcomer at
  // once: this worker runs its lone request instead of holding it.
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000'000);
  serve::worker_roster roster(2);
  serve::batcher form(queue, policy, roster);

  ASSERT_TRUE(queue.push(make_request(3)));
  const auto before = std::chrono::steady_clock::now();
  const serve::batch b = form.next_batch();
  const auto took = std::chrono::steady_clock::now() - before;

  EXPECT_EQ(b.requests.size(), 1U);
  EXPECT_EQ(b.reason, serve::flush_reason::drained);
  EXPECT_LT(took, 1s);
  // Asking for the next batch frees the worker again.
  queue.close();
  EXPECT_TRUE(form.next_batch().empty());
  EXPECT_EQ(roster.busy.load(), 0U) << "the roster must be left balanced";
}

TEST(batcher, batch_grows_while_every_peer_is_busy) {
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 3;
  policy.max_wait = std::chrono::microseconds(10'000'000);
  busy_peer peer;
  serve::batcher form(queue, policy, peer.roster);

  ASSERT_TRUE(queue.push(make_request(1)));
  std::thread producer([&queue] {
    for (std::uint64_t id = 2; id <= 3; ++id) {
      std::this_thread::sleep_for(5ms);
      ASSERT_TRUE(queue.push(make_request(id)));
    }
  });
  const serve::batch b = form.next_batch();
  producer.join();

  ASSERT_EQ(b.requests.size(), 3U);
  EXPECT_EQ(b.reason, serve::flush_reason::batch_full);
  EXPECT_EQ(b.requests.back().id, 3U);
}

TEST(batcher, invalid_policy_throws) {
  serve::request_queue queue(4);
  serve::batch_policy policy;
  policy.max_batch_size = 0;
  serve::worker_roster roster(1);
  EXPECT_THROW(serve::batcher(queue, policy, roster), util::error);
}

}  // namespace
