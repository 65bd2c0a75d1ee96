// Dedicated request_queue suite: FIFO + priority-lane ordering,
// try_push admission limits, close/drain semantics, deadline pops, and
// concurrent producers/consumers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/request_queue.hpp"
#include "util/error.hpp"

namespace {

using namespace appeal;
using namespace std::chrono_literals;

serve::request make_request(
    std::uint64_t id,
    serve::priority_class p = serve::priority_class::interactive) {
  serve::request r;
  r.id = id;
  r.key = id;
  r.priority = p;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

TEST(serve_queue, fifo_and_size) {
  serve::request_queue queue(8);
  EXPECT_EQ(queue.size(), 0U);
  ASSERT_TRUE(queue.push(make_request(1)));
  ASSERT_TRUE(queue.push(make_request(2)));
  EXPECT_EQ(queue.size(), 2U);

  serve::request out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 1U);
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 2U);
  EXPECT_FALSE(queue.try_pop(out));
}

TEST(serve_queue, zero_capacity_throws) {
  EXPECT_THROW(serve::request_queue(0), util::error);
}

TEST(serve_queue, interactive_pops_ahead_of_batch) {
  serve::request_queue queue(8);
  ASSERT_TRUE(queue.push(make_request(1, serve::priority_class::batch)));
  ASSERT_TRUE(queue.push(make_request(2, serve::priority_class::batch)));
  ASSERT_TRUE(queue.push(make_request(3, serve::priority_class::interactive)));

  serve::request out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 3U);  // interactive jumps the batch backlog
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 1U);  // FIFO within the batch lane
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 2U);
}

TEST(serve_queue, try_push_reports_full_without_blocking) {
  serve::request_queue queue(2);
  EXPECT_EQ(queue.try_push(make_request(1)),
            serve::request_queue::push_result::ok);
  EXPECT_EQ(queue.try_push(make_request(2)),
            serve::request_queue::push_result::ok);
  EXPECT_EQ(queue.try_push(make_request(3)),
            serve::request_queue::push_result::full);
  EXPECT_EQ(queue.size(), 2U);
}

TEST(serve_queue, try_push_limit_overrides_capacity) {
  serve::request_queue queue(2);
  ASSERT_TRUE(queue.push(make_request(1)));
  // A lower limit (batch headroom) refuses below capacity...
  EXPECT_EQ(queue.try_push(make_request(2), /*limit=*/1),
            serve::request_queue::push_result::full);
  // ...and a higher limit (degrade overflow) admits beyond it.
  ASSERT_TRUE(queue.push(make_request(2)));
  EXPECT_EQ(queue.try_push(make_request(3), /*limit=*/4),
            serve::request_queue::push_result::ok);
  EXPECT_EQ(queue.size(), 3U);
}

TEST(serve_queue, try_push_leaves_refused_request_usable) {
  serve::request_queue queue(1);
  ASSERT_TRUE(queue.push(make_request(1)));
  serve::request refused = make_request(42);
  std::future<serve::response> fut = refused.promise.get_future();
  EXPECT_EQ(queue.try_push(std::move(refused)),
            serve::request_queue::push_result::full);
  // The caller can still fulfill the promise (the shed path relies on it).
  EXPECT_EQ(refused.id, 42U);
  serve::response resp;
  resp.status = serve::request_status::shed;
  refused.promise.set_value(resp);
  EXPECT_EQ(fut.get().status, serve::request_status::shed);
}

TEST(serve_queue, close_fails_pushes_and_drains_pops) {
  serve::request_queue queue(4);
  ASSERT_TRUE(queue.push(make_request(1)));
  queue.close();
  EXPECT_FALSE(queue.push(make_request(2)));
  EXPECT_EQ(queue.try_push(make_request(3)),
            serve::request_queue::push_result::closed);

  serve::request out;
  const auto deadline = std::chrono::steady_clock::now() + 100ms;
  EXPECT_EQ(queue.pop_until(out, deadline),
            serve::request_queue::pop_result::item);
  EXPECT_EQ(out.id, 1U);
  EXPECT_EQ(queue.pop_until(out, deadline),
            serve::request_queue::pop_result::closed);
}

TEST(serve_queue, pop_times_out_when_empty) {
  serve::request_queue queue(4);
  serve::request out;
  const auto deadline = std::chrono::steady_clock::now() + 10ms;
  EXPECT_EQ(queue.pop_until(out, deadline),
            serve::request_queue::pop_result::timed_out);
}

TEST(serve_queue, push_blocks_until_capacity_frees) {
  serve::request_queue queue(1);
  ASSERT_TRUE(queue.push(make_request(1)));

  std::thread producer([&] { EXPECT_TRUE(queue.push(make_request(2))); });
  std::this_thread::sleep_for(20ms);  // producer should now be blocked
  serve::request out;
  ASSERT_TRUE(queue.try_pop(out));
  producer.join();
  EXPECT_EQ(queue.size(), 1U);
}

TEST(serve_queue, close_wakes_blocked_producer) {
  serve::request_queue queue(1);
  ASSERT_TRUE(queue.push(make_request(1)));
  std::thread producer([&] { EXPECT_FALSE(queue.push(make_request(2))); });
  std::this_thread::sleep_for(20ms);
  queue.close();
  producer.join();
}

TEST(serve_queue, shared_depth_gauge_sums_every_queue) {
  // A deployment's shards export one occupancy gauge: each queue adds
  // its pushes and subtracts its pops.
  obs::gauge depth;
  serve::request_queue a(4, &depth);
  serve::request_queue b(4, &depth);
  ASSERT_TRUE(a.push(make_request(1)));
  ASSERT_TRUE(a.push(make_request(2)));
  ASSERT_EQ(b.try_push(make_request(3)), serve::request_queue::push_result::ok);
  EXPECT_EQ(depth.value(), 3.0);
  serve::request out;
  ASSERT_TRUE(a.try_pop(out));
  ASSERT_EQ(b.pop_until(out, std::chrono::steady_clock::now()),
            serve::request_queue::pop_result::item);
  EXPECT_EQ(depth.value(), 1.0);
}

TEST(serve_queue, concurrent_producers_consumers_deliver_everything) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 3;
  constexpr std::size_t kPerProducer = 500;
  serve::request_queue queue(32);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const auto id = static_cast<std::uint64_t>(p * kPerProducer + i);
        const auto pri = i % 3 == 0 ? serve::priority_class::batch
                                    : serve::priority_class::interactive;
        ASSERT_TRUE(queue.push(make_request(id, pri)));
      }
    });
  }

  std::atomic<std::size_t> popped{0};
  std::vector<std::atomic<bool>> seen(kProducers * kPerProducer);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      serve::request out;
      for (;;) {
        const auto result = queue.pop_until(
            out, std::chrono::steady_clock::now() + 50ms);
        if (result == serve::request_queue::pop_result::item) {
          ASSERT_LT(out.id, seen.size());
          ASSERT_FALSE(seen[out.id].exchange(true)) << "duplicate delivery";
          popped.fetch_add(1);
        } else if (result == serve::request_queue::pop_result::closed) {
          return;
        }
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  EXPECT_EQ(queue.size(), 0U);
}

}  // namespace
