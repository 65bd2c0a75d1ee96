#include "serve/request_queue.hpp"

#include "util/error.hpp"

namespace appeal::serve {

request_queue::request_queue(std::size_t capacity, obs::gauge* depth)
    : capacity_(capacity), depth_(depth) {
  APPEAL_CHECK(capacity > 0, "request_queue capacity must be positive");
}

bool request_queue::push(request&& r, std::size_t limit) {
  if (limit == 0) limit = capacity_;
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_.wait(lock,
                 [&] { return closed_ || size_locked() < limit; });
  if (closed_) return false;
  lane(r.priority).push_back(std::move(r));
  grew();
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

request_queue::push_result request_queue::try_push(request&& r,
                                                   std::size_t limit) {
  if (limit == 0) limit = capacity_;
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return push_result::closed;
  if (size_locked() >= limit) return push_result::full;
  lane(r.priority).push_back(std::move(r));
  grew();
  lock.unlock();
  not_empty_.notify_one();
  return push_result::ok;
}

bool request_queue::pop_locked(request& out) {
  if (!interactive_.empty()) {
    out = std::move(interactive_.front());
    interactive_.pop_front();
  } else if (!batch_.empty()) {
    out = std::move(batch_.front());
    batch_.pop_front();
  } else {
    return false;
  }
  shrank();
  return true;
}

request_queue::pop_result request_queue::pop_until(
    request& out, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait_until(lock, deadline,
                        [&] { return closed_ || size_locked() > 0; });
  if (pop_locked(out)) {
    lock.unlock();
    // Producers wait on heterogeneous limits (batch headroom vs full
    // capacity), so notify_one could wake a waiter whose predicate is
    // still false and strand another whose predicate just became true.
    not_full_.notify_all();
    return pop_result::item;
  }
  return closed_ ? pop_result::closed : pop_result::timed_out;
}

bool request_queue::try_pop(request& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!pop_locked(out)) return false;
  lock.unlock();
  not_full_.notify_all();  // heterogeneous producer limits; see pop_until
  return true;
}

void request_queue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool request_queue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t request_queue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_locked();
}

}  // namespace appeal::serve
