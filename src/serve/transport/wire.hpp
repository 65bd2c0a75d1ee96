// Length-prefixed wire protocol of the edge→cloud appeal link.
//
// Every message is one frame:
//
//   ┌──────────┬─────────┬──────┬───────┬───────────────┬─────────────┐
//   │ magic u32│ ver u8  │ type │ count │ payload_bytes │   payload   │
//   │ "APL1"   │  (=5)   │  u8  │  u16  │      u32      │  (records)  │
//   └──────────┴─────────┴──────┴───────┴───────────────┴─────────────┘
//     12-byte header, all integers little-endian, floats IEEE-754.
//
// An appeal_batch payload holds `count` appeal records (request id, key,
// label, priority class, remaining deadline, deployment name, tensor
// shape + float32 payload); a response_batch holds `count` response
// records (request id, prediction, status, stub-side queue-wait +
// compute time). Request ids are the demux key: the response side may
// reorder or split batches and the channel still completes the right
// appeal.
//
// There is one dialect, kVersion: both ends of the link ship from this
// repository, so a frame of any other version is a peer built from
// different sources, and the splitter rejects it at the first frame.
// Appeal records carry two optional fields, each announced by a flags
// bit:
//   - bit0 ("traced"): a trace_id u64 right after deadline_ms, so a
//     sampled trace span continues across the link;
//   - bit1 ("split"): a cut_id u32 after the optional trace_id. The
//     tensor payload is then the intermediate feature map at that cut of
//     the canonical cloud model (cut ids are 1-based indices into its
//     nn::sequential cut table), not the raw input; the cloud scores
//     only the suffix. An appeal without a feature map (a replay backend
//     has no layers to partition) ships its raw input unflagged.
// Response records always carry cloud_queue_ms + cloud_score_ms (the
// cloud-stamped cost split into work-queue wait and batched scoring) and
// retry_after_ms (the back-off an `overloaded` answer asks for).
//
// Decoding is defensive: a frame_splitter accumulates an arbitrary byte
// stream (torn reads hand it any prefix) and yields only complete,
// well-formed frames; bad magic/version/type, a payload length above
// kMaxFrameBytes, and any record running past the payload end all throw
// util::error instead of reading out of bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"
#include "tensor/tensor.hpp"

namespace appeal::serve::wire {

inline constexpr std::uint32_t kMagic = 0x314C5041;  // "APL1" little-endian
/// The one protocol version both link ends speak.
inline constexpr std::uint8_t kVersion = 5;
inline constexpr std::size_t kHeaderBytes = 12;
/// Upper bound on one frame's payload; a peer announcing more is treated
/// as corrupt (protects the receiver from attacker/garbage allocations).
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;  // 64 MiB

enum class frame_type : std::uint8_t {
  appeal_batch = 1,
  response_batch = 2,
};

/// One appealed request as it crosses the wire (decode side owns its
/// tensor; the encode side reads straight out of the serve::request).
struct appeal_record {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::uint64_t label = request::no_label;
  priority_class priority = priority_class::interactive;
  /// Remaining deadline budget at send time (ms); < 0 means "none".
  double deadline_ms = -1.0;
  /// Trace span id riding the appeal (flags bit0); 0 = unsampled.
  std::uint64_t trace_id = 0;
  /// Split-computing cut id (flags bit1); 0 = raw-input appeal.
  /// When > 0, `input` holds the feature map at that cut of the canonical
  /// cloud model and the receiver scores only the suffix.
  std::uint32_t split_cut = 0;
  std::string model;  // deployment name
  tensor input;       // may be empty (replay workloads ship no pixels)
};

/// Non-owning encode-side view of an appeal (avoids copying the tensor
/// out of the in-flight request just to frame it).
struct appeal_view {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::uint64_t label = request::no_label;
  priority_class priority = priority_class::interactive;
  double deadline_ms = -1.0;
  std::uint64_t trace_id = 0;  // 0 = unsampled (not encoded)
  /// Split-computing appeal: ship `*feature` tagged with `split_cut`
  /// instead of the input. A null or empty feature ships the raw input.
  std::uint32_t split_cut = 0;
  const tensor* feature = nullptr;
  std::string_view model;
  const tensor* input = nullptr;  // nullptr encodes as an empty tensor
};

/// The view of in-flight request `r` shipped as `wire_id`: its remaining
/// deadline (clamped to 0 once blown, so it stays a deadline on the wire;
/// -1 when it has none), its trace id, and its feature map when it is a
/// split appeal. Both transports frame (or size) appeals through this.
appeal_view view_of(const request& r, std::uint64_t wire_id,
                    std::string_view model);

/// How the cloud disposed of one appeal. `expired` means the appeal's
/// remaining deadline was already blown when a cloud worker reached it:
/// the cloud shed it without scoring, and `prediction` is meaningless.
/// `overloaded` means the cloud refused the appeal without scoring —
/// full work queue or a projected deadline miss — and the edge should
/// back off (retry after retry_after_ms, or answer locally).
/// `rejected` means the cloud could not score the appeal as
/// sent — unknown split cut id or a feature shape matching no cut — and
/// the edge should answer it locally (no retry can fix a bad cut).
enum class response_status : std::uint8_t {
  ok = 0,
  expired = 1,
  overloaded = 2,
  rejected = 3,
};

struct response_record {
  std::uint64_t id = 0;
  std::uint64_t prediction = 0;
  response_status status = response_status::ok;
  /// Stub-side cost of the appeal: work-queue wait + batch scoring time.
  /// The client compares this against its cost model's cloud term.
  double cloud_ms = 0.0;
  /// The cloud_ms total split into work-queue wait and batched scoring,
  /// stamped on the cloud's clock.
  double cloud_queue_ms = 0.0;
  double cloud_score_ms = 0.0;
  /// How long the cloud suggests the edge wait before retrying an
  /// `overloaded` appeal (its queue-wait estimate); 0 on other statuses.
  double retry_after_ms = 0.0;
};

/// One complete, validated frame (header parsed, payload bounds known).
struct frame {
  frame_type type = frame_type::appeal_batch;
  std::uint16_t count = 0;
  std::vector<std::uint8_t> payload;
};

/// Exact wire size of one appeal record (used by the simulator to count
/// the bytes a real link would carry without encoding anything).
std::size_t appeal_wire_bytes(const appeal_view& a);

/// Exact wire size of one response record (id + prediction + status +
/// cloud_ms + queue/score split + retry_after); the simulator uses it to
/// count equivalent downlink bytes.
inline constexpr std::size_t kResponseRecordBytes = 8 + 8 + 1 + 8 + 8 + 8 + 8;

/// Frame encoders (always kVersion).
std::vector<std::uint8_t> encode_appeal_batch(
    const std::vector<appeal_view>& batch);
std::vector<std::uint8_t> encode_response_batch(
    const std::vector<response_record>& batch);

/// Decodes the records of a validated frame. Throws util::error when the
/// frame type does not match or a record overruns the payload.
std::vector<appeal_record> decode_appeal_batch(const frame& f);
std::vector<response_record> decode_response_batch(const frame& f);

/// Incremental frame assembly over an arbitrary byte stream. feed() any
/// chunking (a socket read, a single byte); next() yields complete
/// frames in order and std::nullopt while one is still partial. Malformed
/// input (bad magic/type, oversized payload, any version but kVersion)
/// throws util::error — the stream is unrecoverable at that point and the
/// caller should drop the connection.
class frame_splitter {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  std::optional<frame> next();

  /// Bytes buffered but not yet returned as frames.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace appeal::serve::wire
