// Wire-protocol tests: field-exact round trips, torn/partial reads
// through the frame_splitter, malformed-stream rejection (bad magic,
// any version but the one the build speaks, bad type, oversized frames,
// truncated and tampered records), demux-relevant properties (ids
// survive arbitrary response ordering), and a seeded mutation fuzz of the
// splitter and both decoders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "serve/transport/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace appeal;
using namespace appeal::serve;

tensor make_tensor() {
  std::vector<float> values;
  for (int i = 0; i < 2 * 3 * 4; ++i) values.push_back(0.25F * i - 3.0F);
  return tensor::from_values(shape{2, 3, 4}, std::move(values));
}

std::vector<wire::appeal_view> make_views(const tensor& t) {
  std::vector<wire::appeal_view> views;
  wire::appeal_view a;
  a.id = 7;
  a.key = 0xDEADBEEFCAFEF00DULL;
  a.label = 3;
  a.priority = priority_class::batch;
  a.deadline_ms = 12.5;
  a.model = "vision";
  a.input = &t;
  views.push_back(a);
  wire::appeal_view b;  // unlabeled, no deadline, no pixels
  b.id = 8;
  b.key = 1;
  b.model = "vision";
  views.push_back(b);
  return views;
}

std::optional<wire::frame> split_one(const std::vector<std::uint8_t>& bytes) {
  wire::frame_splitter splitter;
  splitter.feed(bytes.data(), bytes.size());
  return splitter.next();
}

TEST(wire, appeal_batch_round_trips_every_field) {
  const tensor t = make_tensor();
  const std::vector<std::uint8_t> bytes =
      wire::encode_appeal_batch(make_views(t));
  const std::optional<wire::frame> f = split_one(bytes);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, wire::frame_type::appeal_batch);
  EXPECT_EQ(f->count, 2);

  const std::vector<wire::appeal_record> decoded =
      wire::decode_appeal_batch(*f);
  ASSERT_EQ(decoded.size(), 2U);
  const wire::appeal_record& a = decoded[0];
  EXPECT_EQ(a.id, 7U);
  EXPECT_EQ(a.key, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(a.label, 3U);
  EXPECT_EQ(a.priority, priority_class::batch);
  EXPECT_DOUBLE_EQ(a.deadline_ms, 12.5);
  EXPECT_EQ(a.model, "vision");
  ASSERT_EQ(a.input.dims(), t.dims());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(a.input[i], t[i]) << "payload float " << i;
  }
  const wire::appeal_record& b = decoded[1];
  EXPECT_EQ(b.id, 8U);
  EXPECT_EQ(b.label, request::no_label);
  EXPECT_EQ(b.priority, priority_class::interactive);
  EXPECT_LT(b.deadline_ms, 0.0);
  EXPECT_TRUE(b.input.empty());
}

TEST(wire, encoded_size_matches_wire_bytes_prediction) {
  const tensor t = make_tensor();
  const std::vector<wire::appeal_view> views = make_views(t);
  std::size_t expected = wire::kHeaderBytes;
  for (const wire::appeal_view& v : views) {
    expected += wire::appeal_wire_bytes(v);
  }
  EXPECT_EQ(wire::encode_appeal_batch(views).size(), expected);
}

TEST(wire, response_batch_round_trips_in_any_order) {
  // The cloud may answer a coalesced batch in any order (or split it);
  // the per-record id is the demux key and must survive untouched. The
  // middle record is a deadline-shed appeal: its `expired` status must
  // round trip too (the whole point of answering instead of dropping).
  std::vector<wire::response_record> batch;
  for (const std::uint64_t id : {9ULL, 2ULL, 5ULL}) {
    wire::response_record r;
    r.id = id;
    r.prediction = 100 + id;
    r.status = id == 2 ? wire::response_status::expired
                       : wire::response_status::ok;
    r.cloud_ms = 0.5 * static_cast<double>(id);
    batch.push_back(r);
  }
  const std::optional<wire::frame> f =
      split_one(wire::encode_response_batch(batch));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, wire::frame_type::response_batch);
  const std::vector<wire::response_record> decoded =
      wire::decode_response_batch(*f);
  ASSERT_EQ(decoded.size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded[i].id, batch[i].id);
    EXPECT_EQ(decoded[i].prediction, batch[i].prediction);
    EXPECT_EQ(decoded[i].status, batch[i].status);
    EXPECT_DOUBLE_EQ(decoded[i].cloud_ms, batch[i].cloud_ms);
  }
}

TEST(wire, rejects_unknown_response_status) {
  wire::response_record r;
  r.id = 1;
  r.prediction = 4;
  std::vector<std::uint8_t> bytes = wire::encode_response_batch({r});
  // The status byte sits after the header and id + prediction.
  bytes[wire::kHeaderBytes + 16] = 0x7F;
  const std::optional<wire::frame> f = split_one(bytes);
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW(wire::decode_response_batch(*f), util::error);
}

TEST(wire, splitter_assembles_frames_from_single_byte_reads) {
  const tensor t = make_tensor();
  const std::vector<std::uint8_t> bytes =
      wire::encode_appeal_batch(make_views(t));
  wire::frame_splitter splitter;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    splitter.feed(&bytes[i], 1);
    EXPECT_FALSE(splitter.next().has_value())
        << "frame yielded " << (bytes.size() - 1 - i) << " bytes early";
  }
  splitter.feed(&bytes.back(), 1);
  const std::optional<wire::frame> f = splitter.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(wire::decode_appeal_batch(*f).size(), 2U);
  EXPECT_EQ(splitter.buffered(), 0U);
}

TEST(wire, splitter_yields_back_to_back_frames_in_order) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t id = 0; id < 4; ++id) {
    wire::response_record r;
    r.id = id;
    r.prediction = id;
    const std::vector<std::uint8_t> one = wire::encode_response_batch({r});
    stream.insert(stream.end(), one.begin(), one.end());
  }
  wire::frame_splitter splitter;
  // Feed in two arbitrary chunks that straddle frame boundaries.
  const std::size_t cut = stream.size() / 2 + 3;
  splitter.feed(stream.data(), cut);
  splitter.feed(stream.data() + cut, stream.size() - cut);
  for (std::uint64_t id = 0; id < 4; ++id) {
    const std::optional<wire::frame> f = splitter.next();
    ASSERT_TRUE(f.has_value()) << "frame " << id;
    EXPECT_EQ(wire::decode_response_batch(*f).at(0).id, id);
  }
  EXPECT_FALSE(splitter.next().has_value());
}

TEST(wire, rejects_bad_magic_version_and_type) {
  const std::vector<std::uint8_t> good = wire::encode_response_batch({});
  {
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;  // magic
    wire::frame_splitter s;
    s.feed(bad.data(), bad.size());
    EXPECT_THROW(s.next(), util::error);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[4] = 99;  // version
    wire::frame_splitter s;
    s.feed(bad.data(), bad.size());
    EXPECT_THROW(s.next(), util::error);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[5] = 42;  // frame type
    wire::frame_splitter s;
    s.feed(bad.data(), bad.size());
    EXPECT_THROW(s.next(), util::error);
  }
}

TEST(wire, rejects_oversized_frame_before_buffering_it) {
  // A header announcing a payload beyond kMaxFrameBytes must throw from
  // the header alone — the receiver never allocates for it.
  std::vector<std::uint8_t> bad = wire::encode_response_batch({});
  const std::uint32_t huge = wire::kMaxFrameBytes + 1;
  std::memcpy(bad.data() + 8, &huge, 4);
  wire::frame_splitter s;
  s.feed(bad.data(), wire::kHeaderBytes);  // header only, no payload
  EXPECT_THROW(s.next(), util::error);
}

TEST(wire, rejects_truncated_and_tampered_records) {
  const tensor t = make_tensor();
  std::vector<std::uint8_t> bytes = wire::encode_appeal_batch(make_views(t));
  {
    // Shrink the payload but keep the header honest about it: the last
    // record now ends mid-field.
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 5);
    const std::uint32_t payload =
        static_cast<std::uint32_t>(cut.size() - wire::kHeaderBytes);
    std::memcpy(cut.data() + 8, &payload, 4);
    const std::optional<wire::frame> f = split_one(cut);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(wire::decode_appeal_batch(*f), util::error);
  }
  {
    // Tamper the first record's tensor value count so it disagrees with
    // the shape.
    std::vector<std::uint8_t> tampered = bytes;
    // Offset: header + id/key/label (24) + prio/flags/model_len (4) +
    // deadline (8) + rank word (4) + 3 dims (12) = value-count word.
    const std::size_t off = wire::kHeaderBytes + 24 + 4 + 8 + 4 + 12;
    tampered[off] ^= 0x01;
    const std::optional<wire::frame> f = split_one(tampered);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(wire::decode_appeal_batch(*f), util::error);
  }
  {
    // Trailing garbage after the last record.
    std::vector<std::uint8_t> padded = bytes;
    padded.insert(padded.end(), {0, 0, 0});
    const std::uint32_t payload =
        static_cast<std::uint32_t>(padded.size() - wire::kHeaderBytes);
    std::memcpy(padded.data() + 8, &payload, 4);
    const std::optional<wire::frame> f = split_one(padded);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(wire::decode_appeal_batch(*f), util::error);
  }
}

TEST(wire, rejects_dims_whose_product_overflows) {
  // A crafted record whose u32 dims multiply to 0 mod 2^64 would pass a
  // naive values == product check with values = 0 and yield a tensor
  // whose shape promises 2^224 elements over empty storage.
  std::vector<std::uint8_t> raw;
  const auto put = [&raw](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      raw.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put(wire::kMagic, 4);
  put(wire::kVersion, 1);
  put(static_cast<std::uint64_t>(wire::frame_type::appeal_batch), 1);
  put(1, 2);  // count
  const std::size_t payload_at = raw.size();
  put(0, 4);  // payload_bytes backpatched below
  put(1, 8);  // id
  put(2, 8);  // key
  put(3, 8);  // label
  put(0, 1);  // priority
  put(0, 1);  // flags
  put(0, 2);  // model_len
  put(0, 8);  // deadline bits
  put(8, 4);  // rank
  for (int d = 0; d < 8; ++d) put(1ull << 28, 4);  // product wraps to 0
  put(0, 4);  // value_count "matches" the wrapped product
  const std::uint64_t payload = raw.size() - wire::kHeaderBytes;
  for (int i = 0; i < 4; ++i) {
    raw[payload_at + i] = static_cast<std::uint8_t>(payload >> (8 * i));
  }
  const std::optional<wire::frame> f = split_one(raw);
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW(wire::decode_appeal_batch(*f), util::error);
}

TEST(wire, appeal_trace_id_round_trips) {
  const tensor t = make_tensor();
  std::vector<wire::appeal_view> views = make_views(t);
  views[0].trace_id = 0xFEEDFACE12345678ULL;  // views[1] stays untraced
  const std::optional<wire::frame> f =
      split_one(wire::encode_appeal_batch(views));
  ASSERT_TRUE(f.has_value());
  const std::vector<wire::appeal_record> decoded =
      wire::decode_appeal_batch(*f);
  ASSERT_EQ(decoded.size(), 2U);
  EXPECT_EQ(decoded[0].trace_id, 0xFEEDFACE12345678ULL);
  EXPECT_EQ(decoded[1].trace_id, 0U);
}

TEST(wire, response_stage_split_round_trips) {
  wire::response_record r;
  r.id = 11;
  r.prediction = 4;
  r.cloud_ms = 3.5;
  r.cloud_queue_ms = 2.25;
  r.cloud_score_ms = 1.25;
  const std::optional<wire::frame> f =
      split_one(wire::encode_response_batch({r}));
  ASSERT_TRUE(f.has_value());
  const std::vector<wire::response_record> decoded =
      wire::decode_response_batch(*f);
  ASSERT_EQ(decoded.size(), 1U);
  EXPECT_DOUBLE_EQ(decoded[0].cloud_queue_ms, 2.25);
  EXPECT_DOUBLE_EQ(decoded[0].cloud_score_ms, 1.25);
}

TEST(wire, overloaded_and_rejected_statuses_round_trip) {
  // The backpressure answer: `overloaded` plus the cloud's queue-wait
  // estimate as a retry-after hint, alongside a `rejected` split appeal
  // and an ok record in the same frame (whose hints must stay zero).
  wire::response_record shed;
  shed.id = 21;
  shed.status = wire::response_status::overloaded;
  shed.retry_after_ms = 37.5;
  wire::response_record rejected;
  rejected.id = 23;
  rejected.status = wire::response_status::rejected;
  wire::response_record ok;
  ok.id = 22;
  ok.prediction = 6;
  ok.cloud_ms = 1.5;
  const std::optional<wire::frame> f =
      split_one(wire::encode_response_batch({shed, ok, rejected}));
  ASSERT_TRUE(f.has_value());
  const std::vector<wire::response_record> decoded =
      wire::decode_response_batch(*f);
  ASSERT_EQ(decoded.size(), 3U);
  EXPECT_EQ(decoded[0].status, wire::response_status::overloaded);
  EXPECT_DOUBLE_EQ(decoded[0].retry_after_ms, 37.5);
  EXPECT_EQ(decoded[1].status, wire::response_status::ok);
  EXPECT_EQ(decoded[1].prediction, 6U);
  EXPECT_DOUBLE_EQ(decoded[1].retry_after_ms, 0.0);
  EXPECT_EQ(decoded[2].status, wire::response_status::rejected);
}

TEST(wire, rejects_a_v4_frame_at_the_first_frame) {
  // Both link ends ship from one source tree, so any other version is a
  // mismatched peer: the splitter refuses its first frame outright and
  // says which version it got and which it speaks.
  const tensor t = make_tensor();
  std::vector<std::uint8_t> old = wire::encode_appeal_batch(make_views(t));
  old[4] = 4;
  try {
    (void)split_one(old);
    FAIL() << "a v4 frame was accepted";
  } catch (const util::error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 4"), std::string::npos) << what;
    EXPECT_NE(what.find("version " + std::to_string(wire::kVersion)),
              std::string::npos)
        << what;
  }
}

TEST(wire, decoders_reject_mismatched_frame_type) {
  const std::optional<wire::frame> resp =
      split_one(wire::encode_response_batch({}));
  ASSERT_TRUE(resp.has_value());
  EXPECT_THROW(wire::decode_appeal_batch(*resp), util::error);
  const tensor t = make_tensor();
  const std::optional<wire::frame> appeal =
      split_one(wire::encode_appeal_batch(make_views(t)));
  ASSERT_TRUE(appeal.has_value());
  EXPECT_THROW(wire::decode_response_batch(*appeal), util::error);
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing of frame_splitter, decode_appeal_batch and
// decode_response_batch. Valid frames of every shape the link carries are
// mutated — bit flips, truncations, length-field edits, splices — and fed
// to a splitter in random torn chunks. Every input must end in a clean
// decode, a frame the splitter is still waiting on, or util::error; any
// other exception fails the test, and the sanitizer builds turn an
// out-of-bounds read or undefined arithmetic into a failure too. The seed
// is fixed, so a failure reproduces exactly.
// ---------------------------------------------------------------------------

using frame_bytes = std::vector<std::uint8_t>;

/// Valid frames covering every optional field and response status.
std::vector<frame_bytes> seed_frames() {
  static const tensor image =
      tensor::from_values(shape{2, 3, 3}, std::vector<float>(18, 0.5F));
  static const tensor feature =
      tensor::from_values(shape{4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<wire::appeal_view> appeals(4);  // [3] ships no pixels
  for (std::size_t i = 0; i < 3; ++i) appeals[i].input = &image;
  appeals[0].deadline_ms = 25.0;
  appeals[0].model = "vision";
  appeals[1].trace_id = 0xABCDEF;
  appeals[1].priority = priority_class::batch;
  appeals[2].split_cut = 2;
  appeals[2].feature = &feature;
  std::vector<wire::response_record> responses(4);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    responses[i].id = i;
    responses[i].status = static_cast<wire::response_status>(i);
    responses[i].cloud_ms = 1.5;
    responses[i].retry_after_ms = 12.0;
  }
  return {wire::encode_appeal_batch(appeals),
          wire::encode_appeal_batch({appeals[2]}),
          wire::encode_appeal_batch({}),
          wire::encode_response_batch(responses)};
}

struct outcome_counts {
  std::size_t decoded = 0;     // frames that decoded cleanly
  std::size_t rejected = 0;    // inputs that ended in util::error
  std::size_t incomplete = 0;  // inputs the splitter is still waiting on
};

/// Feeds `in` in random chunks and decodes every frame the splitter
/// yields. Only util::error may escape the wire code.
void consume(const frame_bytes& in, util::rng& gen, outcome_counts& counts) {
  wire::frame_splitter splitter;
  try {
    for (std::size_t pos = 0; pos < in.size();) {
      const std::size_t chunk =
          1 + gen.uniform_index(std::min<std::size_t>(in.size() - pos, 64));
      splitter.feed(in.data() + pos, chunk);
      pos += chunk;
      while (std::optional<wire::frame> f = splitter.next()) {
        if (f->type == wire::frame_type::appeal_batch) {
          (void)wire::decode_appeal_batch(*f);
        } else {
          (void)wire::decode_response_batch(*f);
        }
        ++counts.decoded;
      }
    }
    if (splitter.buffered() > 0) ++counts.incomplete;
  } catch (const util::error&) {
    ++counts.rejected;
  }
}

/// Writes a value on the edge of a length check over 4 bytes at `at`.
void put_edge_u32(frame_bytes& b, std::size_t at, util::rng& gen) {
  const std::uint32_t edges[] = {
      0u, 1u, 9u, static_cast<std::uint32_t>(b.size()),
      static_cast<std::uint32_t>(b.size() + 1), 0x7FFFFFFFu, 0xFFFFFFFFu,
      static_cast<std::uint32_t>(wire::kMaxFrameBytes + 1),
      static_cast<std::uint32_t>(gen.next_u64())};
  const std::uint32_t v = edges[gen.uniform_index(std::size(edges))];
  for (std::size_t i = 0; i < 4 && at + i < b.size(); ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// One mutation of a non-empty input.
void mutate(frame_bytes& b, util::rng& gen) {
  const std::size_t header = wire::kHeaderBytes;
  switch (gen.uniform_index(5)) {
    case 0:  // bit flips anywhere, header included
      for (std::size_t i = 0, n = 1 + gen.uniform_index(8); i < n; ++i) {
        b[gen.uniform_index(b.size())] ^=
            static_cast<std::uint8_t>(1u << gen.uniform_index(8));
      }
      break;
    case 1:  // truncation: the splitter must wait, not read past the end
      b.resize(gen.uniform_index(b.size()));
      break;
    case 2:  // truncation with an honest header: records end mid-field
      if (b.size() > header) {
        b.resize(header + gen.uniform_index(b.size() - header));
        const std::size_t payload = b.size() - header;
        for (std::size_t i = 0; i < 4; ++i) {
          b[8 + i] = static_cast<std::uint8_t>(payload >> (8 * i));
        }
      }
      break;
    case 3:  // a length field: count, payload_bytes, or any record word
      put_edge_u32(b, gen.bernoulli(0.5) ? 6 + 2 * gen.uniform_index(2)
                                         : gen.uniform_index(b.size()),
                   gen);
      break;
    default: {  // splice random bytes in
      frame_bytes junk(1 + gen.uniform_index(16));
      for (std::uint8_t& x : junk) {
        x = static_cast<std::uint8_t>(gen.next_u64());
      }
      const std::size_t at = gen.uniform_index(b.size() + 1);
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), junk.begin(),
               junk.end());
    }
  }
}

TEST(wire_fuzz, torn_valid_streams_decode_every_frame) {
  util::rng gen(0xF00D);
  const std::vector<frame_bytes> seeds = seed_frames();
  frame_bytes stream;
  for (const frame_bytes& f : seeds) {
    stream.insert(stream.end(), f.begin(), f.end());
  }
  for (int round = 0; round < 200; ++round) {
    outcome_counts counts;
    consume(stream, gen, counts);
    ASSERT_EQ(counts.decoded, seeds.size()) << "round " << round;
    ASSERT_EQ(counts.rejected + counts.incomplete, 0U) << "round " << round;
  }
}

TEST(wire_fuzz, mutated_frames_decode_or_raise_util_error) {
  util::rng gen(0x5EED5);
  const std::vector<frame_bytes> seeds = seed_frames();
  outcome_counts counts;
  for (int round = 0; round < 20000; ++round) {
    frame_bytes input = seeds[gen.uniform_index(seeds.size())];
    if (gen.bernoulli(0.2)) {  // two frames back to back
      const frame_bytes& more = seeds[gen.uniform_index(seeds.size())];
      input.insert(input.end(), more.begin(), more.end());
    }
    std::size_t mutations = 1 + gen.uniform_index(3);
    while (mutations-- > 0 && !input.empty()) mutate(input, gen);
    consume(input, gen, counts);
  }
  // The loop must reach every outcome, or it is not testing much.
  EXPECT_GT(counts.decoded, 0U);
  EXPECT_GT(counts.rejected, 0U);
  EXPECT_GT(counts.incomplete, 0U);
}

}  // namespace
