#include "serve/protocol.h"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/error.h"

namespace wcp::serve {

namespace {

[[noreturn]] void fail(const std::string& why) {
  throw std::invalid_argument("wcp-stream parse error: " + why);
}

/// Counts the bytes a Writer would write, so a frame is encoded into one
/// exactly pre-sized buffer.
class Sizer {
 public:
  void u8(std::uint8_t) { size_ += 1; }
  void u32(std::uint32_t) { size_ += 4; }
  void u64(std::uint64_t) { size_ += 8; }
  void i64(std::int64_t) { size_ += 8; }
  void bytes(const void*, std::size_t len) { size_ += len; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Little-endian writer into a buffer of a size fixed up front.
class Writer {
 public:
  explicit Writer(std::size_t size) : out_(size) {}

  void u8(std::uint8_t v) { out_[pos_++] = v; }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(const void* p, std::size_t len) {
    if (len > 0) std::memcpy(out_.data() + pos_, p, len);
    pos_ += len;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() {
    WCP_CHECK(pos_ == out_.size());
    return std::move(out_);
  }

 private:
  void le(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i)
      out_[pos_++] = std::uint8_t(v >> (8 * i));
  }

  std::vector<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// Positioned little-endian reader over one frame's bytes. `where` names
/// the frame (type + seq) in every error.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, std::string where)
      : bytes_(bytes), where_(std::move(where)) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t u8() {
    need(1, "u8");
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  void raw(void* p, std::size_t len, const char* what) {
    need(len, what);
    std::memcpy(p, bytes_.data() + pos_, len);
    pos_ += len;
  }

  void expect_done() {
    if (pos_ != bytes_.size()) {
      std::ostringstream os;
      os << bytes_.size() - pos_ << " trailing payload bytes in " << where_;
      fail(os.str());
    }
  }

  [[noreturn]] void error(const std::string& why) const {
    std::ostringstream os;
    os << why << " in " << where_ << " at byte " << pos_;
    fail(os.str());
  }

 private:
  void need(std::size_t len, const char* what) const {
    if (remaining() < len) {
      std::ostringstream os;
      os << "truncated " << where_ << ": need " << len << "-byte " << what
         << " at byte " << pos_ << ", have " << remaining();
      fail(os.str());
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::string where_;
  std::size_t pos_ = 0;
};

std::string frame_name(FrameType t, std::uint64_t seq) {
  std::ostringstream os;
  os << to_string(t) << " frame (seq " << seq << ")";
  return os.str();
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kSubscribe: return "subscribe";
    case FrameType::kSnapshot: return "snapshot";
    case FrameType::kEos: return "eos";
    case FrameType::kFinish: return "finish";
    case FrameType::kAck: return "ack";
    case FrameType::kVerdict: return "verdict";
    case FrameType::kStats: return "stats";
    case FrameType::kError: return "error";
  }
  return "unknown";
}

const char* to_string(StreamAlgo a) {
  switch (a) {
    case StreamAlgo::kToken: return "token";
    case StreamAlgo::kChecker: return "checker";
    case StreamAlgo::kLatticeOnline: return "lattice-online";
    case StreamAlgo::kSlicer: return "slicer";
  }
  return "unknown";
}

StreamAlgo stream_algo_from_string(const std::string& name) {
  if (name == "token") return StreamAlgo::kToken;
  if (name == "checker") return StreamAlgo::kChecker;
  if (name == "lattice-online") return StreamAlgo::kLatticeOnline;
  if (name == "slicer") return StreamAlgo::kSlicer;
  throw std::invalid_argument("unknown stream algo '" + name +
                              "' (token|checker|lattice-online|slicer)");
}

Frame make_hello(std::uint32_t slots, std::uint32_t num_predicates) {
  Frame f;
  f.type = FrameType::kHello;
  f.hello = HelloBody{kStreamVersion, slots, num_predicates};
  return f;
}

Frame make_subscribe(std::uint32_t sub_id, StreamAlgo algo,
                     std::uint32_t pred_index, std::int64_t max_cuts) {
  Frame f;
  f.type = FrameType::kSubscribe;
  f.subscribe = SubscribeBody{sub_id, algo, pred_index, max_cuts};
  return f;
}

Frame make_snapshot(std::uint32_t slot, std::uint64_t pred_mask,
                    std::vector<StateIndex> clock) {
  Frame f;
  f.type = FrameType::kSnapshot;
  f.snapshot.slot = slot;
  f.snapshot.pred_mask = pred_mask;
  f.snapshot.clock = std::move(clock);
  return f;
}

Frame make_eos(std::uint32_t slot) {
  Frame f;
  f.type = FrameType::kEos;
  f.eos.slot = slot;
  return f;
}

Frame make_finish() {
  Frame f;
  f.type = FrameType::kFinish;
  return f;
}

Frame make_ack(std::uint64_t next_seq) {
  Frame f;
  f.type = FrameType::kAck;
  f.ack.next_seq = next_seq;
  return f;
}

Frame make_verdict(std::uint32_t sub_id, bool detected, bool truncated,
                   std::vector<StateIndex> cut) {
  Frame f;
  f.type = FrameType::kVerdict;
  f.verdict.sub_id = sub_id;
  f.verdict.detected = detected;
  f.verdict.truncated = truncated;
  f.verdict.cut = std::move(cut);
  return f;
}

Frame make_stats(const ServeStats& stats) {
  Frame f;
  f.type = FrameType::kStats;
  f.stats.stats = stats;
  return f;
}

Frame make_error(std::string message) {
  Frame f;
  f.type = FrameType::kError;
  f.error.message = std::move(message);
  return f;
}

namespace {

template <class W>
void write_payload(W& w, const Frame& f) {
  switch (f.type) {
    case FrameType::kHello:
      w.bytes(kStreamMagic, sizeof(kStreamMagic));
      w.u32(f.hello.version);
      w.u32(f.hello.slots);
      w.u32(f.hello.num_predicates);
      break;
    case FrameType::kSubscribe:
      w.u32(f.subscribe.sub_id);
      w.u8(static_cast<std::uint8_t>(f.subscribe.algo));
      w.u32(f.subscribe.pred_index);
      w.i64(f.subscribe.max_cuts);
      break;
    case FrameType::kSnapshot:
      w.u32(f.snapshot.slot);
      w.u64(f.snapshot.pred_mask);
      for (const StateIndex c : f.snapshot.clock)
        w.u64(static_cast<std::uint64_t>(c));
      break;
    case FrameType::kEos:
      w.u32(f.eos.slot);
      break;
    case FrameType::kFinish:
      break;
    case FrameType::kAck:
      w.u64(f.ack.next_seq);
      break;
    case FrameType::kVerdict: {
      w.u32(f.verdict.sub_id);
      std::uint8_t flags = 0;
      if (f.verdict.detected) flags |= 1;
      if (f.verdict.truncated) flags |= 2;
      w.u8(flags);
      w.u32(static_cast<std::uint32_t>(f.verdict.cut.size()));
      for (const StateIndex c : f.verdict.cut)
        w.u64(static_cast<std::uint64_t>(c));
      break;
    }
    case FrameType::kStats: {
      const auto values = f.stats.stats.values();
      w.u32(static_cast<std::uint32_t>(values.size()));
      for (const std::int64_t v : values) w.i64(v);
      break;
    }
    case FrameType::kError:
      w.u32(static_cast<std::uint32_t>(f.error.message.size()));
      w.bytes(f.error.message.data(), f.error.message.size());
      break;
  }
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& f, std::uint64_t seq) {
  Sizer payload;
  write_payload(payload, f);
  const std::size_t length = kFrameOverhead + payload.size();
  Writer w(4 + length);
  w.u32(static_cast<std::uint32_t>(length));
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(f.type));
  write_payload(w, f);
  return w.take();
}

FrameHeader peek_header(std::span<const std::uint8_t> bytes) {
  Reader r(bytes, "frame header");
  if (bytes.size() < 4) {
    std::ostringstream os;
    os << "truncated frame header: need 4-byte length, have " << bytes.size();
    fail(os.str());
  }
  FrameHeader h;
  h.length = r.u32();
  if (h.length < kFrameOverhead || h.length > kMaxFrameLength) {
    std::ostringstream os;
    os << "frame length " << h.length << " out of range [" << kFrameOverhead
       << ", " << kMaxFrameLength << "]";
    fail(os.str());
  }
  if (bytes.size() < 4u + h.length) {
    std::ostringstream os;
    os << "truncated frame: length field promises " << h.length
       << " bytes, have " << bytes.size() - 4;
    fail(os.str());
  }
  h.seq = r.u64();
  const std::uint8_t t = r.u8();
  if (t < static_cast<std::uint8_t>(FrameType::kHello) ||
      t > static_cast<std::uint8_t>(FrameType::kError)) {
    std::ostringstream os;
    os << "unknown frame type " << int(t) << " (seq " << h.seq << ")";
    fail(os.str());
  }
  h.type = static_cast<FrameType>(t);
  return h;
}

Frame decode_frame(std::span<const std::uint8_t> bytes,
                   std::uint32_t snapshot_slots) {
  const FrameHeader h = peek_header(bytes);
  if (bytes.size() != 4u + h.length) {
    std::ostringstream os;
    os << bytes.size() - 4 - h.length << " trailing bytes after "
       << frame_name(h.type, h.seq);
    fail(os.str());
  }

  Frame f;
  f.seq = h.seq;
  f.type = h.type;
  Reader r(bytes.subspan(4 + kFrameOverhead), frame_name(h.type, h.seq));

  switch (h.type) {
    case FrameType::kHello: {
      char magic[sizeof(kStreamMagic)];
      r.raw(magic, sizeof(magic), "magic");
      if (std::memcmp(magic, kStreamMagic, sizeof(magic)) != 0)
        r.error("bad magic (expected \"wcpstrm1\")");
      f.hello.version = r.u32();
      if (f.hello.version != kStreamVersion) {
        std::ostringstream os;
        os << "unsupported version " << f.hello.version << " (expected "
           << kStreamVersion << ")";
        r.error(os.str());
      }
      f.hello.slots = r.u32();
      if (f.hello.slots < 1 || f.hello.slots > kMaxSlots) {
        std::ostringstream os;
        os << "slot count " << f.hello.slots << " out of range [1, "
           << kMaxSlots << "]";
        r.error(os.str());
      }
      f.hello.num_predicates = r.u32();
      if (f.hello.num_predicates < 1 ||
          f.hello.num_predicates > kMaxPredicates) {
        std::ostringstream os;
        os << "predicate count " << f.hello.num_predicates
           << " out of range [1, " << kMaxPredicates << "]";
        r.error(os.str());
      }
      break;
    }
    case FrameType::kSubscribe: {
      f.subscribe.sub_id = r.u32();
      const std::uint8_t a = r.u8();
      if (a < static_cast<std::uint8_t>(StreamAlgo::kToken) ||
          a > static_cast<std::uint8_t>(StreamAlgo::kSlicer)) {
        std::ostringstream os;
        os << "unknown algo " << int(a);
        r.error(os.str());
      }
      f.subscribe.algo = static_cast<StreamAlgo>(a);
      f.subscribe.pred_index = r.u32();
      f.subscribe.max_cuts = r.i64();
      break;
    }
    case FrameType::kSnapshot: {
      f.snapshot.slot = r.u32();
      f.snapshot.pred_mask = r.u64();
      if (r.remaining() % 8 != 0) {
        std::ostringstream os;
        os << "clock payload of " << r.remaining()
           << " bytes is not a whole number of u64 components";
        r.error(os.str());
      }
      const std::size_t width = r.remaining() / 8;
      if (snapshot_slots > 0 && width != snapshot_slots) {
        std::ostringstream os;
        os << "clock has " << width << " components, session has "
           << snapshot_slots << " slots";
        r.error(os.str());
      }
      f.snapshot.clock.resize(width);
      for (std::size_t t = 0; t < width; ++t) {
        const std::uint64_t c = r.u64();
        if (c > 0x7FFFFFFFFFFFFFFFull) {
          std::ostringstream os;
          os << "clock component " << t << " overflows";
          r.error(os.str());
        }
        f.snapshot.clock[t] = static_cast<StateIndex>(c);
      }
      break;
    }
    case FrameType::kEos:
      f.eos.slot = r.u32();
      break;
    case FrameType::kFinish:
      break;
    case FrameType::kAck:
      f.ack.next_seq = r.u64();
      break;
    case FrameType::kVerdict: {
      f.verdict.sub_id = r.u32();
      const std::uint8_t flags = r.u8();
      if (flags > 3) {
        std::ostringstream os;
        os << "unknown verdict flags " << int(flags);
        r.error(os.str());
      }
      f.verdict.detected = (flags & 1) != 0;
      f.verdict.truncated = (flags & 2) != 0;
      const std::uint32_t len = r.u32();
      if (len > kMaxSlots) {
        std::ostringstream os;
        os << "cut length " << len << " out of range [0, " << kMaxSlots
           << "]";
        r.error(os.str());
      }
      f.verdict.cut.resize(len);
      for (std::uint32_t i = 0; i < len; ++i)
        f.verdict.cut[i] = static_cast<StateIndex>(r.u64());
      break;
    }
    case FrameType::kStats: {
      const std::uint32_t count = r.u32();
      if (count > 1024) {
        std::ostringstream os;
        os << "stats count " << count << " out of range [0, 1024]";
        r.error(os.str());
      }
      std::vector<std::int64_t> values(count);
      for (std::uint32_t i = 0; i < count; ++i) values[i] = r.i64();
      f.stats.stats = ServeStats::from_values(values);
      break;
    }
    case FrameType::kError: {
      const std::uint32_t len = r.u32();
      if (len != r.remaining()) {
        std::ostringstream os;
        os << "message length " << len << " disagrees with payload ("
           << r.remaining() << " bytes left)";
        r.error(os.str());
      }
      f.error.message.resize(len);
      r.raw(f.error.message.data(), len, "message");
      break;
    }
  }
  r.expect_done();
  return f;
}

void FrameAssembler::feed(std::span<const std::uint8_t> bytes) {
  // Compact once the consumed prefix dominates the buffer.
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<std::vector<std::uint8_t>> FrameAssembler::next() {
  const std::size_t avail = buf_.size() - off_;
  if (avail < 4) return std::nullopt;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i)
    length |= std::uint32_t(buf_[off_ + static_cast<std::size_t>(i)])
              << (8 * i);
  if (length < kFrameOverhead || length > kMaxFrameLength) {
    std::ostringstream os;
    os << "frame length " << length << " out of range [" << kFrameOverhead
       << ", " << kMaxFrameLength << "]";
    fail(os.str());
  }
  if (avail < 4u + length) return std::nullopt;
  std::vector<std::uint8_t> frame(buf_.begin() + static_cast<std::ptrdiff_t>(off_),
                                  buf_.begin() + static_cast<std::ptrdiff_t>(off_ + 4 + length));
  off_ += 4u + length;
  return frame;
}

}  // namespace wcp::serve
