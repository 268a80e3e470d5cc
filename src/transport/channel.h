#ifndef SETREC_TRANSPORT_CHANNEL_H_
#define SETREC_TRANSPORT_CHANNEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/serialization.h"

namespace setrec {

/// The two parties of a reconciliation protocol.
enum class Party : uint8_t { kAlice = 0, kBob = 1 };

inline const char* PartyName(Party p) {
  return p == Party::kAlice ? "Alice" : "Bob";
}

/// An in-memory simulated channel between Alice and Bob with exact
/// accounting of the two costs the paper reports: total bits communicated
/// and the number of rounds. Following Section 2, "the number of rounds of
/// communication ... denotes the number of total messages sent", so
/// rounds() == number of Send calls.
class Channel {
 public:
  struct Message {
    /// Default-initialized so a default-constructed Message (a decode
    /// target) never carries an indeterminate sender.
    Party from = Party::kAlice;
    std::vector<uint8_t> payload;
    /// Free-form label ("T1", "estimator", ...) for transcript inspection.
    std::string label;
  };

  Channel() = default;

  /// Records a message from `from`; returns its index in the transcript.
  size_t Send(Party from, std::vector<uint8_t> payload,
              std::string label = "");

  /// Retrieves message `index`; the caller (the other party) parses it.
  const Message& Receive(size_t index) const { return messages_.at(index); }

  /// Number of messages sent so far (== rounds, per the paper's convention).
  size_t rounds() const { return messages_.size(); }

  /// Total payload bytes across all messages.
  size_t total_bytes() const { return total_bytes_; }

  /// Total payload bytes sent by `party`.
  size_t bytes_from(Party party) const {
    return party == Party::kAlice ? bytes_alice_ : bytes_bob_;
  }

  const std::vector<Message>& transcript() const { return messages_; }

  /// Forgets all traffic (used between retry attempts when the caller wants
  /// per-attempt accounting; protocols normally keep cumulative totals since
  /// retries are real communication).
  void Reset();

 private:
  std::vector<Message> messages_;
  size_t total_bytes_ = 0;
  size_t bytes_alice_ = 0;
  size_t bytes_bob_ = 0;
};

/// Bundles every message of `sub` into one length-prefixed message on
/// `main`, attributed to `from`. Composite protocols (graph and forest
/// reconciliation) run a sets-of-sets sub-protocol locally, then ship the
/// full sub-transcript (frames keep per-message sender attribution —
/// split-party verdict frames travel Bob→Alice) plus their own payload as
/// a single round; this helper keeps the byte accounting exact.
size_t ForwardAsSingleMessage(const Channel& sub, Party from, Channel* main,
                              std::string label);

/// Appends one message frame — a sender byte, the length-prefixed label,
/// and the length-prefixed payload. This is the shared wire unit: a packed
/// transcript is a varint count followed by frames, and a socket stream
/// (src/net/) is a plain sequence of frames read back by FrameDecoder, so
/// both read/write messages through the same functions.
void WriteMessageFrame(const Channel::Message& message, ByteWriter* writer);

/// Parses one message frame at the reader's position. Returns false
/// (consuming an unspecified prefix) on truncated or malformed input.
[[nodiscard]] bool ReadMessageFrame(ByteReader* reader,
                                    Channel::Message* out);

/// Incremental decoder for a stream of wire frames (the exact per-message
/// format of PackTranscript, minus the leading count): feed arbitrary byte
/// chunks, pop whole messages as they complete. A packed transcript body
/// therefore parses with this decoder too.
class FrameDecoder {
 public:
  /// Ceiling on a single frame's label or payload length. A hostile length
  /// prefix above it latches failed() instead of parking the decoder in
  /// "need more bytes" while the caller feeds (and buffers) forever.
  static constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends a chunk of stream bytes.
  void Feed(const uint8_t* data, size_t n);
  void Feed(const std::vector<uint8_t>& data) { Feed(data.data(), data.size()); }

  /// Extracts the next complete frame. Returns false when the buffered
  /// bytes do not (yet) contain a whole frame; feed more and retry. Once a
  /// frame prefix proves malformed (bad sender byte, overlong varint, a
  /// length above the frame-size bound) the decoder latches failed() and
  /// returns false forever.
  [[nodiscard]] bool Next(Channel::Message* out);

  /// True after a malformed frame was encountered; the stream cannot be
  /// resynchronized.
  bool failed() const { return failed_; }

  /// Bytes buffered but not yet consumed by complete frames.
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  size_t max_frame_bytes_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  bool failed_ = false;
};

/// Serializes a sub-transcript into a byte block: a varint message count,
/// then one WriteMessageFrame per message — the full Channel::Message, so
/// a forwarded sub-transcript round-trips without losing sender
/// attribution. Used by composite protocols that append their own sections
/// after the sub-transcript. Codec-agnostic by construction: payloads are
/// opaque bytes here, so a packed transcript of sparse-codec frames
/// (WireCodec::kSparse table payloads) round-trips through
/// Pack/Unpack/SkipPackedTranscript byte-identically, exactly like dense.
std::vector<uint8_t> PackTranscript(const Channel& sub);

/// Inverse of PackTranscript: parses the packed block at the reader's
/// current position into messages. Returns false (consuming an unspecified
/// prefix) on truncated or malformed input.
[[nodiscard]] bool UnpackTranscript(ByteReader* reader,
                                    std::vector<Channel::Message>* messages);

/// Advances `reader` past a packed sub-transcript without keeping the
/// messages — the shape consumers need when the sub-protocol already ran
/// locally and only the sections after the transcript matter.
[[nodiscard]] bool SkipPackedTranscript(ByteReader* reader);

}  // namespace setrec

#endif  // SETREC_TRANSPORT_CHANNEL_H_
