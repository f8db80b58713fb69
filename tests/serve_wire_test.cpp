// Wire framing tests: request/result round trips, stream reassembly,
// malformed-frame rejection, and the double-packed msg::World transport.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/msg/msg.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/serve/server.hpp"
#include "sacpp/serve/wire.hpp"

using namespace sacpp;
using namespace sacpp::serve;

namespace {

SolveRequest sample_request() {
  SolveRequest req;
  req.id = 0x0123456789abcdefull;
  req.cls = mg::MgClass::W;
  req.variant = mg::Variant::kSac;
  req.nit = 7;
  req.priority = Priority::kHigh;
  req.stencil_mode = sac::StencilMode::kPlanes;
  req.backend = sac::BackendKind::kSimd;
  req.gang = 3;
  req.deadline_ns = 1'500'000'000;
  req.record_norms = true;
  return req;
}

SolveResult sample_result() {
  SolveResult res;
  res.id = 42;
  res.status = SolveStatus::kDeadlineMiss;
  res.final_norm = 5.307707005734909e-05;
  res.seconds = 0.125;
  res.queue_ns = 1234;
  res.e2e_ns = 56789;
  res.gang = 2;
  res.verified = true;
  res.error = "late by 3ms";
  return res;
}

TEST(ServeWire, RequestRoundTrip) {
  const SolveRequest req = sample_request();
  const std::vector<std::uint8_t> frame = encode_request(req);
  ASSERT_EQ(frame_size(frame), frame.size());

  SolveRequest back;
  std::string error;
  ASSERT_TRUE(decode_request(frame, &back, &error)) << error;
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.cls, req.cls);
  EXPECT_EQ(back.variant, req.variant);
  EXPECT_EQ(back.nit, req.nit);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.stencil_mode, req.stencil_mode);
  EXPECT_EQ(back.backend, req.backend);
  EXPECT_EQ(back.gang, req.gang);
  EXPECT_EQ(back.deadline_ns, req.deadline_ns);
  EXPECT_EQ(back.record_norms, req.record_norms);
}

TEST(ServeWire, ResultRoundTrip) {
  const SolveResult res = sample_result();
  const std::vector<std::uint8_t> frame = encode_result(res);
  ASSERT_EQ(frame_size(frame), frame.size());

  SolveResult back;
  std::string error;
  ASSERT_TRUE(decode_result(frame, &back, &error)) << error;
  EXPECT_EQ(back.id, res.id);
  EXPECT_EQ(back.status, res.status);
  EXPECT_EQ(back.final_norm, res.final_norm);  // bit-exact through the wire
  EXPECT_EQ(back.seconds, res.seconds);
  EXPECT_EQ(back.queue_ns, res.queue_ns);
  EXPECT_EQ(back.e2e_ns, res.e2e_ns);
  EXPECT_EQ(back.gang, res.gang);
  EXPECT_EQ(back.verified, res.verified);
  EXPECT_EQ(back.error, res.error);
}

TEST(ServeWire, StreamReassembly) {
  // Two frames concatenated: frame_size peels them one at a time, and a
  // partial prefix reports "incomplete" instead of guessing.
  const std::vector<std::uint8_t> a = encode_request(sample_request());
  const std::vector<std::uint8_t> b = encode_result(sample_result());
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  ASSERT_EQ(frame_size(stream), a.size());
  const std::span<const std::uint8_t> rest =
      std::span<const std::uint8_t>(stream).subspan(a.size());
  ASSERT_EQ(frame_size(rest), b.size());

  for (std::size_t cut = 0; cut < a.size(); ++cut) {
    EXPECT_EQ(frame_size(std::span<const std::uint8_t>(a.data(), cut)), 0u)
        << "prefix of " << cut << " bytes should be incomplete";
  }
}

TEST(ServeWire, RejectsWrongMagic) {
  std::vector<std::uint8_t> frame = encode_request(sample_request());
  frame[4] ^= 0xff;  // corrupt the magic
  SolveRequest out;
  std::string error;
  EXPECT_FALSE(decode_request(frame, &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  // A result frame is not a request frame either.
  EXPECT_FALSE(decode_request(encode_result(sample_result()), &out, &error));
}

TEST(ServeWire, RejectsBadVersion) {
  std::vector<std::uint8_t> frame = encode_request(sample_request());
  frame[8] = kWireVersion + 1;
  SolveRequest out;
  std::string error;
  EXPECT_FALSE(decode_request(frame, &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(ServeWire, RejectsTruncatedAndOversized) {
  const std::vector<std::uint8_t> frame = encode_request(sample_request());
  SolveRequest out;
  std::string error;
  // Truncated: drop the last byte.
  EXPECT_FALSE(decode_request(
      std::span<const std::uint8_t>(frame.data(), frame.size() - 1), &out,
      &error));
  // Length prefix beyond the cap: frame_size clamps, decode reports.
  std::vector<std::uint8_t> huge = frame;
  huge[0] = 0xff;
  huge[1] = 0xff;
  huge[2] = 0xff;
  huge[3] = 0x7f;
  EXPECT_FALSE(decode_request(huge, &out, &error));
}

TEST(ServeWire, RejectsOutOfRangeEnums) {
  // Priority byte sits after length(4) + magic(4) + version(1) + id(8) +
  // cls(1) + variant(1).
  std::vector<std::uint8_t> frame = encode_request(sample_request());
  frame[19] = 99;
  SolveRequest out;
  std::string error;
  EXPECT_FALSE(decode_request(frame, &out, &error));
  EXPECT_NE(error.find("priority"), std::string::npos) << error;
}

TEST(ServeWire, RejectsOutOfRangeBackend) {
  // Backend byte sits after length(4) + magic(4) + version(1) + id(8) +
  // cls(1) + variant(1) + priority(1) + stencil(1).
  std::vector<std::uint8_t> frame = encode_request(sample_request());
  frame[21] = 99;
  SolveRequest out;
  std::string error;
  EXPECT_FALSE(decode_request(frame, &out, &error));
  EXPECT_NE(error.find("backend"), std::string::npos) << error;
}

TEST(ServeWire, TraceContextRoundTrip) {
  SolveRequest req = sample_request();
  req.trace_id = 0xfeedfacecafebeefull;
  req.trace_parent = 0x1122334455667788ull;
  req.trace_flags = 0x3;
  SolveRequest back;
  std::string error;
  ASSERT_TRUE(decode_request(encode_request(req), &back, &error)) << error;
  EXPECT_EQ(back.trace_id, req.trace_id);
  EXPECT_EQ(back.trace_parent, req.trace_parent);
  EXPECT_EQ(back.trace_flags, req.trace_flags);

  SolveResult res = sample_result();
  res.trace_id = 0xfeedfacecafebeefull;
  SolveResult res_back;
  ASSERT_TRUE(decode_result(encode_result(res), &res_back, &error)) << error;
  EXPECT_EQ(res_back.trace_id, res.trace_id);
}

// -- cross-version negotiation ----------------------------------------------
// v3 appended the trace context at the END of each payload, so a v2 frame is
// a v3 frame minus its trace tail with the version byte rolled back.  These
// tests pin both directions of the skew: a v2 peer's frames decode with the
// trace fields defaulted, and out-of-range versions are rejected with a
// diagnostic naming the PEER's version (not a bare "bad frame").

// Rewrites the length prefix after surgery on the frame body.
void reseal(std::vector<std::uint8_t>& frame) {
  const std::uint32_t body = static_cast<std::uint32_t>(frame.size() - 4);
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body >> (8 * i));
  }
}

std::vector<std::uint8_t> downgrade_to_v2(std::vector<std::uint8_t> frame,
                                          std::size_t trace_tail_bytes) {
  frame.resize(frame.size() - trace_tail_bytes);
  frame[8] = 2;  // version byte follows length(4) + magic(4)
  reseal(frame);
  return frame;
}

TEST(ServeWireVersions, V2RequestDecodesWithTraceFieldsDefaulted) {
  // Request trace tail: trace_id(8) + trace_parent(8) + trace_flags(1).
  SolveRequest v3 = sample_request();
  v3.trace_id = 0xdeadbeefull;  // must NOT leak through the v2 decode
  const std::vector<std::uint8_t> frame =
      downgrade_to_v2(encode_request(v3), 17);
  SolveRequest back;
  std::string error;
  ASSERT_TRUE(decode_request(frame, &back, &error)) << error;
  EXPECT_EQ(back.id, v3.id);
  EXPECT_EQ(back.deadline_ns, v3.deadline_ns);
  EXPECT_EQ(back.trace_id, 0u);
  EXPECT_EQ(back.trace_parent, 0u);
  EXPECT_EQ(back.trace_flags, 0u);
}

// The retired jit engine keeps backend byte 3 on the wire, so requests from
// v2 and v3 peers that still name it decode; the job runs on the simd engine
// and its norm matches a kSimd solve bit for bit.
TEST(ServeWireVersions, RetiredJitBackendByteSolvesAsSimd) {
  SolveRequest simd;
  simd.id = 1;
  simd.cls = mg::MgClass::S;
  simd.variant = mg::Variant::kSac;
  simd.stencil_mode = sac::StencilMode::kPlanes;
  simd.backend = sac::BackendKind::kSimd;
  SolveRequest jit = simd;
  jit.id = 2;
  jit.backend = sac::BackendKind::kJit;
  const std::vector<std::uint8_t> v3 = encode_request(jit);
  ASSERT_EQ(v3[21], 3);  // backend byte, see RejectsOutOfRangeBackend

  ServeConfig cfg;
  cfg.total_cores = 1;
  cfg.executors = 1;
  SolverService service(cfg);
  const SolveResult want = service.submit(simd).get();
  ASSERT_EQ(want.status, SolveStatus::kOk) << want.error;
  for (const auto& frame : {v3, downgrade_to_v2(v3, 17)}) {
    SolveRequest back;
    std::string error;
    ASSERT_TRUE(decode_request(frame, &back, &error)) << error;
    EXPECT_EQ(&sac::backend_for(back.backend),
              &sac::backend_for(sac::BackendKind::kSimd));
    const SolveResult got = service.submit(back).get();
    ASSERT_EQ(got.status, SolveStatus::kOk) << got.error;
    EXPECT_EQ(got.final_norm, want.final_norm) << "version " << int{frame[8]};
  }
}

TEST(ServeWireVersions, V2ResultDecodesWithTraceIdDefaulted) {
  // Result trace tail: the echoed trace_id(8).
  SolveResult v3 = sample_result();
  v3.trace_id = 0xdeadbeefull;
  const std::vector<std::uint8_t> frame =
      downgrade_to_v2(encode_result(v3), 8);
  SolveResult back;
  std::string error;
  ASSERT_TRUE(decode_result(frame, &back, &error)) << error;
  EXPECT_EQ(back.id, v3.id);
  EXPECT_EQ(back.error, v3.error);
  EXPECT_EQ(back.trace_id, 0u);
}

TEST(ServeWireVersions, PreV2PeerIsRejectedNamingItsVersion) {
  std::vector<std::uint8_t> frame = encode_request(sample_request());
  frame[8] = 1;
  SolveRequest out;
  std::string error;
  EXPECT_FALSE(decode_request(frame, &out, &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
  EXPECT_NE(error.find("2..3"), std::string::npos)
      << "diagnostic should name the supported range: " << error;
}

TEST(ServeWireVersions, FutureVersionIsRejectedNamingItsVersion) {
  std::vector<std::uint8_t> frame = encode_result(sample_result());
  frame[8] = kWireVersion + 1;
  SolveResult out;
  std::string error;
  EXPECT_FALSE(decode_result(frame, &out, &error));
  EXPECT_NE(error.find("version " + std::to_string(kWireVersion + 1)),
            std::string::npos)
      << error;
}

TEST(ServeWireVersions, V2FrameWithV3LengthIsRejected) {
  // A frame claiming v2 but still carrying the v3 trace tail has the wrong
  // payload size for its version — it must not decode as either.
  std::vector<std::uint8_t> frame = encode_request(sample_request());
  frame[8] = 2;  // lie about the version, keep the v3 body
  SolveRequest out;
  std::string error;
  EXPECT_FALSE(decode_request(frame, &out, &error));
  EXPECT_NE(error.find("payload size"), std::string::npos) << error;
}

TEST(ServeWire, DoublePackingRoundTrip) {
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    const std::vector<double> packed = frame_to_doubles(bytes);
    EXPECT_EQ(frame_from_doubles(packed), bytes) << "n=" << n;
  }
}

TEST(ServeWire, RpcOverMsgWorld) {
  // Full request/response over the SPMD substrate: rank 0 is the client,
  // rank 1 decodes, "solves", and answers.
  msg::World world(2);
  world.run([](msg::Comm& comm) {
    constexpr int kTag = 7;
    if (comm.rank() == 0) {
      send_frame(comm, 1, kTag, encode_request(sample_request()));
      const std::vector<std::uint8_t> reply = recv_frame(comm, 1, kTag);
      SolveResult res;
      std::string error;
      ASSERT_TRUE(decode_result(reply, &res, &error)) << error;
      EXPECT_EQ(res.id, sample_request().id);
      EXPECT_EQ(res.status, SolveStatus::kOk);
    } else {
      const std::vector<std::uint8_t> frame = recv_frame(comm, 0, kTag);
      SolveRequest req;
      std::string error;
      ASSERT_TRUE(decode_request(frame, &req, &error)) << error;
      SolveResult res;
      res.id = req.id;
      res.status = SolveStatus::kOk;
      send_frame(comm, 0, kTag, encode_result(res));
    }
  });
}

TEST(ServeWire, RecvFrameRejectsLyingLengthHeader) {
  // A peer-controlled length header claiming more than the reassembly
  // buffer cap must be rejected BEFORE recv_frame sizes its buffer — a
  // declared length of a billion doubles would otherwise become an 8 GB
  // allocation the real payload can never satisfy.
  msg::World world(2);
  EXPECT_THROW(
      world.run([](msg::Comm& comm) {
        constexpr int kTag = 7;
        if (comm.rank() == 0) {
          const double lying_header = 1e9;
          comm.send(1, kTag, std::span<const double>(&lying_header, 1));
        } else {
          (void)recv_frame(comm, 0, kTag);
        }
      }),
      ContractError);
}

TEST(ServeWire, RecvFrameRejectsEmptyLengthHeader) {
  // The header must announce at least the byte-count word; zero (or a
  // negative double) is corruption, not a frame.
  msg::World world(2);
  EXPECT_THROW(
      world.run([](msg::Comm& comm) {
        constexpr int kTag = 7;
        if (comm.rank() == 0) {
          const double empty_header = 0.0;
          comm.send(1, kTag, std::span<const double>(&empty_header, 1));
        } else {
          (void)recv_frame(comm, 0, kTag);
        }
      }),
      ContractError);
}

TEST(ServeWire, RecvFrameAcceptsLargestLegalFrame) {
  // The bound must not reject genuine traffic: a result frame padded out to
  // the maximum error-string length still round-trips.
  SolveResult res = sample_result();
  res.error.assign(512, 'x');
  const std::vector<std::uint8_t> frame = encode_result(res);
  msg::World world(2);
  world.run([&frame](msg::Comm& comm) {
    constexpr int kTag = 7;
    if (comm.rank() == 0) {
      send_frame(comm, 1, kTag, frame);
    } else {
      EXPECT_EQ(recv_frame(comm, 0, kTag), frame);
    }
  });
}

}  // namespace
