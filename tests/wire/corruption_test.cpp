// Every golden, cut at each length and with each byte flipped, fed to its
// decoder: the result is an error status or a message that re-encodes and
// decodes again, never an exception, a crash or a giant allocation. Run
// under ASan+UBSan by ci/check.sh (ctest -L wire).
#include <gtest/gtest.h>

#include <functional>

#include "agent/agent_server.hpp"
#include "agent/postoffice.hpp"
#include "core/session.hpp"
#include "wire/golden.hpp"

namespace naplet::golden {
namespace {

/// Decodes `data`; true when it decoded (and the result round-trips).
using Decoder = std::function<bool(util::ByteSpan)>;

/// A decoder for a type whose persist() is its whole format.
template <typename T>
Decoder archive_decoder() {
  return [](util::ByteSpan data) {
    auto decoded = util::Archive::decode<T>(data);
    if (!decoded.ok()) return false;
    const util::Bytes again = util::Archive::encode(*decoded);
    EXPECT_TRUE(util::Archive::decode<T>(again).ok());
    return true;
  };
}

bool session_decodes(util::ByteSpan data) {
  auto session = nsock::Session::import_state(data);
  if (!session.ok()) return false;
  const util::Bytes again = (*session)->export_state();
  EXPECT_TRUE(nsock::Session::import_state(again).ok());
  return true;
}

void sweep(const std::string& name, const util::Bytes& golden,
           const Decoder& decode) {
  ASSERT_FALSE(golden.empty()) << name;
  ASSERT_TRUE(decode(golden)) << name << ": the golden itself must decode";
  for (std::size_t len = 0; len < golden.size(); ++len) {
    const util::Bytes cut(golden.begin(),
                          golden.begin() + static_cast<std::ptrdiff_t>(len));
    bool decoded = true;
    EXPECT_NO_THROW(decoded = decode(cut)) << name << " cut to " << len;
    EXPECT_FALSE(decoded) << name << " decoded when cut to " << len;
  }
  for (std::size_t i = 0; i < golden.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      util::Bytes flipped = golden;
      flipped[i] ^= mask;
      EXPECT_NO_THROW((void)decode(flipped))
          << name << " byte " << i << " ^ " << static_cast<int>(mask);
    }
  }
}

TEST(WireCorruption, ControlMessages) {
  for (const CtrlGolden& g : ctrl_goldens()) {
    sweep("ctrl." + std::string(nsock::to_string(g.type)), unhex(g.hex),
          archive_decoder<nsock::CtrlMsg>());
  }
}

TEST(WireCorruption, HandoffMessages) {
  for (const HandoffGolden& g : handoff_goldens()) {
    sweep("handoff." + std::string(nsock::to_string(g.type)), unhex(g.hex),
          archive_decoder<nsock::HandoffMsg>());
  }
}

TEST(WireCorruption, RecoveryBlobs) {
  // The snapshot's codec owns everything before the CRC trailer.
  util::Bytes snapshot = unhex(kSnapshotHex);
  snapshot.resize(snapshot.size() - 4);
  sweep("snapshot", snapshot, archive_decoder<recovery::SnapshotData>());
}

TEST(WireCorruption, SessionBlobAndExportList) {
  sweep("session", unhex(kSessionHex), session_decodes);
  sweep("export_list", unhex(kExportListHex), [](util::ByteSpan data) {
    auto blobs = util::Archive::decode<std::vector<util::Bytes>>(data);
    if (!blobs.ok()) return false;
    for (const util::Bytes& blob : *blobs) (void)session_decodes(blob);
    return true;
  });
}

TEST(WireCorruption, AgentFrames) {
  sweep("envelope", unhex(kEnvelopeHex),
        archive_decoder<agent::PostOffice::Envelope>());
  sweep("transfer", unhex(kTransferHex),
        archive_decoder<agent::TransferFrame>());
}

}  // namespace
}  // namespace naplet::golden
