#include "mac/frame.hpp"

#include "crypto/crc.hpp"

namespace drmp::mac {

bool trailing_fcs_ok(std::span<const u8> frame) {
  constexpr std::size_t kFcsBytes = 4;
  if (frame.size() < kFcsBytes) return false;
  const std::size_t covered = frame.size() - kFcsBytes;
  return get_le32(frame, covered) == crypto::Crc32::compute(frame.first(covered));
}

}  // namespace drmp::mac
