#include "core/block_msg.hpp"

namespace qv::core {

void unpack_block(const BlockMsgHeader& hdr, std::span<const std::uint8_t> msg,
                  std::vector<std::uint8_t>& scratch, std::span<float> dst) {
  if (dst.size() != hdr.count)
    throw std::runtime_error("block message: size mismatch");
  unpack_values(hdr, msg, scratch,
                [&](std::size_t i, float v) { dst[i] = v; });
}

}  // namespace qv::core
