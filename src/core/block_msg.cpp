#include "core/block_msg.hpp"

namespace qv::core {

void unpack_block(const BlockMsgHeader& hdr, std::span<const std::uint8_t> msg,
                  std::vector<std::uint8_t>& scratch, std::span<float> dst) {
  if (dst.size() != hdr.count)
    throw std::runtime_error("block message: size mismatch");
  unpack_values(hdr, msg, scratch,
                [&](std::size_t i, float v) { dst[i] = v; });
}

std::vector<BlockMsgSpec> per_block_msgs(const io::BlockNodeIndex& index,
                                         std::span<const int> owners) {
  std::vector<BlockMsgSpec> msgs;
  for (std::size_t b = 0; b < index.block_count(); ++b) {
    auto nodes = index.block_nodes(b);
    msgs.push_back({owners[b], std::int32_t(b), {nodes.begin(), nodes.end()}});
  }
  return msgs;
}

void send_block_msgs(vmpi::Comm& world, int first_renderer, int step,
                     const io::QuantizedField& q,
                     std::span<const BlockMsgSpec> msgs, bool compress,
                     std::uint64_t* raw, std::uint64_t* sent) {
  std::vector<std::uint8_t> values;
  for (const BlockMsgSpec& m : msgs) {
    values.resize(m.positions.size());
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = q.values[m.positions[i]];
    world.isend(first_renderer + m.renderer, tag_block(step),
                make_block_msg(step, m.id, q.lo, q.hi, values, compress, raw,
                               sent));
  }
}

}  // namespace qv::core
