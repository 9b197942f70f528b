#include "gridftp/striped_volume.hpp"

#include <algorithm>

namespace esg::gridftp {

using common::ByteReader;
using common::ByteWriter;
using common::Errc;
using common::Error;
using common::Result;
using common::Status;
using rpc::Payload;

StripedVolume::StripedVolume(rpc::Orb& orb, const net::Host& frontend,
                             std::vector<GridFtpServer*> nodes,
                             StripedVolumeConfig config)
    : orb_(orb),
      frontend_(frontend),
      nodes_(std::move(nodes)),
      config_(config) {
  orb_.register_service(
      frontend_, "gridftp-striped",
      [this](const std::string& method, Payload request, rpc::Reply reply) {
        handle(method, std::move(request), std::move(reply));
      });
}

StripedVolume::~StripedVolume() {
  orb_.unregister_service(frontend_, "gridftp-striped");
}

Status StripedVolume::store(const storage::FileObject& file) {
  if (nodes_.empty()) {
    return Error{Errc::invalid_argument, "striped volume has no nodes"};
  }
  const Bytes bs = config_.block_size;
  const auto n = static_cast<Bytes>(nodes_.size());
  StripeLayout layout;
  layout.file_size = file.size;
  layout.block_size = bs;

  // Byte count per node: blocks laid out round-robin.
  const Bytes full_blocks = file.size / bs;
  const Bytes tail = file.size % bs;
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const auto idx = static_cast<Bytes>(k);
    // Node k receives blocks idx, idx+n, idx+2n, ...; the final partial
    // block (the tail) lands on node (full_blocks % n).
    const Bytes blocks_here =
        full_blocks / n + ((full_blocks % n) > idx ? 1 : 0);
    Bytes bytes_here = blocks_here * bs;
    if (idx == full_blocks % n && tail > 0) bytes_here += tail;
    layout.extents.push_back(StripeLayout::NodeExtent{
        nodes_[k]->host().name(),
        ".stripes/" + file.name + ".stripe" + std::to_string(k),  // node-local
        bytes_here});
  }

  // Materialize stripe files (with content slices when available).
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    storage::FileObject stripe;
    stripe.name = layout.extents[k].path;
    stripe.size = layout.extents[k].bytes;
    if (file.content) {
      auto data = std::make_shared<std::vector<std::uint8_t>>();
      data->reserve(static_cast<std::size_t>(stripe.size));
      for (Bytes block = static_cast<Bytes>(k); block * bs < file.size;
           block += n) {
        const Bytes lo = block * bs;
        const Bytes hi = std::min(lo + bs, file.size);
        data->insert(data->end(), file.content->begin() + lo,
                     file.content->begin() + hi);
      }
      stripe.content = std::move(data);
      stripe.size = static_cast<Bytes>(stripe.content->size());
    }
    if (auto st = nodes_[k]->storage().put(std::move(stripe)); !st.ok()) {
      return st;
    }
  }
  layouts_[file.name] = std::move(layout);
  return common::ok_status();
}

Result<StripeLayout> StripedVolume::layout_of(const std::string& name) const {
  auto it = layouts_.find(name);
  if (it == layouts_.end()) {
    return Error{Errc::not_found, "not on striped volume: " + name};
  }
  return it->second;
}

void StripedVolume::encode_layout(ByteWriter& w, const StripeLayout& layout) {
  w.i64(layout.file_size);
  w.i64(layout.block_size);
  w.u32(static_cast<std::uint32_t>(layout.extents.size()));
  for (const auto& e : layout.extents) {
    w.str(e.host);
    w.str(e.path);
    w.i64(e.bytes);
  }
}

Result<StripeLayout> StripedVolume::decode_layout(ByteReader& r) {
  StripeLayout layout;
  auto size = r.i64();
  auto bs = r.i64();
  auto count = r.u32();
  if (!size || !bs || !count) {
    return Error{Errc::protocol_error, "bad stripe layout"};
  }
  layout.file_size = *size;
  layout.block_size = *bs;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto host = r.str();
    auto path = r.str();
    auto bytes = r.i64();
    if (!host || !path || !bytes) {
      return Error{Errc::protocol_error, "bad stripe extent"};
    }
    layout.extents.push_back(
        StripeLayout::NodeExtent{std::move(*host), std::move(*path), *bytes});
  }
  return layout;
}

void StripedVolume::handle(const std::string& method, Payload request,
                           rpc::Reply reply) {
  if (method != "STAT-STRIPES") {
    return reply(Error{Errc::protocol_error,
                       "unknown striped-volume method: " + method});
  }
  ByteReader r(request);
  auto name = r.str();
  if (!name) return reply(Error{Errc::protocol_error, "bad STAT-STRIPES"});
  auto layout = layout_of(*name);
  if (!layout) return reply(layout.error());
  ByteWriter w;
  encode_layout(w, *layout);
  reply(w.take());
}

namespace {

// Reassemble the original byte order from round-robin stripe contents.
std::shared_ptr<const std::vector<std::uint8_t>> reassemble(
    const StripeLayout& layout,
    const std::vector<storage::FileObject>& stripes) {
  for (const auto& s : stripes) {
    if (!s.content) return nullptr;  // synthetic stripes: sizes only
  }
  auto out = std::make_shared<std::vector<std::uint8_t>>();
  out->reserve(static_cast<std::size_t>(layout.file_size));
  const Bytes bs = layout.block_size;
  const auto n = static_cast<Bytes>(stripes.size());
  std::vector<Bytes> cursor(stripes.size(), 0);
  for (Bytes lo = 0; lo < layout.file_size; lo += bs) {
    const auto node = static_cast<std::size_t>((lo / bs) % n);
    const Bytes len = std::min(bs, layout.file_size - lo);
    const auto& src = *stripes[node].content;
    out->insert(out->end(), src.begin() + cursor[node],
                src.begin() + cursor[node] + len);
    cursor[node] += len;
  }
  return out;
}

struct StripedGetState : std::enable_shared_from_this<StripedGetState> {
  GridFtpClient* client = nullptr;
  std::string local_name;
  StripeLayout layout;
  StripedGetResult result;
  std::size_t outstanding = 0;
  bool failed = false;
  std::function<void(StripedGetResult)> done;

  void stripe_finished(const gridftp::ReliableResult& r) {
    result.total_attempts += r.attempts;
    if (!r.status.ok() && !failed) {
      failed = true;
      result.status = r.status;
    }
    if (--outstanding > 0) return;
    finish();
  }

  void finish() {
    result.finished = client->simulation().now();
    if (failed) return done(std::move(result));
    // Collect the stripe files and build the final local file.
    std::vector<storage::FileObject> stripes;
    Bytes total = 0;
    for (const auto& e : layout.extents) {
      auto f = client->local_storage().get(stripe_local_name(e.path));
      if (!f) {
        result.status = f.error();
        return done(std::move(result));
      }
      total += f->size;
      stripes.push_back(std::move(*f));
    }
    storage::FileObject out;
    out.name = local_name;
    out.size = layout.file_size;
    out.content = reassemble(layout, stripes);
    if (out.content) {
      out.size = static_cast<Bytes>(out.content->size());
    }
    (void)client->local_storage().put(std::move(out));
    // Stripe temporaries are no longer needed.
    for (const auto& e : layout.extents) {
      (void)client->local_storage().remove(stripe_local_name(e.path));
    }
    result.bytes_transferred = total;
    done(std::move(result));
  }

  std::string stripe_local_name(const std::string& stripe_path) const {
    return local_name + "#" + std::to_string(common::fnv1a64(stripe_path));
  }
};

}  // namespace

void striped_volume_get(GridFtpClient& client, const net::Host& frontend,
                        const std::string& name, const std::string& local_name,
                        const TransferOptions& options,
                        const ReliabilityOptions& reliability,
                        std::function<void(StripedGetResult)> done) {
  ByteWriter w;
  w.str(name);
  auto state = std::make_shared<StripedGetState>();
  state->client = &client;
  state->local_name = local_name;
  state->done = std::move(done);
  state->result.started = client.simulation().now();

  client.orb().call(
      client.local_host(), frontend, "gridftp-striped", "STAT-STRIPES",
      w.take(),
      [state, options, reliability](Result<Payload> r) {
        if (!r) {
          state->result.status = Status(r.error());
          state->result.finished = state->client->simulation().now();
          return state->done(std::move(state->result));
        }
        ByteReader reader(*r);
        auto layout = StripedVolume::decode_layout(reader);
        if (!layout) {
          state->result.status = Status(layout.error());
          state->result.finished = state->client->simulation().now();
          return state->done(std::move(state->result));
        }
        state->layout = std::move(*layout);
        state->result.stripes =
            static_cast<int>(state->layout.extents.size());
        state->outstanding = state->layout.extents.size();
        // One reliable GET per stripe node, each with its own parallelism —
        // "striping combined with parallelism".
        for (const auto& extent : state->layout.extents) {
          ReliableGet::start(
              *state->client, {FtpUrl{extent.host, extent.path}},
              state->stripe_local_name(extent.path), options, reliability,
              nullptr, [state](ReliableResult rr) {
                state->stripe_finished(rr);
              });
        }
      },
      options.stall_timeout);
}

}  // namespace esg::gridftp
