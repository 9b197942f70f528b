// Server-side striping (paper §6.1).
//
// "Striped data transfer that increases parallelism by allowing data to be
// striped across multiple hosts.  Striping can be combined with parallelism
// to have multiple TCP streams between each pair of hosts."
//
// A StripedVolume is a front-end host plus N stripe nodes.  A stored file
// is cut into fixed-size blocks laid out round-robin across the nodes; each
// node keeps its blocks concatenated as one stripe file served by its
// ordinary GridFTP server.  The front-end answers a SPAS-style layout query
// ("STAT-STRIPES"): the list of (node, stripe path, bytes) a client needs.
//
// striped_volume_get() then runs one GridFTP GET per node concurrently —
// each with its own TCP parallelism — restarts each stripe independently
// from byte markers via the reliability plugin, and reassembles the blocks
// into the local file (bit-exact when content is attached).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "gridftp/client.hpp"
#include "gridftp/reliability.hpp"

namespace esg::gridftp {

struct StripedVolumeConfig {
  Bytes block_size = 4 * common::kMB;
};

/// Layout of one file across the volume's nodes.
struct StripeLayout {
  Bytes file_size = 0;
  Bytes block_size = 0;
  /// Per node: the stripe file's path and its total byte count.
  struct NodeExtent {
    std::string host;
    std::string path;
    Bytes bytes = 0;
  };
  std::vector<NodeExtent> extents;
};

class StripedVolume {
 public:
  /// `frontend` answers layout queries; `nodes` hold the stripes.
  StripedVolume(rpc::Orb& orb, const net::Host& frontend,
                std::vector<GridFtpServer*> nodes,
                StripedVolumeConfig config = {});
  ~StripedVolume();

  /// Cut `file` into blocks and place the per-node stripe files.  Content,
  /// when present, is split bit-exactly.
  common::Status store(const storage::FileObject& file);

  common::Result<StripeLayout> layout_of(const std::string& name) const;

  const net::Host& frontend() const { return frontend_; }
  std::size_t node_count() const { return nodes_.size(); }

  /// Wire encoding of a layout (shared with the client side).
  static void encode_layout(common::ByteWriter& w, const StripeLayout& layout);
  static common::Result<StripeLayout> decode_layout(common::ByteReader& r);

 private:
  void handle(const std::string& method, rpc::Payload request,
              rpc::Reply reply);

  rpc::Orb& orb_;
  const net::Host& frontend_;
  std::vector<GridFtpServer*> nodes_;
  StripedVolumeConfig config_;
  std::map<std::string, StripeLayout> layouts_;
};

struct StripedGetResult {
  common::Status status = common::ok_status();
  Bytes bytes_transferred = 0;
  SimTime started = 0;
  SimTime finished = 0;
  int stripes = 0;
  int total_attempts = 0;  // across all stripes (restarts included)
};

/// Fetch a striped file: layout query at the front-end, one reliable GET
/// per node (options.parallelism streams each), block reassembly at the
/// client.  The local file appears in `client`'s storage under
/// `local_name`.
void striped_volume_get(GridFtpClient& client, const net::Host& frontend,
                        const std::string& name, const std::string& local_name,
                        const TransferOptions& options,
                        const ReliabilityOptions& reliability,
                        std::function<void(StripedGetResult)> done);

}  // namespace esg::gridftp
