#include "srb/server.hpp"

#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "common/checksum.hpp"
#include "common/extent.hpp"
#include "common/log.hpp"

namespace remio::srb {
namespace {

/// Where a reply's body starts: after the length prefix and the status.
constexpr std::size_t kReplyHead = 8;

/// Overwrites the little-endian `v` at `pos` (a field written ahead of the
/// bytes it counts).
template <class T>
void put_at(Bytes& buf, std::size_t pos, T v) {
  std::memcpy(buf.data() + pos, &v, sizeof v);
}

}  // namespace

// ---------------------------------------------------------------------------
// Session: one connected client, its fd table, and the dispatch loop.
// ---------------------------------------------------------------------------
class SrbServer::Session {
 public:
  Session(SrbServer& server, std::unique_ptr<simnet::Socket> sock)
      : server_(server), sock_(std::move(sock)) {}

  ~Session() { join(); }

  void run_async(std::shared_ptr<Session> self) {
    thread_ = std::thread([self] { self->loop(); });
  }

  void force_close() { sock_->close(); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  bool finished() const { return done_.load(std::memory_order_acquire); }

 private:
  struct FdState {
    ObjectId object = kInvalidObject;
    std::string path;
    std::uint64_t fp = 0;  // individual file pointer
    std::uint32_t flags = 0;
  };

  void loop() {
    try {
      for (;;) {
        // The frame views the client's own send buffer and keeps it alive
        // while the op dispatches, so a write's whole blocks become store
        // blocks straight out of it.
        req_ = recv_frame(*sock_);
        if (req_.empty()) break;
        const bool keep = serve(req_.view());
        req_ = {};  // not held while waiting for the next request
        if (!keep) break;
      }
    } catch (const simnet::NetError& e) {
      REMIO_LOG_DEBUG("srb session ended: ", e.what());
    } catch (const std::exception& e) {
      REMIO_LOG_WARN("srb session error: ", e.what());
    }
    sock_->close();
    done_.store(true, std::memory_order_release);
  }

  /// Verifies and dispatches one request frame; false ends the session.
  bool serve(ByteSpan frame) {
    plan_cuts(crc_ ? frame : ByteSpan());
    if (crc_ && !strip_frame_crc(frame, cuts_, pieces_)) {
      // Request arrived corrupted. Framing held (the length prefix is
      // uncovered by design), so the stream is still in phase: report the
      // mismatch in rhythm and let the client re-send. Crucially the frame
      // is NOT dispatched — a flipped bit in a write payload must never
      // reach the store.
      reply(Status::kChecksumMismatch);
      return true;
    }
    ByteReader r(frame);
    const auto op = static_cast<Op>(r.u8());
    try {
      return dispatch(op, r);
    } catch (const IntegrityError& e) {
      // At-rest corruption detected while servicing the op. The session
      // survives: quarantine is permanent until repaired, a plain mismatch
      // is retryable (scrub may heal, replicas may differ).
      reply(e.quarantined() ? Status::kQuarantined : Status::kChecksumMismatch);
      return true;
    }
  }

  /// Plans where verifying `frame` cuts a write's payload: where it starts,
  /// where it crosses the store's block grid, and where it ends. The one
  /// verify pass then leaves in pieces_ the CRC of each payload piece, and
  /// transfer() hands them to the store to adopt as block sums instead of
  /// rehashing the bytes. Only the header is read, before the frame is
  /// verified: a wrong cut only moves where the hashing splits, and the
  /// trailer still covers every byte. No cuts for other verbs, a
  /// file-pointer write, a header that does not parse or match the frame,
  /// or a store without checksums: then the verify is one pass, as before.
  void plan_cuts(ByteSpan frame) {
    cuts_.clear();
    pieces_.clear();
    const std::uint64_t bs = server_.store_.checksum_block();
    if (bs == 0 || frame.size() < 5) return;
    const ByteSpan content = frame.first(frame.size() - 4);
    ByteReader r(content);
    const auto op = static_cast<Op>(r.u8());
    (void)r.i32();  // fd
    // Cuts for `len` payload bytes at content position `at`, bound for
    // object offset `offset`.
    const auto cut = [&](std::size_t at, std::uint64_t offset,
                         std::uint64_t len) {
      if (len == 0) return;
      if (cuts_.empty()) cuts_.push_back(at);
      for (std::uint64_t k = offset / bs + 1; k * bs < offset + len; ++k)
        cuts_.push_back(at + static_cast<std::size_t>(k * bs - offset));
      cuts_.push_back(at + static_cast<std::size_t>(len));
    };
    if (op == Op::kObjWrite) {
      const std::int64_t offset = r.i64();
      const std::uint32_t len = r.u32();
      if (!r.ok() || offset < 0 || len > r.remaining()) return;
      cut(content.size() - r.remaining(), static_cast<std::uint64_t>(offset),
          len);
    } else if (op == Op::kObjWriteList) {
      const std::uint32_t count = r.u32();
      if (!r.ok() || count == 0 || count > kMaxListExtents ||
          12u * count > r.remaining())
        return;
      std::size_t at = content.size() - r.remaining() + 12u * count;
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t offset = r.u64();
        const std::uint64_t len = r.u32();
        if (offset > UINT64_MAX - len || len > content.size() - at) {
          cuts_.clear();
          return;
        }
        cut(at, offset, len);
        at += static_cast<std::size_t>(len);
      }
    }
    if (!cuts_.empty()) pieces_.resize(cuts_.size() - 1);
  }

  /// Maps a client-visible path into the tenant's carved-out namespace.
  std::string map_path(const std::string& path) const {
    if (prefix_.empty()) return path;
    const std::string p = Mcat::normalize(path);
    return p == "/" ? prefix_ : prefix_ + p;
  }

  /// Strips the tenant prefix from a catalog path for the client's view.
  std::string unmap_path(const std::string& path) const {
    if (prefix_.empty()) return path;
    if (path.size() <= prefix_.size()) return "/";
    return path.substr(prefix_.size());
  }

  /// RAII guard for one tenant data-plane op: inflight cap then DRR
  /// admission. `admitted()` false means the cap rejected it (the caller
  /// replies kQuotaExceeded).
  class OpGuard {
   public:
    OpGuard(SrbServer& server, TenantRegistry::Tenant* tenant)
        : server_(server), tenant_(tenant) {
      if (tenant_ == nullptr) return;
      if (!tenant_->try_begin_op()) {
        tenant_ = nullptr;
        admitted_ = false;
        return;
      }
      server_.scheduler_.acquire(*tenant_);
    }
    ~OpGuard() {
      if (tenant_ == nullptr) return;
      server_.scheduler_.release();
      tenant_->end_op();
    }
    bool admitted() const { return admitted_; }

   private:
    SrbServer& server_;
    TenantRegistry::Tenant* tenant_;
    bool admitted_ = true;
  };

  /// Starts a reply frame carrying `st`; `reserve` is the body the caller
  /// appends before send().
  static Bytes reply_frame(Status st, std::size_t reserve = 0) {
    Bytes frame = start_frame(4 + reserve);
    ByteWriter(frame).i32(static_cast<std::int32_t>(st));
    return frame;
  }

  void send(Bytes&& frame) { finish_frame(*sock_, std::move(frame), crc_); }

  /// A data verb's kOk reply: the frame holds the status and the verb's
  /// head; a read's bytes follow as views of the store's blocks, with the
  /// CRC the store's verify derived for them.
  struct DataReply {
    Bytes frame;
    FrameData data;
  };

  void send(DataReply&& rep) {
    finish_frame(*sock_, std::move(rep.frame), crc_, std::move(rep.data));
  }

  void reply(Status st) { send(reply_frame(st)); }

  bool dispatch(Op op, ByteReader& r) {
    switch (op) {
      case Op::kConnect: {
        (void)r.str();  // client name (logged only)
        // Optional tenant identity: old clients simply omit it.
        const std::string tenant = r.remaining() > 0 ? r.str() : std::string();
        // Optional feature flags: appended only by clients that want a
        // feature, so their absence means a pre-integrity peer.
        const std::uint32_t asked = r.remaining() >= 4 ? r.u32() : 0;
        if (!r.ok()) return proto_error();
        if (server_.cfg_.tenants.enabled && !tenant.empty()) {
          if (tenant.find('/') != std::string::npos) {
            // A slash would let a login escape its namespace carve-out.
            reply(Status::kInvalid);
            return false;
          }
          tenant_ = &server_.tenants_.login(tenant);
          prefix_ = "/tenants/" + tenant;
          server_.mcat_.make_collection(prefix_);
        }
        std::uint32_t granted = 0;
        if (server_.cfg_.wire_checksums)
          granted = asked & kFeatureWireChecksums;
        Bytes frame = reply_frame(Status::kOk, 8 + server_.cfg_.banner.size());
        ByteWriter w(frame);
        w.str(server_.cfg_.banner);
        // Echo accepted flags ONLY to a client that sent some: an old
        // client would misparse trailing bytes it never asked for.
        if (asked != 0) w.u32(granted);
        send(std::move(frame));
        // The connect exchange itself is never checksummed (the feature is
        // being negotiated in it); coverage starts with the next frame.
        crc_ = (granted & kFeatureWireChecksums) != 0;
        return true;
      }
      case Op::kDisconnect:
        reply(Status::kOk);
        return false;

      case Op::kObjOpen: return handle_open(r);
      case Op::kObjClose: return handle_close(r);
      case Op::kObjRead: return handle_read(r);
      case Op::kObjWrite: return handle_write(r);
      case Op::kObjReadList: return handle_read_list(r);
      case Op::kObjWriteList: return handle_write_list(r);
      case Op::kObjSeek: return handle_seek(r);
      case Op::kObjStat: return handle_stat(r);
      case Op::kObjUnlink: return handle_unlink(r);
      case Op::kCollCreate: return handle_mkcoll(r);
      case Op::kCollList: return handle_list(r);
      case Op::kSetAttr: return handle_set_attr(r);
      case Op::kGetAttr: return handle_get_attr(r);
      case Op::kAdminScrub: return handle_scrub(r);
    }
    reply(Status::kProtocol);
    return false;
  }

  bool handle_open(ByteReader& r) {
    const std::string path = map_path(r.str());
    const std::uint32_t flags = r.u32();
    if (!r.ok()) return proto_error();

    auto id = server_.mcat_.resolve(path);
    if (!id && (flags & kCreate)) {
      // Registering a new object consumes one object-quota slot; reserve
      // it first and give it back if another session wins the create race.
      if (tenant_ != nullptr && !tenant_->try_charge_objects()) {
        reply(Status::kQuotaExceeded);
        return true;
      }
      // Auto-create parent collections, matching SRB's container behaviour.
      server_.mcat_.make_collection(Mcat::parent_of(path));
      id = server_.mcat_.register_object(path, server_.cfg_.resource);
      // Another session may have won the create race; the open still
      // succeeds against the object it registered.
      if (!id) {
        if (tenant_ != nullptr) tenant_->uncharge_objects();
        id = server_.mcat_.resolve(path);
      }
    }
    if (!id) {
      reply(Status::kNotFound);
      return true;
    }
    server_.store_.create(*id);
    if (flags & kTrunc) {
      const std::int64_t delta = server_.store_.truncate(*id, 0);
      if (tenant_ != nullptr) tenant_->adjust_bytes(delta);
    }

    FdState st;
    st.object = *id;
    st.path = path;
    st.flags = flags;
    const std::int32_t fd = next_fd_++;
    fds_[fd] = st;

    Bytes frame = reply_frame(Status::kOk, 4);
    ByteWriter(frame).i32(fd);
    send(std::move(frame));
    return true;
  }

  bool handle_close(ByteReader& r) {
    const std::int32_t fd = r.i32();
    if (!r.ok()) return proto_error();
    reply(fds_.erase(fd) != 0 ? Status::kOk : Status::kBadFd);
    return true;
  }

  // The four data verbs: each decodes its request into an extent list, runs
  // the one transfer() body, and encodes its reply.

  bool handle_read(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::int64_t offset = r.i64();
    const std::uint32_t len = r.u32();
    if (!r.ok() || len > kMaxMessage / 2) return proto_error();
    ExtentList xs{plain_extent(offset, len)};
    auto rep = transfer(/*write=*/false, fd, xs, offset < 0, {}, 4);
    if (!rep) return true;
    put_at(rep->frame, kReplyHead, static_cast<std::uint32_t>(xs[0].len));
    send(std::move(*rep));
    return true;
  }

  bool handle_write(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::int64_t offset = r.i64();
    // Zero-copy: the payload is written straight from the request frame.
    const ByteSpan data = r.blob_view();
    if (!r.ok()) return proto_error();
    ExtentList xs{plain_extent(offset, data.size())};
    auto rep = transfer(/*write=*/true, fd, xs, offset < 0, data, 4);
    if (!rep) return true;
    put_at(rep->frame, kReplyHead, static_cast<std::uint32_t>(data.size()));
    send(std::move(*rep));
    return true;
  }

  bool handle_read_list(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::uint32_t count = r.u32();
    if (!r.ok()) return proto_error();
    ExtentList xs;
    if (!read_extents(r, count, xs)) return true;
    if (total_bytes(xs) > kMaxMessage / 2) {
      reply(Status::kInvalid);
      return true;
    }
    // Reply: per-extent actual lengths, then the read bytes concatenated
    // (short extents contribute only their actual bytes).
    auto rep = transfer(/*write=*/false, fd, xs, /*at_fp=*/false, {},
                        4 + 4 * xs.size());
    if (!rep) return true;
    put_at(rep->frame, kReplyHead, count);
    for (std::size_t i = 0; i < xs.size(); ++i)
      put_at(rep->frame, kReplyHead + 4 + 4 * i,
             static_cast<std::uint32_t>(xs[i].len));
    send(std::move(*rep));
    return true;
  }

  bool handle_write_list(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::uint32_t count = r.u32();
    if (!r.ok()) return proto_error();
    ExtentList xs;
    if (!read_extents(r, count, xs)) return true;
    // Zero-copy: the concatenated payload is scattered straight from the
    // request frame. A length mismatch is a fully-received-but-inconsistent
    // frame: reject without killing the session.
    const ByteSpan data = r.rest();
    if (data.size() != total_bytes(xs)) {
      reply(Status::kInvalid);
      return true;
    }
    auto rep = transfer(/*write=*/true, fd, xs, /*at_fp=*/false, data, 8);
    if (!rep) return true;
    put_at(rep->frame, kReplyHead, std::uint64_t{data.size()});
    send(std::move(*rep));
    return true;
  }

  /// A plain verb's one extent. A negative offset means "at the file
  /// pointer"; transfer() fills that in once the fd is known.
  static Extent plain_extent(std::int64_t offset, std::uint64_t len) {
    return {offset >= 0 ? static_cast<std::uint64_t>(offset) : 0, len};
  }

  /// Reads a list verb's `count` extents into `xs` and validates them:
  /// 1..kMaxListExtents extents, each nonempty, offset-sorted, disjoint, and
  /// ending within u64 (an end() that wraps would pass the order check and
  /// then address bytes before the object's buffer). A violation replies
  /// kInvalid and returns false; the session lives on, because the frame
  /// arrived whole — even an extent array truncated inside it is a semantic
  /// fault, not a framing loss.
  bool read_extents(ByteReader& r, std::uint32_t count, ExtentList& xs) {
    bool ok = count != 0 && count <= kMaxListExtents;
    if (ok) xs.reserve(count);
    for (std::uint32_t i = 0; ok && i < count; ++i) {
      const std::uint64_t offset = r.u64();
      const std::uint64_t len = r.u32();
      ok = r.ok() && len != 0 && offset <= UINT64_MAX - len &&
           (xs.empty() || offset >= xs.back().end());
      xs.push_back({offset, len});
    }
    if (!ok) reply(Status::kInvalid);
    return ok;
  }

  /// The one body of the four data verbs: fd lookup, the kRead/kWrite
  /// check, tenant admission and growth accounting, and the store loop over
  /// the offset-sorted extents `xs` (a write scatters `data` across them).
  /// With `at_fp` the single extent starts at the fd's file pointer, which
  /// then advances past the bytes moved; the pointer only grows by bytes
  /// the store holds or by a seek below 2^63, so that extent cannot wrap.
  /// A write hands the store its payload as slices of the request frame,
  /// whose whole blocks the store adopts, with the piece CRCs the frame
  /// verify left in pieces_. Returns the kOk reply with `head` bytes after
  /// the status for the verb to fill; a read's bytes are the store's
  /// verified blocks, sliced, not copied, with their CRC, and each extent's
  /// len becomes the bytes actually read. A refused op has been answered
  /// and returns nullopt.
  std::optional<DataReply> transfer(bool write, std::int32_t fd, ExtentList& xs,
                                bool at_fp, ByteSpan data, std::size_t head) {
    const auto it = fds_.find(fd);
    if (it == fds_.end()) {
      reply(Status::kBadFd);
      return std::nullopt;
    }
    FdState& st = it->second;
    if ((st.flags & (write ? kWrite : kRead)) == 0) {
      reply(Status::kInvalid);
      return std::nullopt;
    }
    OpGuard guard(server_, tenant_);
    if (!guard.admitted()) {
      reply(Status::kQuotaExceeded);
      return std::nullopt;
    }
    if (at_fp) xs[0].offset = st.fp;
    ObjectStore& store = server_.store_;
    std::uint64_t reserved = 0;
    if (write && tenant_ != nullptr) {
      // Reserve the prospective growth up front (racy size estimate keeps
      // enforcement prompt), then settle against the exact growth below.
      // The extents are offset-sorted, so the last one bounds the new EOF.
      const std::uint64_t cur = store.size(st.object);
      const std::uint64_t end = xs.back().end();
      reserved = end > cur ? end - cur : 0;
      if (reserved > 0 && !tenant_->try_charge_bytes(reserved)) {
        reply(Status::kQuotaExceeded);
        return std::nullopt;
      }
    }
    DataReply rep{reply_frame(Status::kOk, head), {}};
    rep.frame.resize(rep.frame.size() + head);
    // Where `data` starts in the request frame's buffer.
    const std::size_t data_at =
        data.empty() ? 0 : static_cast<std::size_t>(data.data() - req_.buf->data());
    std::span<const std::uint32_t> crcs = pieces_;
    std::size_t done = 0;
    std::uint64_t growth = 0;
    for (Extent& x : xs) {
      const auto n = static_cast<std::size_t>(x.len);
      if (write) {
        const std::size_t k = std::min(crcs.size(), store.pieces(x.offset, n));
        const simnet::SharedSlice piece{req_.buf, data_at + done, data_at + done + n};
        growth += store.pwrite(st.object, piece, x.offset, crcs.first(k));
        crcs = crcs.subspan(k);
      } else {
        std::uint32_t crc = 0;
        x.len = store.pread_slices(st.object, rep.data.parts, n, x.offset,
                                   crc_ ? &crc : nullptr);
        rep.data.crc = crc32c_combine(rep.data.crc, crc, x.len);
      }
      done += x.len;
    }
    if (write && tenant_ != nullptr)
      tenant_->adjust_bytes(static_cast<std::int64_t>(growth) -
                            static_cast<std::int64_t>(reserved));
    if (at_fp) st.fp = xs[0].end();
    return rep;
  }

  bool handle_seek(ByteReader& r) {
    const std::int32_t fd = r.i32();
    const std::int64_t off = r.i64();
    const auto whence = static_cast<Whence>(r.u8());
    if (!r.ok()) return proto_error();
    const auto it = fds_.find(fd);
    if (it == fds_.end()) {
      reply(Status::kBadFd);
      return true;
    }
    FdState& st = it->second;
    std::int64_t base = 0;
    switch (whence) {
      case Whence::kSet: break;
      case Whence::kCur: base = static_cast<std::int64_t>(st.fp); break;
      case Whence::kEnd:
        base = static_cast<std::int64_t>(server_.store_.size(st.object));
        break;
      default:  // not a Whence: the byte came off the wire
        reply(Status::kInvalid);
        return true;
    }
    std::int64_t pos = 0;
    if (__builtin_add_overflow(base, off, &pos) || pos < 0) {
      reply(Status::kInvalid);
      return true;
    }
    st.fp = static_cast<std::uint64_t>(pos);
    Bytes frame = reply_frame(Status::kOk, 8);
    ByteWriter(frame).i64(pos);
    send(std::move(frame));
    return true;
  }

  bool handle_stat(ByteReader& r) {
    const std::string path = map_path(r.str());
    if (!r.ok()) return proto_error();
    const auto meta = server_.mcat_.meta(path);
    if (!meta) {
      reply(Status::kNotFound);
      return true;
    }
    Bytes frame = reply_frame(Status::kOk, 20 + meta->resource.size());
    ByteWriter w(frame);
    w.u64(server_.store_.exists(meta->id) ? server_.store_.size(meta->id) : 0);
    w.u64(meta->id);
    w.str(meta->resource);
    send(std::move(frame));
    return true;
  }

  bool handle_unlink(ByteReader& r) {
    const std::string path = map_path(r.str());
    if (!r.ok()) return proto_error();
    const auto id = server_.mcat_.unregister_object(path);
    if (!id) {
      reply(Status::kNotFound);
      return true;
    }
    const std::uint64_t freed = server_.store_.remove(*id);
    if (tenant_ != nullptr) {
      tenant_->uncharge_objects();
      tenant_->adjust_bytes(-static_cast<std::int64_t>(freed));
    }
    reply(Status::kOk);
    return true;
  }

  bool handle_mkcoll(ByteReader& r) {
    const std::string path = map_path(r.str());
    if (!r.ok()) return proto_error();
    reply(server_.mcat_.make_collection(path) ? Status::kOk : Status::kExists);
    return true;
  }

  bool handle_list(ByteReader& r) {
    const std::string path = map_path(r.str());
    if (!r.ok()) return proto_error();
    if (!server_.mcat_.collection_exists(path)) {
      reply(Status::kNotFound);
      return true;
    }
    const auto entries = server_.mcat_.list(path);
    Bytes frame = reply_frame(Status::kOk);
    ByteWriter w(frame);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) w.str(unmap_path(e));
    send(std::move(frame));
    return true;
  }

  bool handle_set_attr(ByteReader& r) {
    const std::string path = map_path(r.str());
    const std::string key = r.str();
    const std::string value = r.str();
    if (!r.ok()) return proto_error();
    reply(server_.mcat_.set_attr(path, key, value) ? Status::kOk : Status::kNotFound);
    return true;
  }

  bool handle_get_attr(ByteReader& r) {
    const std::string path = map_path(r.str());
    const std::string key = r.str();
    if (!r.ok()) return proto_error();
    const auto value = server_.mcat_.get_attr(path, key);
    if (!value) {
      reply(Status::kNotFound);
      return true;
    }
    Bytes frame = reply_frame(Status::kOk, 4 + value->size());
    ByteWriter(frame).str(*value);
    send(std::move(frame));
    return true;
  }

  bool handle_scrub(ByteReader& r) {
    if (!r.ok()) return proto_error();
    const ScrubReport rep = server_.store_.scrub();
    Bytes frame = reply_frame(Status::kOk, 40);
    ByteWriter w(frame);
    w.u64(rep.objects);
    w.u64(rep.blocks);
    w.u64(rep.mismatched);
    w.u64(rep.quarantined);
    w.u64(rep.healed);
    send(std::move(frame));
    return true;
  }

  bool proto_error() {
    reply(Status::kProtocol);
    return false;
  }

  SrbServer& server_;
  std::unique_ptr<simnet::Socket> sock_;
  std::thread thread_;
  std::map<std::int32_t, FdState> fds_;
  std::int32_t next_fd_ = 3;
  std::atomic<bool> done_{false};
  simnet::SharedSlice req_;  // the request being served (see loop)
  // Tenant identity bound at kConnect (null = untenanted legacy session).
  TenantRegistry::Tenant* tenant_ = nullptr;
  std::string prefix_;  // "/tenants/<name>" namespace carve-out, or empty
  bool crc_ = false;    // per-frame CRC32C, negotiated at kConnect
  // The current request's cut plan and piece CRCs (see plan_cuts), kept
  // across requests so their buffers are reused.
  std::vector<std::size_t> cuts_;
  std::vector<std::uint32_t> pieces_;
};

// ---------------------------------------------------------------------------
// SrbServer
// ---------------------------------------------------------------------------
SrbServer::SrbServer(simnet::Fabric& fabric, ServerConfig cfg)
    : fabric_(fabric),
      cfg_(std::move(cfg)),
      store_(cfg_.store),
      tenants_(cfg_.tenants),
      scheduler_(cfg_.tenants) {}

SrbServer::~SrbServer() { stop(); }

void SrbServer::start() {
  if (running_.exchange(true)) return;
  acceptor_ = fabric_.listen(cfg_.host, cfg_.port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SrbServer::accept_loop() {
  while (true) {
    auto sock = acceptor_->accept();
    if (!sock) break;
    reap_finished_sessions();
    auto session = std::make_shared<Session>(*this, std::move(*sock));
    {
      std::lock_guard lk(sessions_mu_);
      sessions_.push_back(session);
    }
    ++sessions_served_;
    session->run_async(session);
  }
}

// Joins and drops sessions whose loop has exited, so long-lived servers
// facing many short-lived clients (the multi-tenant ablation drives 10k)
// don't accumulate dead threads and fd tables.
void SrbServer::reap_finished_sessions() {
  std::vector<std::shared_ptr<Session>> dead;
  {
    std::lock_guard lk(sessions_mu_);
    auto it = sessions_.begin();
    while (it != sessions_.end()) {
      if ((*it)->finished()) {
        dead.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& s : dead) s->join();  // joins outside the lock
}

void SrbServer::stop() {
  if (!running_.exchange(false)) return;
  acceptor_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard lk(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) s->force_close();
  for (auto& s : sessions) s->join();
}

}  // namespace remio::srb
