#include "srb/client.hpp"

#include <algorithm>
#include <cstring>

namespace remio::srb {

namespace {

/// The client name doubles as the connection's fault-injection tag so one
/// SEMPLAR stream can be killed or banned by name (simnet/faults.hpp).
simnet::ConnectOptions with_tag(simnet::ConnectOptions opts,
                                const std::string& client_name) {
  if (opts.tag.empty()) opts.tag = client_name;
  return opts;
}

/// Classifies a non-OK broker status into the shared error taxonomy. Most
/// are semantic (the broker answered; replaying changes nothing), but the
/// integrity statuses carry their own domain: a checksum mismatch is
/// retryable — the op is idempotent and a re-send/re-read usually comes
/// back clean — while a quarantined object stays failed until repaired.
SrbError status_error(Status st, const std::string& what) {
  if (st == Status::kChecksumMismatch)
    return SrbError(st,
                    {remio::ErrorDomain::kIntegrity,
                     static_cast<std::int32_t>(st), /*retryable=*/true, "rpc"},
                    what);
  if (st == Status::kQuarantined)
    return SrbError(st,
                    {remio::ErrorDomain::kIntegrity,
                     static_cast<std::int32_t>(st), /*retryable=*/false, "rpc"},
                    what);
  return SrbError(st, what);
}

/// A response the client cannot make sense of; the stream's framing held,
/// but replaying the op would not fix the broker's answer.
SrbError protocol_error(const char* site, const std::string& what) {
  return SrbError(Status::kProtocol,
                  {remio::ErrorDomain::kProtocol,
                   static_cast<std::int32_t>(Status::kProtocol),
                   /*retryable=*/false, site},
                  what);
}

/// Takes the first `n` bytes of `parts` (all, if fewer) off its front as
/// one slice: a view when they lie in one part, else gathered.
simnet::SharedSlice take_front(std::vector<simnet::SharedSlice>& parts,
                               std::size_t n) {
  std::vector<simnet::SharedSlice> front;
  std::size_t used = 0;  // parts taken whole
  for (; n > 0 && used < parts.size(); ++used) {
    simnet::SharedSlice& p = parts[used];
    const std::size_t k = std::min(n, p.size());
    front.push_back({p.buf, p.begin, p.begin + k});
    p.begin += k;
    n -= k;
    if (!p.empty()) break;
  }
  parts.erase(parts.begin(), parts.begin() + static_cast<std::ptrdiff_t>(used));
  return simnet::gather(std::move(front));
}

/// Copies a reply's data slices out front to back.
class DataReader {
 public:
  explicit DataReader(const std::vector<simnet::SharedSlice>& parts)
      : parts_(parts), left_(simnet::total_size(parts)) {}

  /// Copies the next out.size() bytes into `out`; false, copying nothing,
  /// when fewer are left.
  bool read(MutByteSpan out) {
    if (out.size() > left_) return false;
    left_ -= out.size();
    for (std::size_t done = 0; done < out.size();) {
      const simnet::SharedSlice& p = parts_[part_];
      const std::size_t k = std::min(out.size() - done, p.size() - at_);
      std::memcpy(out.data() + done, p.view().data() + at_, k);
      done += k;
      at_ += k;
      if (at_ == p.size()) {
        ++part_;
        at_ = 0;
      }
    }
    return true;
  }

 private:
  const std::vector<simnet::SharedSlice>& parts_;
  std::size_t left_;
  std::size_t part_ = 0;  // the part being read
  std::size_t at_ = 0;    // bytes of it already read
};

/// The extent header both list verbs open with.
void put_extents(ByteWriter& w, std::int32_t fd, const ExtentList& extents) {
  w.i32(fd);
  w.u32(static_cast<std::uint32_t>(extents.size()));
  for (const Extent& x : extents) {
    w.u64(x.offset);
    w.u32(static_cast<std::uint32_t>(x.len));
  }
}

}  // namespace

SrbClient::SrbClient(simnet::Fabric& fabric, const std::string& from_host,
                     const std::string& server_host, int port,
                     const simnet::ConnectOptions& opts,
                     const std::string& client_name, const std::string& tenant,
                     bool wire_checksums)
    : sock_(fabric.connect(from_host, server_host, port,
                           with_tag(opts, client_name))) {
  connected_ = true;
  Bytes req = request(Op::kConnect, 12 + client_name.size() + tenant.size());
  ByteWriter w(req);
  w.str(client_name);
  w.str(tenant);  // optional trailing field; old servers never read it
  // Feature negotiation: appended ONLY when a feature is wanted, so a
  // checksums-off client stays bit-identical to a pre-integrity client.
  if (wire_checksums) w.u32(kFeatureWireChecksums);
  const Reply rep = call_ok(std::move(req), "connect");
  ByteReader r(rep.body);
  banner_ = r.str();
  // An old server never echoes flags; its silence downgrades the session.
  if (wire_checksums && r.remaining() >= 4)
    crc_ = (r.u32() & kFeatureWireChecksums) != 0;
}

SrbClient::~SrbClient() {
  try {
    disconnect();
  } catch (...) {
    // Destructor must not throw; the socket teardown below is unconditional.
  }
  sock_->close();
}

Bytes SrbClient::request(Op op, std::size_t reserve) {
  Bytes frame = start_frame(1 + reserve);
  ByteWriter(frame).u8(static_cast<std::uint8_t>(op));
  return frame;
}

SrbClient::Reply SrbClient::call(Bytes&& frame, std::size_t body_head) {
  std::unique_lock lk(mu_);
  if (!connected_)
    throw SrbError(Status::kIoError,
                   {remio::ErrorDomain::kTransport,
                    static_cast<std::int32_t>(Status::kIoError),
                    /*retryable=*/false, "rpc"},
                   "client disconnected");
  rpc_count_.fetch_add(1, std::memory_order_relaxed);
  finish_frame(*sock_, std::move(frame), crc_);
  std::vector<simnet::SharedSlice> parts = recv_frame_parts(*sock_);
  lk.unlock();  // the reply owns its buffers; nothing below touches the stream
  if (parts.empty())
    // Mid-stream EOF: the broker died or restarted. Transient — a
    // supervisor can reconnect and replay the op.
    throw SrbError(Status::kIoError,
                   {remio::ErrorDomain::kTransport,
                    static_cast<std::int32_t>(Status::kIoError),
                    /*retryable=*/true, "rpc"},
                   "server closed connection");
  if (crc_ && !strip_frame_crc(parts)) {
    // The response arrived corrupted. The framing held (the length prefix
    // is uncovered by design), so the stream is still in phase: the next
    // call() simply re-issues the idempotent op. Retryable integrity error.
    crc_failures_.fetch_add(1, std::memory_order_relaxed);
    throw SrbError(Status::kChecksumMismatch,
                   {remio::ErrorDomain::kIntegrity,
                    static_cast<std::int32_t>(Status::kChecksumMismatch),
                    /*retryable=*/true, "rpc"},
                   "response frame checksum mismatch");
  }
  Reply rep;
  rep.head = take_front(parts, 4 + body_head);
  ByteReader r(rep.head.view());
  rep.status = static_cast<Status>(r.i32());
  if (!r.ok()) throw protocol_error("rpc", "malformed response");
  rep.body = r.rest();
  rep.data = std::move(parts);
  return rep;
}

SrbClient::Reply SrbClient::call_ok(Bytes&& frame, const char* what,
                                    std::size_t body_head) {
  Reply rep = call(std::move(frame), body_head);
  if (rep.status != Status::kOk)
    throw status_error(rep.status,
                       std::string(what) + ": " + status_name(rep.status));
  return rep;
}

std::int32_t SrbClient::open(const std::string& path, std::uint32_t flags) {
  Bytes req = request(Op::kObjOpen, 8 + path.size());
  ByteWriter w(req);
  w.str(path);
  w.u32(flags);
  const Reply rep = call_ok(std::move(req), "open");
  return ByteReader(rep.body).i32();
}

void SrbClient::close(std::int32_t fd) {
  Bytes req = request(Op::kObjClose, 4);
  ByteWriter(req).i32(fd);
  call_ok(std::move(req), "close");
}

std::size_t SrbClient::read_at(std::int32_t fd, MutByteSpan out,
                               std::int64_t offset) {
  std::size_t total = 0;
  while (total < out.size()) {
    const std::size_t want = std::min(out.size() - total, kMaxIoChunk);
    Bytes req = request(Op::kObjRead, 16);
    ByteWriter w(req);
    w.i32(fd);
    w.i64(offset < 0 ? -1 : offset + static_cast<std::int64_t>(total));
    w.u32(static_cast<std::uint32_t>(want));
    // The reply's data stays in the slices it arrived in and is copied
    // from there into the caller's span.
    const Reply rep = call_ok(std::move(req), "read", 4);
    const std::uint32_t n = ByteReader(rep.body).u32();
    // A truncated blob is not EOF, and an oversized one must not write
    // past the caller's span.
    if (rep.body.size() != 4 || n > want ||
        !DataReader(rep.data).read(out.subspan(total, n)))
      throw protocol_error("read", "read: malformed response body");
    total += n;
    if (n < want) break;  // EOF
  }
  return total;
}

std::size_t SrbClient::write_at(std::int32_t fd, ByteSpan data,
                                std::int64_t offset) {
  std::size_t total = 0;
  while (total < data.size()) {
    const std::size_t n = std::min(data.size() - total, kMaxIoChunk);
    // The caller's bytes go straight into the request frame.
    Bytes req = request(Op::kObjWrite, 16 + n);
    ByteWriter w(req);
    w.i32(fd);
    w.i64(offset < 0 ? -1 : offset + static_cast<std::int64_t>(total));
    w.blob(data.subspan(total, n));
    call_ok(std::move(req), "write");
    total += n;
  }
  return total;
}

std::size_t SrbClient::pread(std::int32_t fd, MutByteSpan out, std::uint64_t offset) {
  return read_at(fd, out, static_cast<std::int64_t>(offset));
}

std::size_t SrbClient::pwrite(std::int32_t fd, ByteSpan data, std::uint64_t offset) {
  return write_at(fd, data, static_cast<std::int64_t>(offset));
}

std::size_t SrbClient::read(std::int32_t fd, MutByteSpan out) {
  return read_at(fd, out, -1);
}

std::size_t SrbClient::write(std::int32_t fd, ByteSpan data) {
  return write_at(fd, data, -1);
}

std::size_t SrbClient::preadv(std::int32_t fd, const ExtentList& extents,
                              MutByteSpan out) {
  if (extents.empty()) return 0;
  Bytes req = request(Op::kObjReadList, 8 + 12 * extents.size());
  ByteWriter w(req);
  put_extents(w, fd, extents);
  const Reply rep = call_ok(std::move(req), "readv", 4 + 4 * extents.size());
  ByteReader r(rep.body);
  const std::uint32_t count = r.u32();
  if (count != extents.size())
    throw protocol_error("readv", "readv: extent count mismatch in response");
  std::vector<std::uint32_t> actual(count);
  for (std::uint32_t i = 0; i < count; ++i) actual[i] = r.u32();
  // Scatter each extent's actual bytes from the reply's slices to its
  // packed position; stop at the first short extent (sorted list:
  // everything later is past EOF too).
  std::size_t total = 0;
  std::size_t packed = 0;
  DataReader data(rep.data);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.ok() || actual[i] > extents[i].len ||
        !data.read(out.subspan(packed, actual[i])))
      throw protocol_error("readv", "readv: malformed response body");
    total += actual[i];
    packed += extents[i].len;
    if (actual[i] < extents[i].len) break;
  }
  return total;
}

std::size_t SrbClient::pwritev(std::int32_t fd, const ExtentList& extents,
                               ByteSpan data) {
  if (extents.empty()) return 0;
  Bytes req = request(Op::kObjWriteList, 8 + 12 * extents.size() + data.size());
  ByteWriter w(req);
  put_extents(w, fd, extents);
  w.raw(data);
  const Reply rep = call_ok(std::move(req), "writev");
  return static_cast<std::size_t>(ByteReader(rep.body).u64());
}

std::int64_t SrbClient::seek(std::int32_t fd, std::int64_t offset, Whence whence) {
  Bytes req = request(Op::kObjSeek, 13);
  ByteWriter w(req);
  w.i32(fd);
  w.i64(offset);
  w.u8(static_cast<std::uint8_t>(whence));
  const Reply rep = call_ok(std::move(req), "seek");
  return ByteReader(rep.body).i64();
}

std::optional<ObjStat> SrbClient::stat(const std::string& path) {
  Bytes req = request(Op::kObjStat, 4 + path.size());
  ByteWriter(req).str(path);
  const Reply rep = call(std::move(req));
  if (rep.status == Status::kNotFound) return std::nullopt;
  if (rep.status != Status::kOk)
    throw status_error(rep.status, std::string("stat: ") + status_name(rep.status));
  ByteReader r(rep.body);
  ObjStat out;
  out.size = r.u64();
  out.object_id = r.u64();
  out.resource = r.str();
  return out;
}

void SrbClient::unlink(const std::string& path) {
  Bytes req = request(Op::kObjUnlink, 4 + path.size());
  ByteWriter(req).str(path);
  call_ok(std::move(req), "unlink");
}

void SrbClient::make_collection(const std::string& path) {
  Bytes req = request(Op::kCollCreate, 4 + path.size());
  ByteWriter(req).str(path);
  call_ok(std::move(req), "mkcoll");
}

std::vector<std::string> SrbClient::list(const std::string& collection) {
  Bytes req = request(Op::kCollList, 4 + collection.size());
  ByteWriter(req).str(collection);
  const Reply rep = call_ok(std::move(req), "list");
  ByteReader r(rep.body);
  const std::uint32_t count = r.u32();
  std::vector<std::string> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.str());
  return out;
}

void SrbClient::set_attr(const std::string& path, const std::string& key,
                         const std::string& value) {
  Bytes req = request(Op::kSetAttr, 12 + path.size() + key.size() + value.size());
  ByteWriter w(req);
  w.str(path);
  w.str(key);
  w.str(value);
  call_ok(std::move(req), "set_attr");
}

std::optional<std::string> SrbClient::get_attr(const std::string& path,
                                               const std::string& key) {
  Bytes req = request(Op::kGetAttr, 8 + path.size() + key.size());
  ByteWriter w(req);
  w.str(path);
  w.str(key);
  const Reply rep = call(std::move(req));
  if (rep.status == Status::kNotFound) return std::nullopt;
  if (rep.status != Status::kOk)
    throw status_error(rep.status,
                       std::string("get_attr: ") + status_name(rep.status));
  return ByteReader(rep.body).str();
}

SrbClient::ScrubResult SrbClient::scrub() {
  const Reply rep = call_ok(request(Op::kAdminScrub, 0), "scrub");
  ByteReader r(rep.body);
  ScrubResult out;
  out.objects = r.u64();
  out.blocks = r.u64();
  out.mismatched = r.u64();
  out.quarantined = r.u64();
  out.healed = r.u64();
  return out;
}

void SrbClient::disconnect() {
  {
    std::lock_guard lk(mu_);
    if (!connected_) return;
  }
  try {
    call(request(Op::kDisconnect, 0));
  } catch (...) {
    // Server may already be gone; disconnect is best-effort.
  }
  std::lock_guard lk(mu_);
  connected_ = false;
}

}  // namespace remio::srb
