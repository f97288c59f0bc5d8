#include "src/core/messages.h"

namespace walter {

namespace {

void PutOptionalString(ByteWriter* w, const std::optional<std::string>& s) {
  w->PutU8(s.has_value() ? 1 : 0);
  if (s) {
    w->PutString(*s);
  }
}

std::optional<std::string> GetOptionalString(ByteReader* r) {
  if (r->GetU8() == 0) {
    return std::nullopt;
  }
  return r->GetString();
}

}  // namespace

std::string ClientOpRequest::Serialize() const {
  ByteWriter w;
  w.PutU64(tid);
  uint8_t flags = (start_tx ? 1 : 0) | (commit_after ? 2 : 0) | (abort ? 4 : 0) |
                  (want_durable ? 8 : 0) | (want_visible ? 16 : 0);
  w.PutU8(flags);
  w.PutVts(vts);
  w.PutU8(static_cast<uint8_t>(op));
  w.PutObjectId(oid);
  w.PutObjectId(elem);
  w.PutString(data);
  w.PutU32(static_cast<uint32_t>(oids.size()));
  for (const auto& o : oids) {
    w.PutObjectId(o);
  }
  w.PutU32(reply_port);
  w.PutU64(op_seq);
  // Trailing optional field (wire-compatible like PropagateAck's floor): only
  // cross-node ops carry it, so single-server-per-site runs serialize the
  // exact pre-sharding byte stream. The consistency-mode group rides after it,
  // so a non-default mode forces reply_site onto the wire too (kNoSite is a
  // plain u32 sentinel, so the field order stays decodable).
  bool mode_tail = mode != ConsistencyMode::kPsi || !read_oids.empty();
  if (reply_site != kNoSite || mode_tail) {
    w.PutU32(reply_site);
  }
  if (mode_tail) {
    w.PutU8(static_cast<uint8_t>(mode));
    w.PutU32(static_cast<uint32_t>(read_oids.size()));
    for (const auto& o : read_oids) {
      w.PutObjectId(o);
    }
  }
  return w.Take();
}

ClientOpRequest ClientOpRequest::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  ClientOpRequest req;
  req.tid = r.GetU64();
  uint8_t flags = r.GetU8();
  req.start_tx = flags & 1;
  req.commit_after = flags & 2;
  req.abort = flags & 4;
  req.want_durable = flags & 8;
  req.want_visible = flags & 16;
  req.vts = r.GetVts();
  req.op = static_cast<ClientOpKind>(r.GetU8());
  req.oid = r.GetObjectId();
  req.elem = r.GetObjectId();
  req.data = r.GetString();
  uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n && !r.failed(); ++i) {
    req.oids.push_back(r.GetObjectId());
  }
  req.reply_port = r.GetU32();
  req.op_seq = r.GetU64();
  if (r.remaining() > 0) {
    req.reply_site = r.GetU32();
  }
  if (r.remaining() > 0) {
    req.mode = static_cast<ConsistencyMode>(r.GetU8());
    uint32_t nr = r.GetU32();
    for (uint32_t i = 0; i < nr && !r.failed(); ++i) {
      req.read_oids.push_back(r.GetObjectId());
    }
  }
  return req;
}

std::string ClientOpResponse::Serialize() const {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(status));
  w.PutVts(assigned_vts);
  w.PutU8(found ? 1 : 0);
  w.PutString(data);
  w.PutString(cset_bytes);
  w.PutI64(count);
  w.PutU32(static_cast<uint32_t>(values.size()));
  for (const auto& v : values) {
    PutOptionalString(&w, v);
  }
  w.PutVersion(commit_version);
  // Trailing optional (like PrepareRequest's priority): omitted when zero.
  if (retry_after_us != 0) {
    w.PutU64(retry_after_us);
  }
  return w.Take();
}

ClientOpResponse ClientOpResponse::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  ClientOpResponse resp;
  resp.status = static_cast<StatusCode>(r.GetU8());
  resp.assigned_vts = r.GetVts();
  resp.found = r.GetU8() != 0;
  resp.data = r.GetString();
  resp.cset_bytes = r.GetString();
  resp.count = r.GetI64();
  uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n && !r.failed(); ++i) {
    resp.values.push_back(GetOptionalString(&r));
  }
  resp.commit_version = r.GetVersion();
  if (r.remaining() > 0) {
    resp.retry_after_us = r.GetU64();
  }
  return resp;
}

std::string PrepareRequest::Serialize() const {
  ByteWriter w;
  w.PutU64(tid);
  w.PutU32(static_cast<uint32_t>(oids.size()));
  for (const auto& o : oids) {
    w.PutObjectId(o);
  }
  w.PutVts(start_vts);
  // Trailing optional: priority is omitted when zero. The clock/mode group
  // rides after priority, so any non-default member forces priority onto the
  // wire too (0 decodes back to 0 — still correct).
  bool clock_tail =
      commit_ts != 0 || mode != ConsistencyMode::kPsi || !read_oids.empty();
  if (priority != 0 || clock_tail) {
    w.PutU64(priority);
  }
  if (clock_tail) {
    w.PutU64(static_cast<uint64_t>(commit_ts));
    w.PutU8(static_cast<uint8_t>(mode));
    w.PutU32(static_cast<uint32_t>(read_oids.size()));
    for (const auto& o : read_oids) {
      w.PutObjectId(o);
    }
  }
  return w.Take();
}

PrepareRequest PrepareRequest::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  PrepareRequest req;
  req.tid = r.GetU64();
  uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n && !r.failed(); ++i) {
    req.oids.push_back(r.GetObjectId());
  }
  req.start_vts = r.GetVts();
  if (r.remaining() > 0) {
    req.priority = r.GetU64();
  }
  if (r.remaining() > 0) {
    req.commit_ts = static_cast<int64_t>(r.GetU64());
    req.mode = static_cast<ConsistencyMode>(r.GetU8());
    uint32_t nr = r.GetU32();
    for (uint32_t i = 0; i < nr && !r.failed(); ++i) {
      req.read_oids.push_back(r.GetObjectId());
    }
  }
  return req;
}

std::string PrepareResponse::Serialize() const {
  ByteWriter w;
  w.PutU8(vote_yes ? 1 : 0);
  if (reason != AbortReason::kNone || clock_fallback) {
    w.PutU8(static_cast<uint8_t>(reason));
  }
  if (clock_fallback) {
    w.PutU8(1);
  }
  return w.Take();
}

PrepareResponse PrepareResponse::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  PrepareResponse resp;
  resp.vote_yes = r.GetU8() != 0;
  if (r.remaining() > 0) {
    resp.reason = static_cast<AbortReason>(r.GetU8());
  }
  if (r.remaining() > 0) {
    resp.clock_fallback = r.GetU8() != 0;
  }
  return resp;
}

std::string CommitDecision::Serialize() const {
  ByteWriter w;
  w.PutU64(tid);
  w.PutVersion(version);
  return w.Take();
}

CommitDecision CommitDecision::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  CommitDecision d;
  d.tid = r.GetU64();
  d.version = r.GetVersion();
  return d;
}

std::string AbortMessage::Serialize() const {
  ByteWriter w;
  w.PutU64(tid);
  return w.Take();
}

AbortMessage AbortMessage::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  AbortMessage m;
  m.tid = r.GetU64();
  return m;
}

std::string PropagateBatch::Serialize() const {
  ByteWriter w;
  w.PutU32(origin);
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const auto& rec : records) {
    rec.Serialize(&w);
  }
  return w.Take();
}

PropagateBatch PropagateBatch::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  PropagateBatch b;
  b.origin = r.GetU32();
  uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n && !r.failed(); ++i) {
    b.records.push_back(TxRecord::Deserialize(&r));
  }
  return b;
}

size_t PropagateBatch::ByteSize() const {
  size_t n = 8;
  for (const auto& rec : records) {
    n += rec.ByteSize();
  }
  return n;
}

std::string PropagateAck::Serialize() const {
  ByteWriter w;
  w.PutU32(from);
  w.PutU32(origin);
  w.PutU64(received_through);
  return w.Take();
}

PropagateAck PropagateAck::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  PropagateAck a;
  a.from = r.GetU32();
  a.origin = r.GetU32();
  a.received_through = r.GetU64();
  return a;
}

std::string DsDurableMessage::Serialize() const {
  ByteWriter w;
  w.PutU32(origin);
  w.PutU64(durable_through);
  return w.Take();
}

DsDurableMessage DsDurableMessage::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  DsDurableMessage m;
  m.origin = r.GetU32();
  m.durable_through = r.GetU64();
  return m;
}

std::string VisibleAck::Serialize() const {
  ByteWriter w;
  w.PutU32(from);
  w.PutU32(origin);
  w.PutU64(committed_through);
  return w.Take();
}

VisibleAck VisibleAck::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  VisibleAck a;
  a.from = r.GetU32();
  a.origin = r.GetU32();
  a.committed_through = r.GetU64();
  return a;
}

std::string RemoteReadRequest::Serialize() const {
  ByteWriter w;
  w.PutObjectId(oid);
  w.PutVts(vts);
  w.PutU8(is_cset ? 1 : 0);
  w.PutU32(caller);
  w.PutU64(local_min_seqno);
  // Trailing optional: omitted at the default level, so PSI traffic keeps the
  // pre-mode byte stream.
  if (mode != ConsistencyMode::kPsi) {
    w.PutU8(static_cast<uint8_t>(mode));
  }
  return w.Take();
}

RemoteReadRequest RemoteReadRequest::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  RemoteReadRequest req;
  req.oid = r.GetObjectId();
  req.vts = r.GetVts();
  req.is_cset = r.GetU8() != 0;
  req.caller = r.GetU32();
  req.local_min_seqno = r.GetU64();
  if (r.remaining() > 0) {
    req.mode = static_cast<ConsistencyMode>(r.GetU8());
  }
  return req;
}

std::string RemoteReadResponse::Serialize() const {
  ByteWriter w;
  w.PutU8(found ? 1 : 0);
  w.PutString(data);
  w.PutVersion(version);
  w.PutString(cset_bytes);
  return w.Take();
}

RemoteReadResponse RemoteReadResponse::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  RemoteReadResponse resp;
  resp.found = r.GetU8() != 0;
  resp.data = r.GetString();
  resp.version = r.GetVersion();
  resp.cset_bytes = r.GetString();
  return resp;
}

std::string TxStatusRequest::Serialize() const {
  ByteWriter w;
  w.PutU64(tid);
  return w.Take();
}

TxStatusRequest TxStatusRequest::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  TxStatusRequest req;
  req.tid = r.GetU64();
  return req;
}

std::string TxStatusResponse::Serialize() const {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(outcome));
  return w.Take();
}

TxStatusResponse TxStatusResponse::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  TxStatusResponse resp;
  resp.outcome = static_cast<TxStatusOutcome>(r.GetU8());
  return resp;
}

std::string TxNotify::Serialize() const {
  ByteWriter w;
  w.PutU64(tid);
  return w.Take();
}

TxNotify TxNotify::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  TxNotify n;
  n.tid = r.GetU64();
  return n;
}

std::string ResyncState::Serialize() const {
  ByteWriter w;
  w.PutU32(from);
  w.PutU64(got_through);
  w.PutU64(committed_through);
  w.PutU64(durable_through);
  w.PutU8(is_reply ? 1 : 0);
  return w.Take();
}

ResyncState ResyncState::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  ResyncState m;
  m.from = r.GetU32();
  m.got_through = r.GetU64();
  m.committed_through = r.GetU64();
  m.durable_through = r.GetU64();
  m.is_reply = r.GetU8() != 0;
  return m;
}

std::string FetchRecordsRequest::Serialize() const {
  ByteWriter w;
  w.PutU32(from);
  w.PutU32(origin);
  w.PutU64(from_seqno);
  w.PutU64(to_seqno);
  return w.Take();
}

FetchRecordsRequest FetchRecordsRequest::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  FetchRecordsRequest m;
  m.from = r.GetU32();
  m.origin = r.GetU32();
  m.from_seqno = r.GetU64();
  m.to_seqno = r.GetU64();
  return m;
}

std::string FetchRecordsResponse::Serialize() const {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const auto& rec : records) {
    rec.Serialize(&w);
  }
  return w.Take();
}

FetchRecordsResponse FetchRecordsResponse::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  FetchRecordsResponse m;
  uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n && !r.failed(); ++i) {
    m.records.push_back(TxRecord::Deserialize(&r));
  }
  return m;
}

}  // namespace walter
