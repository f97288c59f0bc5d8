#include "src/core/server.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace walter {

namespace {

// Wrapper around the checkpoint image: [magic][crc32 of the body][body]. Lets
// Restore detect a rotted checkpoint and degrade to WAL-only recovery instead
// of silently installing corrupt object state.
constexpr uint32_t kCheckpointMagic = 0x57434b50;  // "WCKP"

std::unique_ptr<WalDevice> MakeWalDevice(const WalterServer::Options& options) {
  if (options.wal_dir.empty()) {
    return nullptr;
  }
  return std::make_unique<FileWalDevice>(options.wal_dir);
}

// Safety margin on top of the worst one-way delay and the skew bound, so an
// on-time clock-stamped prepare still arrives before the participant's clock
// passes its commit_ts.
constexpr SimDuration kClockSlack = Millis(1);

// Worst one-way delay between any two sites (half the largest RTT), or 100ms
// for a topology with no RTTs. The clock-ordered commit's hold budget must
// cover it, or far participants constantly fall back to classic votes.
SimDuration MaxOneWayDelay(const Topology& t) {
  SimDuration max_owd = 0;
  for (SiteId a = 0; a < static_cast<SiteId>(t.num_sites()); ++a) {
    max_owd = std::max(max_owd, t.MaxRttFrom(a) / 2);
  }
  return max_owd > 0 ? max_owd : Millis(100);
}

// Chains a retransmission's reply onto the live one in `slot`: when the
// outcome arrives, both answer with it.
void ChainReply(std::function<void(ClientOpResponse)>& slot,
                std::function<void(ClientOpResponse)> respond) {
  slot = [prev = std::move(slot), r = std::move(respond)](ClientOpResponse resp) {
    if (prev) {
      prev(resp);
    }
    r(std::move(resp));
  };
}

// Deduplicated regular-object write set of an update buffer (the write-set of
// Figure 11 excludes cset updates).
std::vector<ObjectId> WriteSetOf(const std::vector<ObjectUpdate>& updates) {
  std::vector<ObjectId> ws;
  for (const auto& u : updates) {
    if (u.kind == UpdateKind::kData) {
      ws.push_back(u.oid);
    }
  }
  std::sort(ws.begin(), ws.end());
  ws.erase(std::unique(ws.begin(), ws.end()), ws.end());
  return ws;
}

}  // namespace

WalterServer::WalterServer(Simulator* sim, Network* net, Options options,
                           ContainerDirectory* directory)
    : sim_(sim),
      net_(net),
      options_(options),
      directory_(directory),
      endpoint_(net, Address{options.site, kWalterPort}, sim),
      cpu_(sim, options.perf.cpu_capacity, "cpu@" + std::to_string(options.site)),
      disk_(sim, options.disk),
      store_(MakeWalDevice(options)),
      clock_(options.site, options.clock),
      clock_max_owd_(MaxOneWayDelay(net->topology())),
      committed_vts_(options.num_sites),
      got_vts_(options.num_sites),
      durable_applied_(options.num_sites),
      pending_in_(options.num_sites),
      uncommitted_remote_(options.num_sites),
      durable_known_(options.num_sites, 0),
      site_active_(options.num_sites, true),
      dests_(options.num_sites),
      alive_(std::make_shared<bool>(true)) {
  endpoint_.Handle(kClientOp,
                   [this](const Message& m, RpcEndpoint::ReplyFn r) { HandleClientOp(m, std::move(r)); });
  endpoint_.Handle(kPrepare,
                   [this](const Message& m, RpcEndpoint::ReplyFn r) { HandlePrepare(m, std::move(r)); });
  endpoint_.Handle(kAbort2pc, [this](const Message& m, RpcEndpoint::ReplyFn) { HandleAbort2pc(m); });
  endpoint_.Handle(kCommitDecision,
                   [this](const Message& m, RpcEndpoint::ReplyFn) { HandleCommitDecision(m); });
  endpoint_.Handle(kPropagate, [this](const Message& m, RpcEndpoint::ReplyFn) { HandlePropagate(m); });
  endpoint_.Handle(kPropagateAck,
                   [this](const Message& m, RpcEndpoint::ReplyFn) { HandlePropagateAck(m); });
  endpoint_.Handle(kDsDurable, [this](const Message& m, RpcEndpoint::ReplyFn) { HandleDsDurable(m); });
  endpoint_.Handle(kVisibleAck, [this](const Message& m, RpcEndpoint::ReplyFn) { HandleVisibleAck(m); });
  endpoint_.Handle(kRemoteRead,
                   [this](const Message& m, RpcEndpoint::ReplyFn r) { HandleRemoteRead(m, std::move(r)); });
  endpoint_.Handle(kTxStatus,
                   [this](const Message& m, RpcEndpoint::ReplyFn r) { HandleTxStatus(m, std::move(r)); });
  endpoint_.Handle(kResync, [this](const Message& m, RpcEndpoint::ReplyFn) { HandleResync(m); });
  endpoint_.Handle(kFetchRecords, [this](const Message& m, RpcEndpoint::ReplyFn r) {
    HandleFetchRecords(m, std::move(r));
  });
  if (options_.num_sites > 1 && options_.gossip_interval > 0) {
    StartGossip();
  }
  if (options_.idle_tx_timeout > 0) {
    SweepIdleTxs();
  }
}

WalterServer::~WalterServer() { *alive_ = false; }

SimDuration WalterServer::Jittered(SimDuration base) {
  if (base == 0 || options_.perf.jitter <= 0) {
    return base;
  }
  return static_cast<SimDuration>(static_cast<double>(base) *
                                  (1.0 + options_.perf.jitter * sim_->rng().NextDouble()));
}

SimDuration WalterServer::CostFor(const ClientOpRequest& req) const {
  const PerfModel& p = options_.perf;
  SimDuration cost = 0;
  switch (req.op) {
    case ClientOpKind::kRead:
    case ClientOpKind::kSetRead:
    case ClientOpKind::kSetReadId:
      cost += p.read_op;
      break;
    case ClientOpKind::kMultiRead:
      cost += p.read_op * static_cast<SimDuration>(std::max<size_t>(req.oids.size(), 1));
      break;
    case ClientOpKind::kWrite:
    case ClientOpKind::kSetAdd:
    case ClientOpKind::kSetDel:
      cost += p.buffer_op;
      break;
    case ClientOpKind::kNone:
      cost += p.start_op;
      break;
  }
  if (req.commit_after) {
    cost += p.commit_op;
  }
  return cost;
}

// ---------------------------------------------------------------------------
// Client operations (Figure 10)
// ---------------------------------------------------------------------------

void WalterServer::HandleClientOp(const Message& msg, RpcEndpoint::ReplyFn reply) {
  ClientOpRequest req = ClientOpRequest::Deserialize(msg.payload);
  WTRACE(sim_->Now(), TraceKind::kServerRecv, req.tid, options_.site, 0,
         static_cast<uint32_t>(req.op));
  RespondFn respond = [reply = std::move(reply)](ClientOpResponse resp) {
    Message m;
    m.payload = resp.Serialize();
    reply(std::move(m));
  };
  if (!AdmitClientOp(req, respond)) {
    return;
  }
  cpu_.Execute(Jittered(CostFor(req)),
               [this, req = std::move(req), respond = std::move(respond)]() mutable {
                 ProcessClientOp(req, std::move(respond));
               });
}

bool WalterServer::AdmitClientOp(const ClientOpRequest& req, RespondFn& respond) {
  const bool enabled = options_.admission_max_queue > 0 || options_.admission_max_inflight > 0;
  if (!enabled) {
    return true;
  }
  const size_t queue = cpu_.queue_length();
  if (!req.abort) {
    const bool over_queue =
        options_.admission_max_queue > 0 && queue >= options_.admission_max_queue;
    const bool over_inflight = options_.admission_max_inflight > 0 &&
                               admitted_inflight_ >= options_.admission_max_inflight;
    if ((over_queue || over_inflight) && !IsAdmittedRetransmission(req)) {
      ++stats_.admit_rejects;
      ClientOpResponse resp;
      resp.status = StatusCode::kOverloaded;
      // Retry-after hint: roughly the time this CPU needs to drain its queue,
      // clamped so a client neither hammers back instantly nor sits out a
      // whole surge. Deterministic (no jitter) — the client adds its own.
      uint64_t drain = (static_cast<uint64_t>(queue) + 1) *
                       static_cast<uint64_t>(options_.perf.commit_op);
      resp.retry_after_us =
          std::clamp<uint64_t>(drain, static_cast<uint64_t>(Millis(1)),
                               static_cast<uint64_t>(Millis(100)));
      WTRACE(sim_->Now(), TraceKind::kAdmitReject, req.tid, options_.site, resp.retry_after_us,
             static_cast<uint32_t>(queue));
      respond(std::move(resp));
      return false;
    }
  }
  // Admitted: account it until the reply closure runs or is dropped — a parked
  // read holds its slot for as long as it holds server state. The token rides
  // `respond` by shared_ptr so chained/duplicated closures release it exactly
  // once, when the last copy dies.
  ++admitted_inflight_;
  stats_.admitted_inflight_peak =
      std::max<uint64_t>(stats_.admitted_inflight_peak, admitted_inflight_);
  if (queue + 1 > stats_.cpu_queue_peak) {
    stats_.cpu_queue_peak = queue + 1;
    WTRACE(sim_->Now(), TraceKind::kQueueDepth, 0, options_.site, queue + 1);
  }
  auto token = std::shared_ptr<void>(nullptr, [alive = alive_, this](void*) {
    if (*alive) {
      --admitted_inflight_;
    }
  });
  respond = [token = std::move(token),
             inner = std::move(respond)](ClientOpResponse resp) { inner(std::move(resp)); };
  return true;
}

bool WalterServer::IsAdmittedRetransmission(const ClientOpRequest& req) const {
  // A parked read keeps its reply closure registered under (tid, op_seq) for
  // the park's whole lifetime; a matching key means this very op was admitted
  // and is still being worked on.
  if (req.op_seq != 0 && parked_reads_.count({req.tid, req.op_seq}) > 0) {
    return true;
  }
  // A retransmitted commit with chained (2PC in flight, lock-parked,
  // gap-parked) or settled (committed/aborted) state short-circuits in
  // DedupRetransmittedCommit; bouncing it at admission would strand the
  // client without its outcome for as long as the overload lasts.
  if (req.commit_after &&
      (slow_commits_.contains(req.tid) || parked_commits_.contains(req.tid) ||
       gap_commit_waiters_.contains(req.tid) || committed_versions_.contains(req.tid) ||
       aborted_tids_.contains(req.tid))) {
    return true;
  }
  return false;
}

void WalterServer::ProcessClientOp(const ClientOpRequest& req, RespondFn respond) {
  if (req.abort) {
    active_.erase(req.tid);
    ReleaseLocks(req.tid);
    aborted_tids_.insert(req.tid);
    RecordOutcome(req.tid);
    respond(ClientOpResponse{});
    return;
  }

  // A retransmitted commit (response lost, client retried) must be answered
  // from the recorded outcome, never re-applied.
  if (req.commit_after && DedupRetransmittedCommit(req, respond)) {
    return;
  }

  // Resolve the snapshot: carried by the client, held server-side, or new.
  auto it = active_.find(req.tid);
  VectorTimestamp vts;
  if (req.vts.num_sites() > 0) {
    vts = req.vts;
  } else if (it != active_.end()) {
    vts = it->second.start_vts;
  } else {
    vts = SnapshotNow();
  }

  // Buffering operations create/extend the server-side transaction state.
  ObjectUpdate update;
  bool is_update = true;
  switch (req.op) {
    case ClientOpKind::kWrite:
      update = ObjectUpdate::Data(req.oid, req.data);
      break;
    case ClientOpKind::kSetAdd:
      update = ObjectUpdate::Add(req.oid, req.elem);
      break;
    case ClientOpKind::kSetDel:
      update = ObjectUpdate::Del(req.oid, req.elem);
      break;
    default:
      is_update = false;
      break;
  }
  if (is_update) {
    ActiveTx& tx = active_[req.tid];
    tx.last_touch = sim_->Now();
    tx.mode = req.mode;  // the client stamps the same mode on every RPC
    if (tx.start_vts.num_sites() == 0) {
      tx.start_vts = vts;
    }
    if (req.op_seq != 0 && req.op_seq <= tx.max_op_seq) {
      // Retransmission of a buffering op whose response (not request) was
      // lost: the update is already buffered, just re-acknowledge.
      ++stats_.op_dedups;
    } else {
      tx.max_op_seq = std::max(tx.max_op_seq, req.op_seq);
      tx.updates.push_back(std::move(update));
    }
    it = active_.find(req.tid);
  }

  if (req.op == ClientOpKind::kRead || req.op == ClientOpKind::kSetRead ||
      req.op == ClientOpKind::kSetReadId || req.op == ClientOpKind::kMultiRead) {
    if (req.op_seq != 0) {
      auto pr = parked_reads_.find({req.tid, req.op_seq});
      if (pr != parked_reads_.end()) {
        // Retransmission of a read whose original is still parked (the park
        // outlived the client's RPC timeout): chain this reply onto the live
        // park. Starting a second DoRead chain here would hand the same
        // logical read a fresh starvation budget and count it starved once
        // per retransmission — the starvation metric and the watchdog verdict
        // would disagree about how many reads actually starved.
        ++stats_.read_park_dedups;
        ChainReply(pr->second, std::move(respond));
        return;
      }
    }
    ++stats_.reads;
    if (it != active_.end()) {
      it->second.last_touch = sim_->Now();
    }
    const ActiveTx* tx = it != active_.end() ? &it->second : nullptr;
    DoRead(req, vts, tx, std::move(respond));
    return;
  }

  if (req.commit_after) {
    ActiveTx tx;
    if (it != active_.end()) {
      tx = std::move(it->second);
      active_.erase(it);
    } else {
      tx.start_vts = vts;
    }
    tx.mode = req.mode;
    tx.read_oids = req.read_oids;  // serializable mode; empty otherwise
    DoCommit(req.tid, std::move(tx),
             CommitReply{req.want_durable, req.want_visible, req.reply_port, req.reply_site,
                         std::move(respond)});
    return;
  }

  // Pure buffering op (or explicit start): acknowledge with the snapshot.
  ClientOpResponse resp;
  resp.assigned_vts = vts;
  respond(std::move(resp));
}

std::optional<SimDuration> WalterServer::ReadParkDelay(uint32_t park_attempt) const {
  auto delay_at = [this](uint32_t a) -> SimDuration {
    if (a < options_.read_park_soft_retries) {
      return Millis(1);
    }
    uint32_t shift = std::min<uint32_t>(a - options_.read_park_soft_retries, 20);
    return std::min<SimDuration>(options_.read_park_backoff_cap, Millis(2) << shift);
  };
  SimDuration waited = 0;
  for (uint32_t a = 0; a < park_attempt; ++a) {
    waited += delay_at(a);
  }
  if (waited >= options_.read_park_budget) {
    return std::nullopt;
  }
  return delay_at(park_attempt);
}

void WalterServer::ParkRead(const ClientOpRequest& req, const VectorTimestamp& vts,
                            RespondFn respond, uint32_t park_attempt, SimDuration delay) {
  const std::pair<TxId, uint64_t> key{req.tid, req.op_seq};
  RespondFn captured;
  if (req.op_seq != 0) {
    // Fresh park or re-park: (re)install the reply closure so a retransmission
    // arriving during the wait chains onto this park (see ProcessClientOp)
    // instead of opening a second chain with a fresh starvation budget.
    parked_reads_[key] = std::move(respond);
  } else {
    // Untagged request (raw test traffic): no identity to dedup on; the reply
    // rides the timer as before.
    captured = std::move(respond);
  }
  sim_->After(delay, Guard([this, req, vts, park_attempt, key,
                            captured = std::move(captured)]() mutable {
    RespondFn respond = std::move(captured);
    if (req.op_seq != 0) {
      auto it = parked_reads_.find(key);
      if (it == parked_reads_.end()) {
        return;  // already resolved out from under the timer
      }
      respond = std::move(it->second);
      parked_reads_.erase(it);
    }
    auto at = active_.find(req.tid);
    const ActiveTx* tx2 = at != active_.end() ? &at->second : nullptr;
    DoRead(req, vts, tx2, std::move(respond), park_attempt + 1);
  }));
}

void WalterServer::DoRead(const ClientOpRequest& req, const VectorTimestamp& vts,
                          const ActiveTx* tx, RespondFn respond, uint32_t park_attempt) {
  ClientOpResponse resp;
  resp.assigned_vts = vts;

  if (!vts.Covers(store_.gc_frontier())) {
    // Snapshot below the GC frontier: folded bases may already include writes
    // the snapshot must not see, so no correct answer exists. Fail-stop with
    // kUnavailable (the client restarts on a fresh snapshot). Unreachable
    // while the snapshot-pin registry holds live transactions above the
    // frontier; reachable for a client-carried vts that outlived its pin.
    ++stats_.gc_stale_reads;
    WTRACE(sim_->Now(), TraceKind::kGcStaleRead, req.tid, options_.site);
    resp.status = StatusCode::kUnavailable;
    respond(std::move(resp));
    return;
  }

  // Sharded mode only: the snapshot was assigned by a sibling shard whose
  // committed state runs ahead of ours for some origin, so our history may
  // still be missing versions the snapshot includes. The gap closes via normal
  // intra-site propagation (~min_batch_interval); park the read and retry
  // rather than serve a hole. NMSI transactions skip the park: serving from
  // the locally applied history is exactly the non-monotonic snapshot NMSI
  // permits (the read may miss versions the snapshot nominally includes).
  bool gap = options_.sharded && !committed_vts_.Covers(vts) && req.mode != ConsistencyMode::kNmsi;
  bool watermarked = false;
  if (!gap && locks_.has_watermarks()) {
    // Early lock release: a watermark marks a decided version our snapshot
    // includes but our history does not hold yet (the lock that used to delay
    // such snapshots is already released). Park until it commits here; the
    // watermark clears on the same propagation edge the lock release used to
    // ride, so the wait is the propagation gap, not a new failure mode.
    auto blocks = [&](const ObjectId& oid) { return locks_.WatermarkBlocksRead(oid, vts); };
    watermarked = req.op == ClientOpKind::kMultiRead
                      ? std::any_of(req.oids.begin(), req.oids.end(), blocks)
                      : blocks(req.oid);
    if (watermarked && req.mode == ConsistencyMode::kNmsi) {
      // NMSI: serve the latest applied version instead of waiting for the
      // decided one to commit here — the permitted non-monotonic read. The
      // write path is untouched (lost updates stay forbidden).
      ++stats_.nmsi_reads_unparked;
      WTRACE(sim_->Now(), TraceKind::kNmsiRead, req.tid, options_.site, park_attempt);
      watermarked = false;
    }
  }
  if (gap || watermarked) {
    // Bounded: the ActiveTx pointer is re-resolved on retry (the buffer can
    // move or be swept while we wait), and a wait that outlives the whole
    // retry budget — a partitioned sibling, or a watermark whose clearing
    // decision edge is gone (crashed origin, unhealed partition) — gives the
    // client kUnavailable. It restarts on a fresh local snapshot, which cannot
    // cover the missing version.
    if (auto delay = ReadParkDelay(park_attempt)) {
      if (watermarked) {
        ++stats_.watermark_read_waits;
        WTRACE(sim_->Now(), TraceKind::kWaitWatermark, req.tid, options_.site);
      }
      ParkRead(req, vts, std::move(respond), park_attempt, *delay);
    } else {
      ++stats_.reads_starved;
      WTRACE(sim_->Now(), TraceKind::kReadStarved, req.tid, options_.site, park_attempt);
      resp.status = StatusCode::kUnavailable;
      respond(std::move(resp));
    }
    return;
  }

  auto own_regular = [&](const ObjectId& oid) -> std::optional<std::string> {
    if (tx == nullptr) {
      return std::nullopt;
    }
    for (auto u = tx->updates.rbegin(); u != tx->updates.rend(); ++u) {
      if (u->oid == oid && u->kind == UpdateKind::kData) {
        return u->data;
      }
    }
    return std::nullopt;
  };
  auto overlay_cset_ops = [&](const ObjectId& oid, CountingSet* set) {
    if (tx == nullptr) {
      return;
    }
    for (const auto& u : tx->updates) {
      if (u.oid == oid && u.kind != UpdateKind::kData) {
        set->ApplyOp(u);
      }
    }
  };

  bool replicated = directory_->ReplicatedAt(req.oid, options_.site);

  switch (req.op) {
    case ClientOpKind::kRead: {
      if (auto own = own_regular(req.oid)) {
        resp.found = true;
        resp.data = *own;
        respond(std::move(resp));
        return;
      }
      if (replicated) {
        if (auto v = store_.ReadRegular(req.oid, vts)) {
          resp.found = true;
          resp.data = std::move(*v);
        }
        respond(std::move(resp));
        return;
      }
      // Not replicated locally: fetch from the preferred site and merge with
      // any of our own recent (unreplicated) writes (Figure 10).
      ++stats_.remote_reads;
      auto local = store_.LatestLocalVisible(req.oid, vts, options_.site);
      RemoteReadRequest rr;
      rr.oid = req.oid;
      rr.vts = vts;
      rr.is_cset = false;
      rr.caller = options_.site;
      rr.mode = req.mode;
      SiteId preferred = directory_->PreferredSite(req.oid);
      endpoint_.Call(
          Address{preferred, kWalterPort}, kRemoteRead, rr.Serialize(),
          [this, resp = std::move(resp), local, respond = std::move(respond)](
              Status status, const Message& m) mutable {
            if (!status.ok()) {
              resp.status = StatusCode::kUnavailable;
              respond(std::move(resp));
              return;
            }
            RemoteReadResponse remote = RemoteReadResponse::Deserialize(m.payload);
            // Merge: a local write to a remote-preferred object slow-committed
            // through the preferred site, so if we hold one it is the causally
            // newest visible version unless the remote value is a later write
            // of our own (compare seqnos when both originate here).
            if (local && remote.found && remote.version.site == options_.site) {
              if (remote.version.seqno > local->second.seqno) {
                resp.found = true;
                resp.data = std::move(remote.data);
              } else {
                resp.found = true;
                resp.data = local->first;
              }
            } else if (local) {
              resp.found = true;
              resp.data = local->first;
            } else if (remote.found) {
              resp.found = true;
              resp.data = std::move(remote.data);
            }
            respond(std::move(resp));
          },
          options_.resend_timeout);
      return;
    }
    case ClientOpKind::kSetRead:
    case ClientOpKind::kSetReadId: {
      if (replicated) {
        CountingSet set = store_.ReadCset(req.oid, vts);
        overlay_cset_ops(req.oid, &set);
        if (req.op == ClientOpKind::kSetReadId) {
          resp.count = set.Count(req.elem);
        } else {
          ByteWriter w;
          set.Serialize(&w);
          resp.cset_bytes = w.Take();
        }
        respond(std::move(resp));
        return;
      }
      ++stats_.remote_reads;
      uint64_t min_seq = store_.MinLocalSeqno(req.oid, options_.site);
      CountingSet local = store_.FoldLocalCsetOps(req.oid, vts, options_.site);
      RemoteReadRequest rr;
      rr.oid = req.oid;
      rr.vts = vts;
      rr.is_cset = true;
      rr.caller = options_.site;
      rr.local_min_seqno = min_seq;
      rr.mode = req.mode;
      SiteId preferred = directory_->PreferredSite(req.oid);
      ObjectId elem = req.elem;
      bool want_count = req.op == ClientOpKind::kSetReadId;
      ObjectId oid = req.oid;
      endpoint_.Call(
          Address{preferred, kWalterPort}, kRemoteRead, rr.Serialize(),
          [this, resp = std::move(resp), local, elem, want_count, oid, tx_tid = req.tid,
           respond = std::move(respond)](Status status, const Message& m) mutable {
            if (!status.ok()) {
              resp.status = StatusCode::kUnavailable;
              respond(std::move(resp));
              return;
            }
            RemoteReadResponse remote = RemoteReadResponse::Deserialize(m.payload);
            if (!remote.found) {
              // The preferred site refused the snapshot: a client-carried
              // snapshot that outlived its pin fell below that site's GC
              // frontier, or the read starved behind a watermark there.
              resp.status = StatusCode::kUnavailable;
              respond(std::move(resp));
              return;
            }
            ByteReader r(remote.cset_bytes);
            CountingSet set = CountingSet::Deserialize(&r);
            set.MergeAdd(local);
            // Re-apply the transaction's own buffered ops (it may still exist).
            auto it = active_.find(tx_tid);
            if (it != active_.end()) {
              for (const auto& u : it->second.updates) {
                if (u.oid == oid && u.kind != UpdateKind::kData) {
                  set.ApplyOp(u);
                }
              }
            }
            if (want_count) {
              resp.count = set.Count(elem);
            } else {
              ByteWriter w;
              set.Serialize(&w);
              resp.cset_bytes = w.Take();
            }
            respond(std::move(resp));
          },
          options_.resend_timeout);
      return;
    }
    case ClientOpKind::kMultiRead: {
      // Batched read of many regular objects in one RPC (Section 6). Objects
      // not replicated locally read as their locally known state.
      for (const auto& oid : req.oids) {
        if (auto own = own_regular(oid)) {
          resp.values.push_back(std::move(own));
          continue;
        }
        resp.values.push_back(store_.ReadRegular(oid, vts));
      }
      respond(std::move(resp));
      return;
    }
    default:
      resp.status = StatusCode::kInvalidArgument;
      respond(std::move(resp));
      return;
  }
}

// ---------------------------------------------------------------------------
// Commit (Figures 11 and 12)
// ---------------------------------------------------------------------------

bool WalterServer::DedupRetransmittedCommit(const ClientOpRequest& req, RespondFn& respond) {
  auto sc = slow_commits_.find(req.tid);
  if (sc != slow_commits_.end()) {
    // 2PC still deciding: attach this reply to whatever the outcome is.
    ++stats_.commit_dedups;
    ChainReply(sc->second->reply.respond, std::move(respond));
    return true;
  }
  auto pk = parked_commits_.find(req.tid);
  if (pk != parked_commits_.end()) {
    // Parked on a held lock (early lock release): chain onto the eventual
    // outcome like an in-flight 2PC.
    ++stats_.commit_dedups;
    ChainReply(pk->second.reply.respond, std::move(respond));
    return true;
  }
  auto gp = gap_commit_waiters_.find(req.tid);
  if (gp != gap_commit_waiters_.end()) {
    // Parked on a sibling-shard snapshot gap: same chaining. Without the
    // registry a retransmission would fall through to the lost-state guard
    // below and be refused while the original could still commit — and a
    // retransmission piggybacking an update would re-buffer and commit the
    // transaction a second time.
    ++stats_.commit_dedups;
    ChainReply(gp->second.reply.respond, std::move(respond));
    return true;
  }
  auto cv = committed_versions_.find(req.tid);
  if (cv != committed_versions_.end()) {
    ++stats_.commit_dedups;
    // The tid check matters: seqnos are reused after TruncateOwnLog.
    auto lc = local_commits_.find(cv->second.seqno);
    if (lc != local_commits_.end() && lc->second.record.tid == req.tid &&
        !lc->second.committed) {
      // The original commit is still group-commit flushing: reply when the
      // original reply fires.
      ChainReply(lc->second.reply.respond, std::move(respond));
      return true;
    }
    ClientOpResponse resp;
    resp.commit_version = cv->second;
    respond(std::move(resp));
    return true;
  }
  if (aborted_tids_.contains(req.tid)) {
    ++stats_.commit_dedups;
    ClientOpResponse resp;
    resp.status = StatusCode::kAborted;
    respond(std::move(resp));
    return true;
  }
  if (req.op == ClientOpKind::kNone && req.vts.num_sites() > 0 &&
      !active_.contains(req.tid)) {
    // A bare commit for a transaction that issued prior operations (it carries
    // a snapshot) but for which we hold no buffer and no recorded outcome: the
    // state was lost (server crash). Refuse rather than commit an empty
    // transaction and silently drop the client's updates.
    ClientOpResponse resp;
    resp.status = StatusCode::kUnavailable;
    respond(std::move(resp));
    return true;
  }
  return false;
}

void WalterServer::DoCommit(TxId tid, ActiveTx tx, CommitReply reply, uint32_t park_attempt) {
  if (park_attempt == 0) {
    WTRACE(sim_->Now(), TraceKind::kCommitStart, tid, options_.site);
  }
  std::vector<ObjectId> writeset = WriteSetOf(tx.updates);

  if (tx.updates.empty()) {
    // Read-only transaction: nothing to commit.
    ClientOpResponse resp;
    resp.assigned_vts = tx.start_vts;
    reply.respond(std::move(resp));
    return;
  }

  if (options_.sharded && !committed_vts_.Covers(tx.start_vts)) {
    // Sharded mode only: the snapshot came from a sibling shard that had
    // committed transactions we have not yet applied. Committing here now
    // would make this transaction visible (our snapshots would include it)
    // before its causal dependencies — a snapshot assigned at this shard
    // right after the commit could see the new version but not versions its
    // start snapshot saw, breaking PSI commit causality. Park the commit
    // until intra-site propagation closes the gap (same bounded policy as
    // parked reads), so the commit log at every server — origin included —
    // orders every transaction after everything its snapshot saw.
    if (auto delay = ReadParkDelay(park_attempt)) {
      ++stats_.commit_gap_parks;
      WTRACE(sim_->Now(), TraceKind::kCommitGapWait, tid, options_.site, park_attempt);
      // The parked commit goes into the waiter registry so a retransmitted
      // commit (the park outlived the client's RPC timeout) chains onto this
      // park via DedupRetransmittedCommit instead of being refused as lost
      // state — or worse, re-buffered and committed a second time.
      gap_commit_waiters_[tid] = ParkedCommit{std::move(tx), std::move(reply)};
      sim_->After(*delay, Guard([this, tid, park_attempt]() {
        auto node = gap_commit_waiters_.extract(tid);
        if (node.empty()) {
          return;  // already resolved out from under the timer
        }
        ParkedCommit& pc = node.mapped();
        DoCommit(tid, std::move(pc.tx), std::move(pc.reply), park_attempt + 1);
      }));
    } else {
      ++stats_.commits_starved;
      ++stats_.aborts;
      WTRACE(sim_->Now(), TraceKind::kTxAbort, tid, options_.site,
             static_cast<uint64_t>(StatusCode::kUnavailable));
      // Distinct terminal mark (after kTxAbort so it stamps the watchdog
      // stage): a starved commit must not read as a starved read — they point
      // at different blockers (sibling-shard propagation vs a dead decision
      // edge) — and must never read as silently "stuck".
      WTRACE(sim_->Now(), TraceKind::kCommitStarved, tid, options_.site, park_attempt);
      ClientOpResponse resp;
      resp.status = StatusCode::kUnavailable;
      reply.respond(std::move(resp));
    }
    return;
  }

  if (tx.mode == ConsistencyMode::kSerializable && !tx.read_oids.empty()) {
    // Backward OCC: the read set joins the write set in the conflict check
    // (Unmodified-since-snapshot + lock acquisition), turning PSI's
    // write-write check into read-write validation — which is exactly what
    // forbids write skew. Objects also written need no separate entry.
    std::sort(writeset.begin(), writeset.end());
    std::vector<ObjectId> reads;
    for (const auto& oid : tx.read_oids) {
      if (!std::binary_search(writeset.begin(), writeset.end(), oid) &&
          (reads.empty() || reads.back() != oid)) {
        reads.push_back(oid);
      }
    }
    tx.read_oids = std::move(reads);  // sorted, deduped, disjoint from writes
  } else {
    tx.read_oids.clear();
  }

  std::vector<SiteId> sites;
  for (const auto& oid : writeset) {
    SiteId s = directory_->PreferredSite(oid);
    if (std::find(sites.begin(), sites.end(), s) == sites.end()) {
      sites.push_back(s);
    }
  }
  // Serializable reads must be validated (and locked through the decision) at
  // their preferred sites too, so they widen the fast/slow split the same way
  // writes do.
  for (const auto& oid : tx.read_oids) {
    SiteId s = directory_->PreferredSite(oid);
    if (std::find(sites.begin(), sites.end(), s) == sites.end()) {
      sites.push_back(s);
    }
  }

  bool all_local = sites.empty() || (sites.size() == 1 && sites[0] == options_.site);
  if (all_local) {
    WTRACE(sim_->Now(), TraceKind::kFastPath, tid, options_.site);
    FastCommit(tid, std::move(tx), std::move(reply));
  } else {
    WTRACE(sim_->Now(), TraceKind::kSlowPath, tid, options_.site, 0,
           static_cast<uint32_t>(sites.size()));
    SlowCommit(tid, std::move(tx), std::move(reply));
  }
}

void WalterServer::FastCommit(TxId tid, ActiveTx tx, CommitReply reply, SimTime deadline) {
  // Conflict checks of Figure 11: every written object unmodified since the
  // snapshot and unlocked. This whole function is one event — atomic. A held
  // lock is a wait (the holder may abort), while a modified object or a
  // watermark is a permanent conflict — the conflicting version is
  // committed/decided, so this snapshot can never pass.
  std::vector<ObjectId> ws = WriteSetOf(tx.updates);
  if (!tx.read_oids.empty()) {
    // Serializable: the read set is validated (and parked on) exactly like
    // the write set — DoCommit already made it sorted and write-disjoint.
    ++stats_.ser_validations;
    WTRACE(sim_->Now(), TraceKind::kSerValidate, tid, options_.site,
           static_cast<uint64_t>(tx.read_oids.size()));
    ws.insert(ws.end(), tx.read_oids.begin(), tx.read_oids.end());
  }
  LockTable::Check check = CheckLocks(tid, ws, tx.start_vts);
  if (check.verdict == LockTable::Verdict::kUnavailable) {
    ++stats_.aborts;
    WTRACE(sim_->Now(), TraceKind::kTxAbort, tid, options_.site,
           static_cast<uint64_t>(StatusCode::kUnavailable));
    ClientOpResponse resp;
    resp.status = StatusCode::kUnavailable;
    reply.respond(std::move(resp));
    return;
  }
  if (check.verdict == LockTable::Verdict::kConflict) {
    if (std::binary_search(tx.read_oids.begin(), tx.read_oids.end(), check.conflict)) {
      ++stats_.aborts_ser_validation;
    }
    AbortCommit(tid, AbortReason::kConflict, reply.respond);
    return;
  }
  if (check.verdict == LockTable::Verdict::kWait) {
    // Blocked only by live locks: park until the holders resolve. A fast
    // commit is always younger than any current holder (its age starts when
    // it first parks), so wound-wait never favors it — it just waits its turn.
    SimTime since = deadline == 0 ? sim_->Now() : deadline - options_.lock_wait_timeout;
    parked_commits_[tid] = ParkedCommit{std::move(tx), std::move(reply)};
    WaitForLocks(
        tid, static_cast<uint64_t>(since) + 1, std::move(ws), deadline, check.blockers.back(), 0,
        [this, tid]() {
          auto node = parked_commits_.extract(tid);
          if (!node.empty()) {
            AbortCommit(tid, AbortReason::kTimeout, node.mapped().reply.respond);
          }
        },
        [this, tid](SimTime deadline) {
          auto node = parked_commits_.extract(tid);
          if (!node.empty()) {
            FastCommit(tid, std::move(node.mapped().tx), std::move(node.mapped().reply), deadline);
          }
        });
    return;
  }
  ++stats_.fast_commits;
  CommitLocally(tid, tx, std::move(reply));
}

void WalterServer::AbortCommit(TxId tid, AbortReason reason, const RespondFn& respond) {
  ++stats_.aborts;
  switch (reason) {
    case AbortReason::kWound:
      ++stats_.aborts_wound;
      break;
    case AbortReason::kTimeout:
      ++stats_.aborts_timeout;
      break;
    default:
      ++stats_.aborts_conflict;
      break;
  }
  aborted_tids_.insert(tid);
  RecordOutcome(tid);
  WTRACE(sim_->Now(), TraceKind::kTxAbort, tid, options_.site,
         static_cast<uint64_t>(StatusCode::kAborted), static_cast<uint32_t>(reason));
  ClientOpResponse resp;
  resp.status = StatusCode::kAborted;
  respond(std::move(resp));
}

void WalterServer::CommitLocally(TxId tid, const ActiveTx& tx, CommitReply reply) {
  uint64_t seqno = ++curr_seqno_;
  TxRecord rec;
  rec.tid = tid;
  rec.origin = options_.site;
  rec.version = Version{options_.site, seqno};
  rec.start_vts = tx.start_vts;
  rec.updates = tx.updates;
  committed_versions_[tid] = rec.version;
  RecordOutcome(tid);
  WTRACE(sim_->Now(), TraceKind::kCommitApply, tid, options_.site, seqno);
  if (!AppendRecord(rec)) {
    // The fuzzer killed us at this append boundary: the client is never acked
    // and the durable image does not contain the record.
    return;
  }
  local_commits_.emplace(seqno, LocalCommit{std::move(rec), false, false, std::move(reply)});
  FlushWal([this, seqno]() { OnLocalFlushed(seqno); });
}

bool WalterServer::AppendRecord(const TxRecord& record) {
  store_.Apply(record);
  if (storage_hook_) {
    storage_hook_(StorageEvent::kWalAppend, store_.wal().base() + store_.wal().size());
    return !crashed_;
  }
  return true;
}

void WalterServer::FlushWal(std::function<void()> on_durable) {
  size_t wal_frontier = store_.wal().base() + store_.wal().size();
  disk_.Flush([this, wal_frontier, on_durable = std::move(on_durable)]() {
    if (crashed_) {
      return;  // the machine died with the flush in flight: bytes not durable
    }
    store_.wal().Sync();  // fsync on a file-backed WAL; no-op otherwise
    durable_wal_bytes_ = std::max(durable_wal_bytes_, wal_frontier);
    on_durable();
  });
}

void WalterServer::OnLocalFlushed(uint64_t seqno) {
  auto it = local_commits_.find(seqno);
  if (it == local_commits_.end()) {
    return;
  }
  it->second.flushed = true;
  AdvanceLocalCommits();
}

void WalterServer::AdvanceLocalCommits() {
  bool advanced = false;
  while (true) {
    uint64_t next = committed_vts_.at(options_.site) + 1;
    auto it = local_commits_.find(next);
    if (it == local_commits_.end() || !it->second.flushed || it->second.committed) {
      break;
    }
    LocalCommit& lc = it->second;
    lc.committed = true;
    committed_vts_.Advance(options_.site);
    got_vts_.set(options_.site, committed_vts_.at(options_.site));
    // Own commits advance past the group-commit flush, so they are durable.
    durable_applied_.set(options_.site, committed_vts_.at(options_.site));
    ReleaseLocks(lc.record.tid);
    WTRACE(sim_->Now(), TraceKind::kCommitLocal, lc.record.tid, options_.site, next);
    if (lc.reply.respond) {
      ClientOpResponse resp;
      resp.assigned_vts = lc.record.start_vts;
      resp.commit_version = lc.record.version;
      WTRACE(sim_->Now(), TraceKind::kCommitAck, lc.record.tid, options_.site,
             lc.record.version.seqno);
      lc.reply.respond(std::move(resp));
      lc.reply.respond = nullptr;
    }
    if (observer_) {
      observer_(options_.site, lc.record);
    }
    advanced = true;
  }
  if (advanced) {
    TryCommitRemotes();  // our commits may unblock remote-commit causality guards
    UpdateDsDurable();
    MaybeSendAllBatches();
  }
}

void WalterServer::SlowCommit(TxId tid, ActiveTx tx, CommitReply reply) {
  ++stats_.slow_commits;
  auto state = std::make_shared<SlowCommitState>();
  state->tid = tid;
  state->tx = std::move(tx);
  state->reply = std::move(reply);
  slow_commits_[tid] = state;

  // Wound-wait age: commit entry time + 1 (fast-commit waiters use the same
  // offset, so ages from both paths compare on one scale).
  state->priority = static_cast<uint64_t>(sim_->Now()) + 1;

  // Partition the write-set by preferred site. WriteSetOf is globally sorted,
  // so each site's bucket is sorted and its front() is the site's minimum oid.
  std::map<SiteId, std::vector<ObjectId>>& by_site = state->by_site;
  for (const auto& oid : WriteSetOf(state->tx.updates)) {
    by_site[directory_->PreferredSite(oid)].push_back(oid);
  }
  if (!state->tx.read_oids.empty()) {
    // Serializable read set joins the per-site prepare buckets: reads are
    // validated and locked through 2PC exactly like writes (they just skip
    // the watermark install at decision time). Re-sort touched buckets so the
    // minimum-oid ordering invariants below still hold.
    std::set<SiteId> touched;
    for (const auto& oid : state->tx.read_oids) {
      SiteId s = directory_->PreferredSite(oid);
      by_site[s].push_back(oid);
      touched.insert(s);
    }
    for (SiteId s : touched) {
      std::sort(by_site[s].begin(), by_site[s].end());
    }
  }

  // All participants co-sited with us (intra-site sharding)? Then prepare
  // RPCs are cheap and deadlock is the real tax: acquire the sites one at a
  // time in global minimum-oid order, so concurrent cross-shard commits never
  // hold-and-wait in opposite orders. Across WAN sites the parallel fan-out
  // stays — serializing 100ms RTTs would be far worse than the conflicts it
  // avoids.
  bool co_sited = !options_.geo_site_of.empty();
  if (co_sited) {
    for (const auto& [s, oids] : by_site) {
      if (options_.geo_site_of[s] != options_.geo_site_of[options_.site]) {
        co_sited = false;
        break;
      }
    }
  }
  state->sequential = co_sited;
  if (state->sequential) {
    for (const auto& [s, oids] : by_site) {
      state->site_order.push_back(s);
    }
    std::sort(state->site_order.begin(), state->site_order.end(),
              [&](SiteId a, SiteId b) { return by_site[a].front() < by_site[b].front(); });
    AdvancePrepares(state);
    return;
  }
  // DoCommit routes here only when some write or serializable read is
  // preferred at another site, so at least one remote vote is pending.
  state->votes_pending = by_site.size();
  if (options_.clock_commit) {
    // Clock-ordered commit: pick a commit timestamp far enough in the future
    // that it is still ahead of every participant's local clock when the
    // prepare arrives (one-way delay bound + twice the skew bound to
    // translate coordinator clock → true time → participant clock, plus slack
    // so holds are non-degenerate). Participants hold their vote until their
    // clock passes it and release holds in (commit_ts, coordinator, tid)
    // order, which serializes conflicting WAN commits without abort/retry
    // cycles.
    state->commit_ts =
        clock_.LocalNow(sim_->Now()) + clock_max_owd_ + 2 * clock_.skew_bound() + kClockSlack;
    ++stats_.clock_commits;
  }
  for (const auto& [s, oids] : by_site) {
    if (s == options_.site) {
      // The coordinator's own vote is never held: holding it would only delay
      // the fan-out it is part of, and the clock ordering it would buy is
      // already enforced at the remote participants.
      StartLocalVote(state, oids);
      continue;
    }
    PrepareRequest prep;
    prep.tid = tid;
    prep.oids = oids;
    prep.start_vts = state->tx.start_vts;
    prep.priority = state->priority;
    prep.commit_ts = state->commit_ts;
    prep.mode = state->tx.mode;
    prep.read_oids = state->tx.read_oids;
    SendPrepare(s, std::move(prep), state, 1);
  }
}

void WalterServer::SendPrepare(SiteId dest, PrepareRequest prep,
                               std::shared_ptr<SlowCommitState> state, size_t attempt) {
  WTRACE(sim_->Now(), TraceKind::kPrepareSend, prep.tid, options_.site, attempt, dest);
  std::string payload = prep.Serialize();
  endpoint_.Call(
      Address{dest, kWalterPort}, kPrepare, std::move(payload),
      [this, state, dest, prep = std::move(prep), attempt](Status status,
                                                          const Message& m) mutable {
        if (state->finished) {
          return;
        }
        if (!status.ok() && attempt < options_.prepare_attempts) {
          // Transport failure with retry budget left: retransmit. Duplicate
          // prepares are harmless (participants re-affirm a held vote), and a
          // participant whose yes vote we never see is cleaned up by the lock
          // termination protocol.
          ++stats_.prepare_retries;
          SendPrepare(dest, std::move(prep), state, attempt + 1);
          return;
        }
        bool yes = false;
        AbortReason reason = AbortReason::kTimeout;  // transport-dead participant
        if (status.ok()) {
          PrepareResponse resp = PrepareResponse::Deserialize(m.payload);
          yes = resp.vote_yes;
          reason = resp.reason;
        }
        OnPrepareVote(state, dest, yes, reason);
      },
      options_.resend_timeout);
}

void WalterServer::OnPrepareVote(const std::shared_ptr<SlowCommitState>& state, SiteId voter,
                                 bool yes, AbortReason reason) {
  if (state->finished) {
    return;
  }
  if (yes) {
    if (voter != options_.site) {
      state->yes_votes.push_back(voter);
    }
  } else if (!state->any_no) {
    state->any_no = true;
    state->abort_reason = reason == AbortReason::kNone ? AbortReason::kConflict : reason;
  }
  if (state->sequential) {
    ++state->next_site;
    AdvancePrepares(state);  // finishes on a no vote or on exhaustion
    return;
  }
  if (--state->votes_pending == 0) {
    FinishSlowCommit(state);
  }
}

void WalterServer::AdvancePrepares(const std::shared_ptr<SlowCommitState>& state) {
  if (state->finished) {
    return;
  }
  if (state->any_no || state->next_site >= state->site_order.size()) {
    FinishSlowCommit(state);
    return;
  }
  SiteId s = state->site_order[state->next_site];
  const std::vector<ObjectId>& oids = state->by_site[s];
  if (s == options_.site) {
    StartLocalVote(state, oids);
    return;
  }
  PrepareRequest prep;
  prep.tid = state->tid;
  prep.oids = oids;
  prep.start_vts = state->tx.start_vts;
  prep.priority = state->priority;
  // Co-sited sequential acquisition: no commit_ts — ordered acquisition
  // already prevents the deadlocks clock holds exist to serialize, and a hold
  // would stall the chain.
  prep.mode = state->tx.mode;
  prep.read_oids = state->tx.read_oids;
  SendPrepare(s, std::move(prep), state, 1);
}

void WalterServer::StartLocalVote(const std::shared_ptr<SlowCommitState>& state,
                                  const std::vector<ObjectId>& oids, SimTime deadline) {
  if (state->finished) {
    return;
  }
  if (state->any_no) {
    // Wounded (or a parallel-mode peer voted no) while we were parked: don't
    // bother acquiring — cast a no so the vote accounting completes.
    OnPrepareVote(state, options_.site, false, AbortReason::kConflict);
    return;
  }
  TxId blocker = 0;
  LockTable::Verdict v =
      CheckPrepare(state->tid, oids, state->tx.start_vts, state->priority, &blocker);
  if (v == LockTable::Verdict::kWait) {
    WaitForLocks(
        state->tid, state->priority, oids, deadline, blocker, 0,
        [this, state]() { OnPrepareVote(state, options_.site, false, AbortReason::kTimeout); },
        [this, state, oids](SimTime deadline) { StartLocalVote(state, oids, deadline); });
    return;
  }
  if (v == LockTable::Verdict::kYes) {
    LockAll(state->tid, oids, options_.site, state->tx.read_oids);
    OnPrepareVote(state, options_.site, true, AbortReason::kNone);
    return;
  }
  OnPrepareVote(state, options_.site, false, AbortReason::kConflict);
}

void WalterServer::FinishSlowCommit(std::shared_ptr<SlowCommitState> state) {
  state->finished = true;
  slow_commits_.erase(state->tid);
  if (state->any_no) {
    // Release remote locks we acquired, and our own.
    for (SiteId s : state->yes_votes) {
      AbortMessage abort{state->tid};
      endpoint_.Send(Address{s, kWalterPort}, kAbort2pc, abort.Serialize());
    }
    ReleaseLocks(state->tid);
    AbortCommit(state->tid, state->abort_reason, state->reply.respond);
    return;
  }
  // All preferred sites hold locks for us: commit exactly as in fast commit,
  // then release every prepare lock at the decision.
  CommitLocally(state->tid, state->tx, std::move(state->reply));
  if (!crashed_) {
    // The decision is made and logged (CommitLocally framed the record): tell
    // the participants so they release their prepare locks NOW and cover the
    // gap with visibility watermarks, instead of holding them for the full
    // propagation round trip. Decision loss is benign — the participant then
    // just releases on the propagation edge (or the stale sweep).
    if (!state->yes_votes.empty()) {
      auto cv = committed_versions_.find(state->tid);
      Version version = cv != committed_versions_.end() ? cv->second : Version{};
      CommitDecision decision;
      decision.tid = state->tid;
      decision.version = version;
      Payload payload(decision.Serialize());  // one buffer for all participants
      for (SiteId s : state->yes_votes) {
        endpoint_.Send(Address{s, kWalterPort}, kCommitDecision, payload);
      }
      stats_.decisions_sent += state->yes_votes.size();
      WTRACE(sim_->Now(), TraceKind::kDecisionSend, state->tid, options_.site, version.seqno,
             static_cast<uint32_t>(state->yes_votes.size()));
    }
    // Our own prepare locks can go too: the record is applied to the local
    // store, so Unmodified now rejects any conflicting writer — no watermark
    // needed for a local decided version (readers see it when CommittedVTS
    // advances past the flush; until then no snapshot covers it).
    ReleaseLocks(state->tid);
  }
}

void WalterServer::HandlePrepare(const Message& msg, RpcEndpoint::ReplyFn reply) {
  PrepareRequest req = PrepareRequest::Deserialize(msg.payload);
  SiteId coordinator = msg.from.site;
  cpu_.Execute(Jittered(options_.perf.prepare_op), [this, req = std::move(req), coordinator,
                                                    reply = std::move(reply)]() {
    ++stats_.prepares_handled;
    WTRACE(sim_->Now(), TraceKind::kPrepareRecv, req.tid, options_.site, 0, coordinator);
    // A removed coordinator works from a stale snapshot; refuse its prepares
    // until it is reintegrated.
    if (!site_active_[coordinator]) {
      ReplyPrepareVote(req.tid, coordinator, reply, false, AbortReason::kConflict);
      return;
    }
    if (options_.clock_commit && req.commit_ts != 0) {
      SimTime local = clock_.LocalNow(sim_->Now());
      if (local >= req.commit_ts) {
        // The coordinator's timestamp is already in our past (late arrival or
        // skew beyond the budget): vote immediately as classic 2PC and tell
        // the coordinator its hold budget was blown.
        ++stats_.clock_fallbacks;
        WTRACE(sim_->Now(), TraceKind::kClockFallback, req.tid, options_.site,
               static_cast<uint64_t>(local - req.commit_ts), coordinator);
        AnswerPrepare(std::move(req), coordinator, std::move(reply), 0, true);
      } else {
        HoldPrepare(std::move(req), coordinator, std::move(reply));
      }
      return;
    }
    AnswerPrepare(std::move(req), coordinator, std::move(reply), 0);
  });
}

void WalterServer::ReplyPrepareVote(TxId tid, SiteId coordinator,
                                    const RpcEndpoint::ReplyFn& reply, bool yes,
                                    AbortReason reason, bool clock_fallback) {
  PrepareResponse resp;
  resp.vote_yes = yes;
  resp.reason = yes ? AbortReason::kNone : reason;
  resp.clock_fallback = clock_fallback;
  WTRACE(sim_->Now(), TraceKind::kPrepareVote, tid, options_.site, yes ? 1 : 0, coordinator);
  Message m;
  m.payload = resp.Serialize();
  reply(std::move(m));
}

void WalterServer::AnswerPrepare(PrepareRequest req, SiteId coordinator,
                                 RpcEndpoint::ReplyFn reply, SimTime deadline,
                                 bool clock_fallback) {
  if (locks_.waiter(req.tid) != nullptr) {
    // A duplicate prepare while the first copy is parked (coordinator resend):
    // refuse rather than stack two deferred votes. The parked copy answers the
    // RPC it arrived on, which the coordinator already timed out; this refusal
    // answers the live retransmission, so the coordinator aborts.
    ReplyPrepareVote(req.tid, coordinator, reply, false, AbortReason::kConflict,
                     clock_fallback);
    return;
  }
  TxId blocker = 0;
  LockTable::Verdict v = CheckPrepare(req.tid, req.oids, req.start_vts, req.priority, &blocker);
  if (v == LockTable::Verdict::kWait) {
    WaitForLocks(
        req.tid, req.priority, req.oids, deadline, blocker, coordinator,
        [this, tid = req.tid, coordinator, reply, clock_fallback]() {
          ReplyPrepareVote(tid, coordinator, reply, false, AbortReason::kTimeout, clock_fallback);
        },
        [this, req, coordinator, reply, clock_fallback](SimTime deadline) {
          AnswerPrepare(req, coordinator, reply, deadline, clock_fallback);
        });
    return;
  }
  if (v == LockTable::Verdict::kYes) {
    LockAll(req.tid, req.oids, coordinator, req.read_oids);
    ReplyPrepareVote(req.tid, coordinator, reply, true, AbortReason::kNone, clock_fallback);
    return;
  }
  ReplyPrepareVote(req.tid, coordinator, reply, false, AbortReason::kConflict, clock_fallback);
}

void WalterServer::HoldPrepare(PrepareRequest req, SiteId coordinator,
                               RpcEndpoint::ReplyFn reply) {
  auto key = std::make_tuple(req.commit_ts, coordinator, req.tid);
  if (held_prepares_.contains(key)) {
    // Coordinator resend while the first copy is held: refuse the duplicate
    // (same policy as a parked duplicate) — the held copy answers its own RPC.
    ReplyPrepareVote(req.tid, coordinator, reply, false, AbortReason::kConflict);
    return;
  }
  ++stats_.clock_holds;
  WTRACE(sim_->Now(), TraceKind::kClockHold, req.tid, options_.site,
         static_cast<uint64_t>(req.commit_ts - clock_.LocalNow(sim_->Now())), coordinator);
  held_prepares_.emplace(key, HeldPrepare{std::move(req), coordinator, std::move(reply)});
  ArmClockRelease();
}

void WalterServer::ArmClockRelease() {
  if (held_prepares_.empty()) {
    clock_timer_at_ = -1;
    return;
  }
  int64_t front_ts = std::get<0>(held_prepares_.begin()->first);
  // BaseTimeFor inverts the local clock: the earliest simulator instant at
  // which LocalNow() reaches front_ts. Never in the past (a step back between
  // arming and firing just re-arms).
  SimTime at = std::max(clock_.BaseTimeFor(front_ts), sim_->Now());
  if (clock_timer_at_ >= 0 && clock_timer_at_ <= at) {
    return;  // an armed timer already fires early enough
  }
  clock_timer_at_ = at;
  uint64_t gen = ++clock_timer_gen_;
  sim_->After(at - sim_->Now(), Guard([this, gen]() {
    if (gen != clock_timer_gen_) {
      return;  // superseded by a later (earlier-firing) arm
    }
    clock_timer_at_ = -1;
    ReleaseDueHeldPrepares();
  }));
}

void WalterServer::ReleaseDueHeldPrepares() {
  if (crashed_) {
    return;
  }
  bool released = false;
  while (!held_prepares_.empty()) {
    auto it = held_prepares_.begin();
    int64_t ts = std::get<0>(it->first);
    if (clock_.LocalNow(sim_->Now()) < ts) {
      break;
    }
    auto node = held_prepares_.extract(it);
    HeldPrepare h = std::move(node.mapped());
    released = true;
    WTRACE(sim_->Now(), TraceKind::kClockVote, h.req.tid, options_.site,
           static_cast<uint64_t>(ts), h.coordinator);
    if (!site_active_[h.coordinator]) {
      ReplyPrepareVote(h.req.tid, h.coordinator, h.reply, false, AbortReason::kConflict);
      continue;
    }
    AnswerPrepare(std::move(h.req), h.coordinator, std::move(h.reply), 0);
  }
  if (!released && !held_prepares_.empty()) {
    // The clock stepped backwards between arming and firing (LocalNow is
    // behind where BaseTimeFor projected): nothing is due yet, re-arm.
    ++stats_.clock_rearms;
  }
  ArmClockRelease();
}

LockTable::Check WalterServer::CheckLocks(TxId tid, const std::vector<ObjectId>& oids,
                                          const VectorTimestamp& vts) {
  LockTable::Check check =
      locks_.Classify(tid, oids, vts, options_.clock_commit, store_, lease_checker_);
  stats_.clock_conflict_bypasses += check.clock_bypasses;
  return check;
}

LockTable::Verdict WalterServer::CheckPrepare(TxId tid, const std::vector<ObjectId>& oids,
                                              const VectorTimestamp& vts, uint64_t priority,
                                              TxId* blocker) {
  LockTable::Check check = CheckLocks(tid, oids, vts);
  if (check.verdict != LockTable::Verdict::kWait) {
    return check.verdict;
  }
  // Wound-wait: a strictly younger holder whose 2PC this server coordinates
  // (still collecting votes, so its outcome is ours to decide) is wounded.
  // Holders whose coordinator is elsewhere already cast a yes vote we cannot
  // take back — the requester waits for those.
  auto coordinated_here = [this](TxId holder) -> std::optional<uint64_t> {
    auto sc = slow_commits_.find(holder);
    return sc == slow_commits_.end() ? std::nullopt
                                     : std::optional<uint64_t>(sc->second->priority);
  };
  for (TxId victim :
       LockTable::WoundCandidates(tid, priority, check.blockers, coordinated_here)) {
    WoundLocal(slow_commits_.at(victim), tid);
  }
  // A wounded holder freed all its locks at once; the first one left blocks.
  auto left = std::find_if(check.blockers.begin(), check.blockers.end(),
                           [this](TxId holder) { return locks_.Holds(holder); });
  if (left == check.blockers.end()) {
    return LockTable::Verdict::kYes;
  }
  *blocker = *left;
  return LockTable::Verdict::kWait;
}

void WalterServer::WoundLocal(const std::shared_ptr<SlowCommitState>& victim, TxId winner) {
  if (victim->finished) {
    return;
  }
  if (!victim->any_no) {
    victim->any_no = true;
    victim->abort_reason = AbortReason::kWound;
  }
  ++stats_.lock_wounds;
  WTRACE(sim_->Now(), TraceKind::kLockWound, victim->tid, options_.site, winner);
  // Free its local locks now; the victim's outstanding vote (an in-flight RPC
  // or its own parked local vote) drives the normal FinishSlowCommit abort,
  // which re-releases (idempotent) and aborts the remote yes-votes.
  ReleaseLocks(victim->tid);
}

void WalterServer::HandleAbort2pc(const Message& msg) {
  AbortMessage abort = AbortMessage::Deserialize(msg.payload);
  ReleaseLocks(abort.tid);
}

void WalterServer::HandleCommitDecision(const Message& msg) {
  CommitDecision decision = CommitDecision::Deserialize(msg.payload);
  SiteId origin = decision.version.site;
  if (origin >= options_.num_sites || origin == options_.site || !site_active_[origin]) {
    return;
  }
  ++stats_.decisions_received;
  if (!locks_.Holds(decision.tid)) {
    return;  // already released: propagated here first, aborted, or swept
  }
  WTRACE(sim_->Now(), TraceKind::kDecisionRecv, decision.tid, options_.site,
         decision.version.seqno, origin);
  if (committed_vts_.at(origin) < decision.version.seqno) {
    // The decided record has not committed here yet: watermark every object
    // the lock was protecting so the read path takes over the PSI guarantee.
    stats_.watermarks_set += locks_.WatermarkLocked(decision.tid, decision.version, sim_->Now());
    WTRACE(sim_->Now(), TraceKind::kWatermarkSet, decision.tid, options_.site,
           decision.version.seqno, origin);
  }
  ++stats_.early_releases;
  ReleaseLocks(decision.tid);
}

void WalterServer::LockAll(TxId tid, const std::vector<ObjectId>& oids, SiteId coordinator,
                           const std::vector<ObjectId>& read_oids) {
  if (locks_.Holds(tid)) {
    return;
  }
  WTRACE(sim_->Now(), TraceKind::kLockAcquire, tid, options_.site, oids.size(), coordinator);
  locks_.Lock(tid, oids, coordinator, read_oids, sim_->Now());
}

void WalterServer::ReleaseLocks(TxId tid) {
  std::optional<size_t> freed = locks_.Release(tid);
  if (!freed) {
    return;
  }
  WTRACE(sim_->Now(), TraceKind::kLockRelease, tid, options_.site, *freed);
  if (locks_.has_wakes() && !wake_scheduled_) {
    // Deferred wake: resuming a waiter can re-enter the commit machinery, and
    // ReleaseLocks is called from inside its loops (AdvanceLocalCommits,
    // TryCommitRemotes).
    wake_scheduled_ = true;
    sim_->After(0, Guard([this]() { WakeLockWaiters(); }));
  }
}

void WalterServer::WaitForLocks(TxId tid, uint64_t priority, std::vector<ObjectId> oids,
                                SimTime deadline, TxId blocker, uint32_t peer,
                                std::function<void()> timed_out,
                                std::function<void(SimTime)> retry) {
  if (deadline == 0) {
    deadline = sim_->Now() + options_.lock_wait_timeout;
  }
  ++stats_.lock_waits;
  WTRACE(sim_->Now(), TraceKind::kLockWait, tid, options_.site, blocker, peer);
  if (locks_.waiter(tid) != nullptr) {
    // Defensive: never stack two waiters under one tid (the old one's timer
    // would resume the new entry early). Callers guard against this; if it
    // happens anyway, the superseded waiter resolves as timed out.
    ResumeLockWaiter(tid, true);
  }
  LockTable::Waiter& w = locks_.Park(
      tid, priority, std::move(oids),
      [this, deadline, timed_out = std::move(timed_out), retry = std::move(retry)](bool expired) {
        if (expired) {
          ++stats_.lock_wait_timeouts;
          timed_out();
          return;
        }
        retry(deadline);
      });
  SimDuration delay = deadline > sim_->Now() ? deadline - sim_->Now() : 0;
  w.timer = sim_->After(delay, Guard([this, tid]() {
                          LockTable::Waiter* waiter = locks_.waiter(tid);
                          if (waiter != nullptr) {
                            waiter->timer = 0;
                            ResumeLockWaiter(tid, true);
                          }
                        }));
}

void WalterServer::ResumeLockWaiter(TxId tid, bool timed_out) {
  std::optional<LockTable::Waiter> w = locks_.Unpark(tid);
  if (!w) {
    return;
  }
  if (w->timer != 0) {
    sim_->Cancel(w->timer);
  }
  w->resume(timed_out);
}

void WalterServer::WakeLockWaiters() {
  wake_scheduled_ = false;
  for (TxId tid : locks_.TakeWakes()) {
    ResumeLockWaiter(tid, false);
  }
}

// ---------------------------------------------------------------------------
// Asynchronous propagation (Figure 13)
// ---------------------------------------------------------------------------

void WalterServer::MaybeSendAllBatches() {
  for (SiteId d = 0; d < options_.num_sites; ++d) {
    if (d != options_.site) {
      MaybeSendBatch(d);
    }
  }
}

void WalterServer::MaybeSendBatch(SiteId dest) {
  if (crashed_ || dest == options_.site) {
    return;
  }
  DestState& ds = dests_[dest];
  if (ds.in_flight || ds.batch_timer != 0) {
    return;
  }
  uint64_t from = ds.acked_through + 1;
  uint64_t to = committed_vts_.at(options_.site);
  // A seqno below the retained-commit floor whose WAL record was also
  // truncated is gone on purpose: retention-aware truncation requires it
  // durably applied at every site, so the destination provably has it even
  // across its own crashes. A replacement server (fresh acked_through) skips
  // that prefix instead of failing to re-serve it.
  uint64_t retained_floor =
      local_commits_.empty() ? to + 1 : local_commits_.begin()->first;
  if (from < retained_floor) {
    uint64_t first_avail = std::min(
        retained_floor, store_.wal().OldestSeqno(options_.site).value_or(retained_floor));
    if (first_avail > from) {
      ds.acked_through = first_avail - 1;
      from = first_avail;
    }
  }
  if (from > to) {
    return;
  }
  SimTime earliest = ds.last_batch_sent + options_.min_batch_interval;
  if (sim_->Now() < earliest) {
    ds.batch_timer = sim_->After(earliest - sim_->Now(), Guard([this, dest]() {
                                   dests_[dest].batch_timer = 0;
                                   MaybeSendBatch(dest);
                                 }));
    return;
  }

  to = std::min(to, from + options_.max_batch_records - 1);
  // Serialize the batch once per (from, to) range and share the buffer: other
  // destinations at the same ack state and resend retransmissions reuse it
  // instead of re-collecting and re-serializing the records. A committed
  // seqno's record is immutable, so the cache only needs invalidation when
  // seqnos are reused (TruncateOwnLog).
  if (batch_cache_.payload.empty() || batch_cache_.from != from || batch_cache_.to != to) {
    PropagateBatch batch;
    batch.origin = options_.site;
    // Seqnos below the retention floor were globally visible once and their
    // records released; a resynced peer that lost them to a crash is served from
    // the WAL (requires the prefix not to have been checkpointed away).
    uint64_t floor = local_commits_.empty() ? to + 1 : local_commits_.begin()->first;
    std::vector<TxRecord> released;
    if (from < floor) {
      released = CollectRecords(options_.site, from, std::min(to, floor - 1));
    }
    size_t ri = 0;
    for (uint64_t s = from; s <= to; ++s) {
      auto it = local_commits_.find(s);
      if (it != local_commits_.end()) {
        batch.records.push_back(it->second.record);
        continue;
      }
      WCHECK(ri < released.size() && released[ri].version.seqno == s,
             "missing commit record seqno=" << s << " (released and checkpointed?)");
      batch.records.push_back(std::move(released[ri++]));
    }
    batch_cache_ = {from, to, Payload(batch.Serialize())};
  }
  ++stats_.batches_sent;
  WTRACE(sim_->Now(), TraceKind::kPropagateSend, 0, options_.site, to, dest);
  endpoint_.Send(Address{dest, kWalterPort}, kPropagate, batch_cache_.payload);
  ds.in_flight = true;
  ds.sent_through = to;
  ds.last_batch_sent = sim_->Now();
  // Resend window: exponential backoff per consecutive unacked resend, with
  // jitter, so a partitioned/crashed peer is not hammered at a fixed period.
  SimDuration window = options_.resend_timeout;
  for (uint32_t i = 0; i < ds.resend_attempts && window < options_.resend_backoff_cap; ++i) {
    window *= 2;
  }
  window = std::min(window, options_.resend_backoff_cap);
  ds.resend_timer = sim_->After(Jittered(window), Guard([this, dest]() {
                                  DestState& d = dests_[dest];
                                  d.resend_timer = 0;
                                  d.in_flight = false;
                                  ++d.resend_attempts;
                                  ++stats_.batch_resends;
                                  MaybeSendBatch(dest);  // resend from the last cumulative ack
                                }));
}

void WalterServer::HandlePropagate(const Message& msg) {
  PropagateBatch batch = PropagateBatch::Deserialize(msg.payload);
  SiteId origin = batch.origin;
  if (origin >= options_.num_sites || origin == options_.site) {
    return;
  }
  if (!site_active_[origin]) {
    // A removed site that has not yet learned its removal may resend its
    // non-surviving (discarded) transactions; drop them unacknowledged. It
    // retransmits after reintegration, when its truncated log is consistent.
    return;
  }
  SimDuration cost = Jittered(options_.perf.remote_apply *
                              static_cast<SimDuration>(batch.records.size()));
  cpu_.Execute(cost, [this, batch = std::move(batch), origin]() {
    for (auto& rec : batch.records) {
      if (rec.version.seqno > got_vts_.at(origin)) {
        pending_in_[origin].emplace(rec.version.seqno, std::move(rec));
      }
    }
    VectorTimestamp got_before = got_vts_;
    DrainAllPending();
    WTRACE(sim_->Now(), TraceKind::kPropagateRecv, 0, options_.site, got_vts_.at(origin),
           origin);
    SendPropagateAck(origin);
    // The drain may also have applied other origins' records that were parked
    // behind a causal dependency this batch satisfied. Their senders wait on
    // a one-batch window for exactly this ack; without it they would stall
    // until the resend timeout.
    for (SiteId j = 0; j < options_.num_sites; ++j) {
      if (j != origin && j != options_.site && site_active_[j] &&
          got_vts_.at(j) > got_before.at(j)) {
        SendPropagateAck(j);
      }
    }
  });
}

void WalterServer::SendPropagateAck(SiteId origin) {
  PropagateAck ack;
  ack.from = options_.site;
  ack.origin = origin;
  ack.received_through = got_vts_.at(origin);
  endpoint_.Send(Address{origin, kWalterPort}, kPropagateAck, ack.Serialize());
}

void WalterServer::ApplyRemoteReady(SiteId origin) {
  if (crashed_) {
    return;
  }
  auto& pending = pending_in_[origin];
  while (!pending.empty()) {
    auto it = pending.begin();
    uint64_t next = got_vts_.at(origin) + 1;
    if (it->first < next) {
      pending.erase(it);  // duplicate
      continue;
    }
    if (it->first != next || !got_vts_.Covers(it->second.start_vts)) {
      break;  // gap or unmet causal dependency (Figure 13's receive guard)
    }
    TxRecord rec = std::move(it->second);
    pending.erase(it);

    // Store only the updates replicated at this site (Section 5.6's
    // optimization is receiver-side filtering here).
    TxRecord filtered = rec;
    std::erase_if(filtered.updates, [this](const ObjectUpdate& u) {
      return !directory_->ReplicatedAt(u.oid, options_.site);
    });
    if (!AppendRecord(filtered)) {
      return;  // killed at this append boundary; the rest of the batch is lost
    }
    FlushWal([this, origin, seqno = rec.version.seqno]() {
      if (seqno > durable_applied_.at(origin)) {
        durable_applied_.set(origin, seqno);
      }
    });
    got_vts_.Advance(origin);
    ++stats_.remote_txns_applied;
    uncommitted_remote_[origin].emplace(rec.version.seqno, std::move(rec));
  }
}

void WalterServer::DrainAllPending() {
  // Applying one origin's transactions can satisfy another's causal guard.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (SiteId j = 0; j < options_.num_sites; ++j) {
      if (j == options_.site) {
        continue;
      }
      uint64_t before = got_vts_.at(j);
      ApplyRemoteReady(j);
      if (got_vts_.at(j) != before) {
        progressed = true;
      }
    }
  }
  TryCommitRemotes();
}

void WalterServer::TryCommitRemotes() {
  bool progressed = true;
  std::vector<bool> advanced(options_.num_sites, false);
  while (progressed) {
    progressed = false;
    for (SiteId j = 0; j < options_.num_sites; ++j) {
      if (j == options_.site) {
        continue;
      }
      auto& uncommitted = uncommitted_remote_[j];
      // Co-sited fast visibility: for a shard in the same
      // geo site the durability gate is unnecessary — the origin flushed the
      // record before sending it, and co-located shards share fate (§5.7), so
      // "durable at the origin" is as strong as our own flush. Skipping the
      // round-trip lets watermarked versions commit at LAN latency.
      bool co_sited = !options_.geo_site_of.empty() &&
                      options_.geo_site_of[j] == options_.geo_site_of[options_.site];
      while (!uncommitted.empty()) {
        auto it = uncommitted.begin();
        uint64_t next = committed_vts_.at(j) + 1;
        if (it->first != next || (!co_sited && next > durable_known_[j]) ||
            !committed_vts_.Covers(it->second.start_vts)) {
          break;  // Figure 13's remote-commit guard
        }
        committed_vts_.Advance(j);
        ReleaseLocks(it->second.tid);
        WTRACE(sim_->Now(), TraceKind::kRemoteCommit, it->second.tid, options_.site, it->first,
               j);
        if (observer_) {
          observer_(options_.site, it->second);
        }
        uncommitted.erase(it);
        advanced[j] = true;
        progressed = true;
      }
    }
  }
  for (SiteId j = 0; j < options_.num_sites; ++j) {
    if (j != options_.site && advanced[j]) {
      if (locks_.has_watermarks()) {
        // Versions at or below the new committed frontier are in the local
        // store now; their watermarks have done their job.
        size_t cleared = locks_.ClearWatermarks(j, committed_vts_.at(j));
        if (cleared > 0) {
          stats_.watermarks_cleared += cleared;
          WTRACE(sim_->Now(), TraceKind::kWatermarkClear, 0, options_.site, cleared, j);
        }
      }
      VisibleAck ack;
      ack.from = options_.site;
      ack.origin = j;
      ack.committed_through = committed_vts_.at(j);
      endpoint_.Send(Address{j, kWalterPort}, kVisibleAck, ack.Serialize());
    }
  }
}

void WalterServer::HandlePropagateAck(const Message& msg) {
  PropagateAck ack = PropagateAck::Deserialize(msg.payload);
  if (ack.origin != options_.site || ack.from >= options_.num_sites) {
    return;
  }
  DestState& ds = dests_[ack.from];
  uint64_t before_ack = ds.acked_through;
  ds.acked_through = std::max(ds.acked_through, ack.received_through);
  if (ds.acked_through > before_ack) {
    ds.resend_attempts = 0;  // the peer is making progress: reset the backoff
  }
  // Flow control is a one-batch window: only an ack covering everything sent
  // opens it (a stale gossip ack must not spawn a parallel batch stream).
  if (ds.in_flight && ds.acked_through >= ds.sent_through) {
    if (ds.resend_timer != 0) {
      sim_->Cancel(ds.resend_timer);
      ds.resend_timer = 0;
    }
    ds.in_flight = false;
  }
  UpdateDsDurable();
  MaybeSendBatch(ack.from);
}

void WalterServer::SendResync(SiteId peer, bool is_reply) {
  ResyncState m;
  m.from = options_.site;
  m.got_through = got_vts_.at(peer);
  m.committed_through = committed_vts_.at(peer);
  m.durable_through = ds_durable_through_;
  m.is_reply = is_reply;
  endpoint_.Send(Address{peer, kWalterPort}, kResync, m.Serialize());
}

void WalterServer::HandleResync(const Message& msg) {
  ResyncState m = ResyncState::Deserialize(msg.payload);
  if (m.from >= options_.num_sites || m.from == options_.site) {
    return;
  }
  // Unlike cumulative acks (which only ever advance), a resync assigns the
  // peer's watermarks directly: after a crash its GotVTS may have rolled BACK,
  // and max()-merging would leave us believing it holds records it lost,
  // stranding its replication stream forever. Per-link FIFO ordering makes the
  // direct assignment safe (no older ack can overtake the resync).
  // The sender's disaster-safe watermark doubles as durability evidence for
  // its records: without it, a server restored at quiescence could re-apply
  // re-sent remote records but never commit them (kDsDurable only fires on
  // advance, and nothing advances after the cluster settled).
  durable_known_[m.from] = std::max(durable_known_[m.from], m.durable_through);
  DestState& ds = dests_[m.from];
  ds.acked_through = m.got_through;
  ds.sent_through = m.got_through;
  ds.visible_through = m.committed_through;
  ds.resend_attempts = 0;
  if (ds.resend_timer != 0) {
    sim_->Cancel(ds.resend_timer);
    ds.resend_timer = 0;
  }
  if (ds.batch_timer != 0) {
    sim_->Cancel(ds.batch_timer);
    ds.batch_timer = 0;
  }
  ds.in_flight = false;
  if (m.got_through > curr_seqno_) {
    // The peer holds own records the durable log no longer does. A record is
    // propagated only after it committed — hence after its flush — so a clean
    // restore can never trail a peer; only corruption past the fsync contract
    // (bit rot rolling the durable log back) gets here. Reserve the lost
    // seqnos immediately so new commits never reuse them, then fetch the
    // records back from the peer and re-install them in order.
    WTRACE(sim_->Now(), TraceKind::kRecoveryCorrupt, 0, options_.site,
           static_cast<uint64_t>(CorruptKind::kOwnRecordsLost), m.from);
    WLOG(kWarn, "resync@" << options_.site << ": peer " << m.from << " holds our records through "
                          << m.got_through << " but we restored only " << curr_seqno_
                          << "; backfilling");
    curr_seqno_ = m.got_through;
    backfill_target_ = std::max(backfill_target_, m.got_through);
    RequestOwnRecordBackfill(m.from, m.got_through);
  }
  if (!m.is_reply) {
    SendResync(m.from, true);
  }
  TryCommitRemotes();  // the refreshed durability evidence may unblock commits
  UpdateDsDurable();
  UpdateGloballyVisible();
  MaybeSendBatch(m.from);
}

void WalterServer::HandleFetchRecords(const Message& msg, RpcEndpoint::ReplyFn reply) {
  FetchRecordsRequest req = FetchRecordsRequest::Deserialize(msg.payload);
  FetchRecordsResponse resp;
  if (req.origin < options_.num_sites) {
    // Served from the WAL: this site's copies of the origin's records. The
    // copies were receiver-side filtered to this site's replica set, so a
    // backfilled record recovers exactly the updates some site still holds.
    resp.records = CollectRecords(req.origin, req.from_seqno, req.to_seqno);
  }
  Message m;
  m.payload = resp.Serialize();
  reply(std::move(m));
}

void WalterServer::RequestOwnRecordBackfill(SiteId peer, uint64_t through) {
  uint64_t have = committed_vts_.at(options_.site);
  if (have >= through || crashed_) {
    return;
  }
  FetchRecordsRequest req;
  req.from = options_.site;
  req.origin = options_.site;
  req.from_seqno = have + 1;
  req.to_seqno = through;
  endpoint_.Call(
      Address{peer, kWalterPort}, kFetchRecords, req.Serialize(),
      [this, peer, through](Status status, const Message& m) {
        if (status.ok()) {
          InstallOwnRecords(FetchRecordsResponse::Deserialize(m.payload).records, peer);
        }
        if (committed_vts_.at(options_.site) < through && !crashed_) {
          // Transport failure, or the peer's WAL no longer held the full range:
          // retry on the resend cadence until the gap closes (another peer's
          // resync may also restart the chase with fresher evidence).
          sim_->After(options_.resend_timeout, Guard([this, peer, through]() {
                        RequestOwnRecordBackfill(peer, through);
                      }));
        }
      },
      options_.resend_timeout);
}

void WalterServer::InstallOwnRecords(std::vector<TxRecord> records, SiteId peer) {
  uint64_t installed_through = 0;
  for (auto& rec : records) {
    uint64_t next = committed_vts_.at(options_.site) + 1;
    if (rec.origin != options_.site || rec.version.seqno != next) {
      continue;  // duplicate or out of order; only the sequential prefix installs
    }
    if (!AppendRecord(rec)) {
      return;
    }
    committed_vts_.Advance(options_.site);
    got_vts_.set(options_.site, next);
    installed_through = next;
    ++stats_.recovery_backfilled;
    WTRACE(sim_->Now(), TraceKind::kRecoveryBackfill, rec.tid, options_.site, next, peer);

    // Retain like a restored tail record: already acknowledged pre-crash, so
    // it re-enters the replication pipeline without a client reply.
    LocalCommit lc;
    lc.record = std::move(rec);
    lc.flushed = true;
    lc.committed = true;
    committed_versions_[lc.record.tid] = lc.record.version;
    RecordOutcome(lc.record.tid);
    if (observer_) {
      observer_(options_.site, lc.record);
    }
    local_commits_.emplace(next, std::move(lc));
  }
  if (installed_through == 0) {
    return;
  }
  batch_cache_ = {};  // ranges crossing the healed gap must re-serialize
  FlushWal([this, installed_through]() {
    if (durable_applied_.at(options_.site) < installed_through) {
      durable_applied_.set(options_.site, installed_through);
    }
  });
  AdvanceLocalCommits();  // queued post-restore commits may now be contiguous
  TryCommitRemotes();
  UpdateDsDurable();
  MaybeSendAllBatches();
}

bool WalterServer::IsDsDurableQuorum(const TxRecord& record) const {
  size_t f = options_.f < 0 ? options_.num_sites - 1 : static_cast<size_t>(options_.f);
  uint64_t seqno = record.version.seqno;
  for (const auto& u : record.updates) {
    ContainerInfo info = directory_->Get(u.oid.container);
    // Replicas at §5.7-removed sites are not part of the configuration: they
    // neither count toward the quorum nor toward its size (with f = all, a
    // removed replica would otherwise block durability — and with it global
    // visibility — until reintegration).
    size_t replica_count = 0;
    size_t have = 0;
    bool preferred_has = false;
    for (SiteId s = 0; s < options_.num_sites; ++s) {
      bool in_config = (s == options_.site) || site_active_[s];
      if (!in_config || !info.ReplicatedAt(s)) {
        continue;
      }
      ++replica_count;
      bool received = (s == options_.site) || dests_[s].acked_through >= seqno;
      if (received) {
        ++have;
        if (s == info.preferred_site) {
          preferred_has = true;
        }
      }
    }
    size_t needed = std::min(f + 1, replica_count);
    if (!info.ReplicatedAt(info.preferred_site) ||
        (info.preferred_site != options_.site && !site_active_[info.preferred_site])) {
      preferred_has = true;  // no in-config preferred replica to wait for
    }
    if (have < needed || !preferred_has) {
      return false;
    }
  }
  return true;
}

void WalterServer::UpdateDsDurable() {
  uint64_t before = ds_durable_through_;
  while (true) {
    uint64_t next = ds_durable_through_ + 1;
    auto it = local_commits_.find(next);
    if (it == local_commits_.end() || !it->second.committed ||
        !IsDsDurableQuorum(it->second.record)) {
      break;
    }
    ds_durable_through_ = next;
    const LocalCommit& lc = it->second;
    WTRACE(sim_->Now(), TraceKind::kDsDurable, lc.record.tid, options_.site, next);
    if (lc.reply.want_durable) {
      NotifyClient(lc.reply.reply_site, lc.reply.reply_port, kDurableNotify, lc.record.tid);
    }
  }
  if (ds_durable_through_ != before) {
    DsDurableMessage m;
    m.origin = options_.site;
    m.durable_through = ds_durable_through_;
    Payload announce = m.Serialize();  // one buffer shared by every destination
    for (SiteId s = 0; s < options_.num_sites; ++s) {
      if (s != options_.site) {
        endpoint_.Send(Address{s, kWalterPort}, kDsDurable, announce);
      }
    }
    UpdateGloballyVisible();
  }
}

void WalterServer::HandleDsDurable(const Message& msg) {
  DsDurableMessage m = DsDurableMessage::Deserialize(msg.payload);
  if (m.origin >= options_.num_sites || m.origin == options_.site || !site_active_[m.origin]) {
    return;
  }
  durable_known_[m.origin] = std::max(durable_known_[m.origin], m.durable_through);
  TryCommitRemotes();
}

void WalterServer::HandleVisibleAck(const Message& msg) {
  VisibleAck ack = VisibleAck::Deserialize(msg.payload);
  if (ack.origin != options_.site || ack.from >= options_.num_sites) {
    return;
  }
  DestState& ds = dests_[ack.from];
  ds.visible_through = std::max(ds.visible_through, ack.committed_through);
  UpdateGloballyVisible();
}

void WalterServer::UpdateGloballyVisible() {
  uint64_t v = std::min(committed_vts_.at(options_.site), ds_durable_through_);
  for (SiteId s = 0; s < options_.num_sites; ++s) {
    if (s != options_.site && site_active_[s]) {
      // A §5.7-removed site can never send a visibility ack; counting it would
      // freeze the watermark and retain local_commits_ forever. "Globally
      // visible" means visible at every site of the current configuration. A
      // reintegrated site that misses released records is gap-filled from the
      // WAL, whose retention floors still count removed sites.
      v = std::min(v, dests_[s].visible_through);
    }
  }
  while (visible_through_ < v) {
    ++visible_through_;
    auto it = local_commits_.find(visible_through_);
    if (it != local_commits_.end()) {
      const LocalCommit& lc = it->second;
      WTRACE(sim_->Now(), TraceKind::kVisible, lc.record.tid, options_.site, visible_through_);
      if (lc.reply.want_visible) {
        NotifyClient(lc.reply.reply_site, lc.reply.reply_port, kVisibleNotify, lc.record.tid);
      }
      // Globally visible implies received everywhere: safe to stop retaining.
      local_commits_.erase(it);
    }
  }
}

void WalterServer::NotifyClient(SiteId site, uint32_t port, uint32_t type, TxId tid) {
  if (port == 0) {
    return;
  }
  TxNotify n{tid};
  endpoint_.Send(Address{site == kNoSite ? options_.site : site, port}, type, n.Serialize());
}

void WalterServer::StartGossip() {
  sim_->After(options_.gossip_interval, Guard([this]() {
    if (!crashed_) {
      SweepStaleLocks();
      DsDurableMessage m;
      m.origin = options_.site;
      m.durable_through = ds_durable_through_;
      Payload announce = m.Serialize();  // shared across destinations
      for (SiteId s = 0; s < options_.num_sites; ++s) {
        if (s == options_.site) {
          continue;
        }
        endpoint_.Send(Address{s, kWalterPort}, kDsDurable, announce);
        // Re-acks what we received, healing a lost PROPAGATE-ACK.
        SendPropagateAck(s);
        VisibleAck vis;
        vis.from = options_.site;
        vis.origin = s;
        vis.committed_through = committed_vts_.at(s);
        endpoint_.Send(Address{s, kWalterPort}, kVisibleAck, vis.Serialize());
      }
    }
    StartGossip();
  }));
}

void WalterServer::SweepIdleTxs() {
  sim_->After(options_.idle_tx_timeout / 2, Guard([this]() {
    if (!crashed_) {
      for (auto it = active_.begin(); it != active_.end();) {
        // A buffered transaction whose client went silent: drop it. (A commit
        // takes its transaction out of active_ before it can wait anywhere.)
        if (sim_->Now() - it->second.last_touch > options_.idle_tx_timeout) {
          aborted_tids_.insert(it->first);
          RecordOutcome(it->first);
          it = active_.erase(it);
        } else {
          ++it;
        }
      }
    }
    SweepIdleTxs();
  }));
}

// ---------------------------------------------------------------------------
// Remote reads (Section 4.3)
// ---------------------------------------------------------------------------

void WalterServer::HandleRemoteRead(const Message& msg, RpcEndpoint::ReplyFn reply) {
  RemoteReadRequest req = RemoteReadRequest::Deserialize(msg.payload);
  cpu_.Execute(Jittered(options_.perf.read_op), [this, req = std::move(req),
                                                 reply = std::move(reply)]() {
    AnswerRemoteRead(req, reply);
  });
}

void WalterServer::AnswerRemoteRead(RemoteReadRequest req, RpcEndpoint::ReplyFn reply,
                                    uint32_t park_attempt) {
  {
    RemoteReadResponse resp;
    bool wm_blocked = locks_.WatermarkBlocksRead(req.oid, req.vts);
    if (wm_blocked && req.mode == ConsistencyMode::kNmsi) {
      // NMSI: answer from the latest applied version instead of waiting for
      // the decided one — the permitted non-monotonic read, remote edition.
      ++stats_.nmsi_reads_unparked;
      WTRACE(sim_->Now(), TraceKind::kNmsiRead, 0, options_.site, park_attempt, req.caller);
      wm_blocked = false;
    }
    if (wm_blocked) {
      // The caller's snapshot covers a decided-but-uncommitted version of this
      // object: park and retry, same as a local read behind a watermark. On a
      // starved-out watermark the reply is withheld (found=false for csets),
      // so the caller's RPC resolves to kUnavailable like the gc-stale path.
      if (auto delay = ReadParkDelay(park_attempt)) {
        ++stats_.watermark_read_waits;
        WTRACE(sim_->Now(), TraceKind::kWaitWatermark, 0, options_.site, 0, req.caller);
        sim_->After(*delay, Guard([this, req, reply, park_attempt]() {
          AnswerRemoteRead(req, reply, park_attempt + 1);
        }));
        return;
      }
      // Counted apart from client-read starvation: a starved remote read has
      // no client RPC of its own (the caller times out into kUnavailable), so
      // folding it into reads_starved would make that metric disagree with
      // the per-client kReadStarved verdicts under surge.
      ++stats_.remote_reads_starved;
      WTRACE(sim_->Now(), TraceKind::kReadStarved, 0, options_.site, park_attempt, req.caller);
      if (req.is_cset) {
        Message m;
        m.payload = resp.Serialize();
        reply(std::move(m));
      }
      return;
    }
    if (!req.vts.Covers(store_.gc_frontier())) {
      // The caller's snapshot is below our frontier: a client-carried
      // snapshot that outlived its pin, folded past while this request was
      // in flight or by a fold the caller has not applied yet. Answering from
      // a folded base could double-count ops the caller also holds or leak
      // too-new regular values. Refuse: found=false maps to kUnavailable at a
      // cset caller; for regular reads the reply is withheld so the caller's
      // RPC times out into kUnavailable instead of reading nil.
      ++stats_.gc_stale_reads;
      WTRACE(sim_->Now(), TraceKind::kGcStaleRead, 0, options_.site, 0, req.caller);
      if (req.is_cset) {
        Message m;
        m.payload = resp.Serialize();
        reply(std::move(m));
      }
      return;
    }
    if (req.is_cset) {
      CountingSet set =
          store_.ReadCsetExcluding(req.oid, req.vts, req.caller, req.local_min_seqno);
      ByteWriter w;
      set.Serialize(&w);
      resp.cset_bytes = w.Take();
      resp.found = true;
    } else if (auto v = store_.ReadRegularVersioned(req.oid, req.vts)) {
      resp.found = true;
      resp.data = std::move(v->first);
      resp.version = v->second;
    }
    Message m;
    m.payload = resp.Serialize();
    reply(std::move(m));
  }
}

// ---------------------------------------------------------------------------
// Failure handling and maintenance (Sections 5.7 and 6)
// ---------------------------------------------------------------------------

void WalterServer::CheckpointRetaining(const VectorTimestamp& wal_floors) {
  ByteWriter body;
  body.PutString(store_.SerializeCheckpoint());
  body.PutVts(got_vts_);
  // Local transactions still replicating (not yet globally visible): the
  // replacement server must be able to resume their propagation (Section 6).
  body.PutU32(static_cast<uint32_t>(local_commits_.size()));
  for (const auto& [seqno, lc] : local_commits_) {
    lc.record.Serialize(&body);
  }
  // CRC wrapper: Restore rejects a rotted image instead of installing it.
  ByteWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU32(Crc32(body.data()));
  checkpoint_image_ = w.Take();
  checkpoint_image_ += body.data();
  checkpoint_wal_base_ = store_.wal().base() + store_.wal().size();
  if (storage_hook_) {
    storage_hook_(StorageEvent::kCheckpoint, checkpoint_wal_base_);
    if (crashed_) {
      return;  // killed between the checkpoint write and the truncation
    }
  }
  // Truncate only records every in-config site (and every removed site, via
  // its last-known watermark — reintegration gap-fills from here) has durably
  // applied; the rest stays for resyncs and CollectRecords.
  size_t safe = store_.wal().SafePrefix(wal_floors, checkpoint_wal_base_);
  size_t released = safe > store_.wal().base() ? safe - store_.wal().base() : 0;
  store_.wal().TruncatePrefix(safe);
  stats_.wal_truncated_bytes += released;
  WTRACE(sim_->Now(), TraceKind::kGcCheckpoint, 0, options_.site, released);
  if (storage_hook_) {
    storage_hook_(StorageEvent::kWalTruncate, safe);
  }
}

void WalterServer::Crash() {
  crashed_ = true;
  endpoint_.SetDown(true);
}

WalterServer::DurableImage WalterServer::TakeDurableImage() const {
  DurableImage image;
  image.checkpoint = checkpoint_image_;
  const Wal& wal = store_.wal();
  image.wal_base = wal.base();
  size_t durable_len = durable_wal_bytes_ > wal.base() ? durable_wal_bytes_ - wal.base() : 0;
  durable_len = std::min(durable_len, wal.bytes().size());
  image.wal_bytes = wal.bytes().substr(0, durable_len);
  return image;
}

WalterServer::DurableImage WalterServer::TakeFaultyImage() {
  DurableImage image = TakeDurableImage();
  DiskFaults f = disk_.TakeFaults();
  if (f.torn_tail) {
    // Expose a prefix of the in-flight (unflushed) bytes, possibly ending
    // mid-frame. Flush-acknowledged bytes are never torn, so the durable
    // prefix is untouched and no acked commit can be lost this way.
    const std::string& all = store_.wal().bytes();
    size_t durable_len = image.wal_bytes.size();
    size_t tail_len = all.size() > durable_len ? all.size() - durable_len : 0;
    size_t add = std::min(f.torn_tail_bytes, tail_len);
    image.wal_bytes.append(all, durable_len, add);
  }
  if (f.bit_rot && !image.wal_bytes.empty()) {
    uint8_t mask = f.bit_rot_mask != 0 ? f.bit_rot_mask : uint8_t{1};
    size_t pos = f.bit_rot_offset % image.wal_bytes.size();
    image.wal_bytes[pos] = static_cast<char>(
        static_cast<uint8_t>(image.wal_bytes[pos]) ^ mask);
  }
  if (f.checkpoint_rot && !image.checkpoint.empty()) {
    size_t pos = image.checkpoint.size() / 2;
    image.checkpoint[pos] = static_cast<char>(static_cast<uint8_t>(image.checkpoint[pos]) ^ 1);
  }
  return image;
}

void WalterServer::Restore(const DurableImage& image) {
  ++stats_.recoveries;
  WTRACE(sim_->Now(), TraceKind::kRecoveryStart, 0, options_.site, image.wal_bytes.size());

  // Validate the checkpoint's CRC wrapper: a rotted image is rejected and
  // recovery degrades to replaying the WAL alone (complete iff the log was
  // never truncated past the lost checkpoint's coverage).
  std::string_view checkpoint_body;
  if (!image.checkpoint.empty()) {
    ByteReader hr(image.checkpoint);
    uint32_t magic = hr.GetU32();
    uint32_t crc = hr.GetU32();
    std::string_view body = image.checkpoint.size() > 8
                                ? std::string_view(image.checkpoint).substr(8)
                                : std::string_view();
    if (hr.failed() || magic != kCheckpointMagic || Crc32(body) != crc) {
      ++stats_.recovery_bad_checkpoints;
      WTRACE(sim_->Now(), TraceKind::kRecoveryCorrupt, 0, options_.site,
             static_cast<uint64_t>(CorruptKind::kCheckpointBad));
      WLOG(kWarn, "restore@" << options_.site
                             << ": checkpoint image failed CRC, replaying WAL only");
    } else {
      checkpoint_body = body;
    }
  }

  // Parse the checkpoint wrapper.
  std::string store_checkpoint;
  VectorTimestamp checkpoint_got(options_.num_sites);
  std::vector<TxRecord> pending_local;
  if (!checkpoint_body.empty()) {
    ByteReader r(checkpoint_body);
    store_checkpoint = r.GetString();
    checkpoint_got = r.GetVts();
    uint32_t n = r.GetU32();
    for (uint32_t i = 0; i < n && !r.failed(); ++i) {
      pending_local.push_back(TxRecord::Deserialize(&r));
    }
  }

  store_.RestoreCheckpoint(store_checkpoint);
  // Seed the store's WAL with the durable image so CollectRecords (resyncs and
  // §5.7 gap-filling) and retention-aware truncation keep working after the
  // replacement: without this the replacement's log starts empty and released
  // records become unrecoverable. Seeding keeps the intact frame prefix only —
  // a torn or rotted tail ends the restored log at the last good frame.
  store_.wal().SeedForRecovery(image.wal_bytes, image.wal_base);
  if (store_.wal().size() < image.wal_bytes.size()) {
    ++stats_.recovery_torn_tails;
    WTRACE(sim_->Now(), TraceKind::kRecoveryCorrupt, 0, options_.site,
           static_cast<uint64_t>(CorruptKind::kTornWalTail),
           static_cast<uint32_t>(store_.wal().size()));
  }
  // A rejected checkpoint is not re-adopted: the next CheckpointRetaining()
  // overwrites it.
  checkpoint_image_ = checkpoint_body.empty() ? std::string() : image.checkpoint;
  checkpoint_wal_base_ = store_.checkpoint_frontier();
  got_vts_ = checkpoint_got;
  if (got_vts_.num_sites() < options_.num_sites) {
    got_vts_ = VectorTimestamp(options_.num_sites);
  }

  // Replay the WAL tail past the checkpoint frontier.
  size_t frontier = store_.checkpoint_frontier();
  size_t skip = frontier > image.wal_base ? frontier - image.wal_base : 0;
  std::vector<TxRecord> tail;
  if (skip < image.wal_bytes.size()) {
    Wal::ReplayResult replay = Wal::Replay(std::string_view(image.wal_bytes).substr(skip));
    tail = std::move(replay.records);
  }
  // Figure 13's receive guard, applied to recovery: a record only installs if
  // it extends its origin's sequence contiguously AND its causal snapshot is
  // covered. A rejected checkpoint leaves the log tail starting past the lost
  // coverage; advancing the watermarks over that gap would hide the hole from
  // resync evidence forever. Records past a gap (or depending on one) are
  // dropped here and healed like any other loss — own records through peer
  // backfill, remote ones through rewound propagation.
  std::vector<TxRecord> kept;
  kept.reserve(tail.size());
  size_t dropped = 0;
  for (auto& rec : tail) {
    // Own records skip the Covers check: a sharded client's start_vts is a
    // cluster-wide snapshot that was never required to be covered by this
    // server's own watermark at commit time. Remote records passed the
    // receive guard at this exact log position, so the check holds for them
    // whenever the replayed prefix is intact.
    bool causal_ok = rec.origin == options_.site || got_vts_.Covers(rec.start_vts);
    if (rec.version.seqno != got_vts_.at(rec.origin) + 1 || !causal_ok) {
      ++dropped;
      continue;
    }
    store_.ApplyToHistories(rec);
    got_vts_.set(rec.origin, rec.version.seqno);
    kept.push_back(std::move(rec));
  }
  if (dropped > 0) {
    WTRACE(sim_->Now(), TraceKind::kRecoveryCorrupt, 0, options_.site,
           static_cast<uint64_t>(CorruptKind::kLogGap), static_cast<uint32_t>(dropped));
    WLOG(kWarn, "restore@" << options_.site << ": dropped " << dropped
                           << " log records past a recovery gap");
  }
  stats_.recovery_replayed += kept.size();
  WTRACE(sim_->Now(), TraceKind::kRecoveryReplay, 0, options_.site, kept.size());
  // Tail replay can resurrect history entries the GC frontier already folded
  // (records logged after the checkpoint but folded before the crash): fold
  // them again so restored state matches the invariant the frontier promises.
  if (store_.gc_frontier().num_sites() > 0) {
    store_.GarbageCollect(store_.gc_frontier());
  }

  // Everything durably logged is treated as committed here: own records were
  // acknowledged iff flushed; remote records commit at their origin exactly
  // once, so re-committing them locally is safe (Section 5.7).
  committed_vts_ = got_vts_;
  curr_seqno_ = got_vts_.at(options_.site);
  // Everything restored came from the durable WAL, by construction.
  durable_applied_ = got_vts_;

  // Rebuild retained local commits: checkpointed pending ones plus own tail
  // records; mark them flushed+committed so propagation can resume.
  local_commits_.clear();
  auto retain = [this](const TxRecord& rec) {
    LocalCommit lc;
    lc.record = rec;
    lc.flushed = true;
    lc.committed = true;
    local_commits_.emplace(rec.version.seqno, std::move(lc));
  };
  for (const auto& rec : pending_local) {
    retain(rec);
  }
  for (const auto& rec : kept) {
    if (rec.origin == options_.site) {
      retain(rec);
    }
  }
  committed_versions_.clear();
  aborted_tids_.clear();
  outcome_log_.clear();
  for (const auto& [seqno, lc] : local_commits_) {
    committed_versions_[lc.record.tid] = lc.record.version;
    RecordOutcome(lc.record.tid);  // restamped: the original settle time is gone
  }

  // Conservative watermarks: everything below the smallest retained commit was
  // globally visible (that is the only way records leave local_commits_).
  uint64_t floor =
      local_commits_.empty() ? curr_seqno_ : local_commits_.begin()->first - 1;
  ds_durable_through_ = floor;
  visible_through_ = floor;
  for (auto& ds : dests_) {
    ds = DestState{};
    ds.acked_through = floor;
    ds.visible_through = floor;
  }
  durable_wal_bytes_ = store_.wal().base() + store_.wal().size();
  backfill_target_ = curr_seqno_;

  // Volatile commit-protocol state does not survive a crash: the lock table
  // (locks, parked waiters, watermarks) starts fresh, and the propagation
  // backstop re-protects decided versions. Timers in flight find their waiter
  // gone and no-op.
  for (const auto& [tid, waiter] : locks_.waiters()) {
    if (waiter.timer != 0) {
      sim_->Cancel(waiter.timer);
    }
  }
  locks_ = LockTable();
  wake_scheduled_ = false;
  parked_commits_.clear();
  // Held clock votes died with the process: their reply closures point at RPC
  // call ids from before the crash. Coordinators time out and retry/abort.
  held_prepares_.clear();
  clock_timer_at_ = -1;
  ++clock_timer_gen_;  // any pre-crash release timer fires as a stale no-op

  crashed_ = false;
  endpoint_.SetDown(false);
  WTRACE(sim_->Now(), TraceKind::kRecoveryDone, 0, options_.site, curr_seqno_);
  // Our watermarks and every peer's idea of our GotVTS may now disagree in
  // either direction (we rolled back to the durable prefix). Exchange explicit
  // resyncs before resuming propagation; deferred one event so the cluster can
  // finish re-wiring the replacement server first.
  sim_->After(0, Guard([this]() {
    for (SiteId s = 0; s < options_.num_sites; ++s) {
      if (s != options_.site) {
        SendResync(s, false);
      }
    }
    MaybeSendAllBatches();
  }));
}

void WalterServer::TruncateOwnLog(uint64_t survive_through) {
  if (curr_seqno_ <= survive_through) {
    return;
  }
  store_.RemoveVersionsFrom(options_.site, survive_through);
  for (auto it = local_commits_.begin(); it != local_commits_.end();) {
    if (it->first > survive_through) {
      // The commit never took effect cluster-wide; a retransmitted commit must
      // not be told "committed". The tid becomes unknown (not aborted), so a
      // bare retried commit gets kUnavailable.
      committed_versions_.erase(it->second.record.tid);
      it = local_commits_.erase(it);
    } else {
      ++it;
    }
  }
  // Seqnos are reused from the surviving prefix: the survivors discarded our
  // suffix, so the numbers are free again (Section 5.7). A cached batch
  // payload may cover discarded seqnos about to be rewritten — drop it.
  batch_cache_ = {};
  curr_seqno_ = survive_through;
  if (committed_vts_.at(options_.site) > survive_through) {
    committed_vts_.set(options_.site, survive_through);
  }
  if (got_vts_.at(options_.site) > survive_through) {
    got_vts_.set(options_.site, survive_through);
  }
  ds_durable_through_ = std::min(ds_durable_through_, survive_through);
  visible_through_ = std::min(visible_through_, survive_through);
  if (durable_applied_.at(options_.site) > survive_through) {
    durable_applied_.set(options_.site, survive_through);
  }
  // Roll the outbound watermarks down too: peers may have acked the discarded
  // suffix, and those stale acks must not suppress sending the reused seqnos.
  for (auto& ds : dests_) {
    ds.acked_through = std::min(ds.acked_through, survive_through);
    ds.sent_through = std::min(ds.sent_through, survive_through);
    ds.visible_through = std::min(ds.visible_through, survive_through);
    ds.resend_attempts = 0;
  }
}

void WalterServer::DiscardNonSurviving(SiteId s, uint64_t survive_through) {
  if (s == options_.site || s >= options_.num_sites) {
    return;
  }
  store_.RemoveVersionsFrom(s, survive_through);
  // Watermarks for discarded versions point at commits that no longer exist;
  // parked readers must not wait for them forever.
  locks_.DropWatermarksFrom(s, survive_through);
  pending_in_[s].clear();
  auto& uncommitted = uncommitted_remote_[s];
  for (auto it = uncommitted.begin(); it != uncommitted.end();) {
    if (it->first > survive_through) {
      it = uncommitted.erase(it);
    } else {
      ++it;
    }
  }
  if (got_vts_.at(s) > survive_through) {
    got_vts_.set(s, survive_through);
  }
  if (committed_vts_.at(s) > survive_through) {
    committed_vts_.set(s, survive_through);
  }
  if (durable_applied_.at(s) > survive_through) {
    durable_applied_.set(s, survive_through);
  }
  durable_known_[s] = std::min(durable_known_[s], survive_through);
}

std::vector<TxRecord> WalterServer::CollectRecords(SiteId origin, uint64_t from,
                                                   uint64_t to) const {
  // Keyed by seqno with later WAL appends winning: after TruncateOwnLog a
  // seqno can be reused, and only the latest record for it is live.
  std::map<uint64_t, TxRecord> by_seqno;
  Wal::ReplayResult replay = store_.wal().ReplaySelf();
  for (auto& rec : replay.records) {
    if (rec.origin == origin && rec.version.seqno >= from && rec.version.seqno <= to) {
      by_seqno[rec.version.seqno] = std::move(rec);
    }
  }
  std::vector<TxRecord> out;
  out.reserve(by_seqno.size());
  for (auto& [seqno, rec] : by_seqno) {
    out.push_back(std::move(rec));
  }
  return out;
}

void WalterServer::InjectRemoteRecords(SiteId origin, std::vector<TxRecord> records) {
  if (origin == options_.site || origin >= options_.num_sites) {
    return;
  }
  for (auto& rec : records) {
    if (rec.version.seqno > got_vts_.at(origin)) {
      pending_in_[origin].emplace(rec.version.seqno, std::move(rec));
    }
  }
  DrainAllPending();
}

void WalterServer::SetDurableKnown(SiteId origin, uint64_t through) {
  if (origin >= options_.num_sites || origin == options_.site) {
    return;
  }
  durable_known_[origin] = std::max(durable_known_[origin], through);
  TryCommitRemotes();
}

void WalterServer::SetSiteActive(SiteId s, bool active) {
  if (s >= options_.num_sites || s == options_.site || site_active_[s] == active) {
    return;
  }
  site_active_[s] = active;
  // Membership changes re-derive the configuration-gated watermarks: a removed
  // site no longer gates disaster-safe durability or global visibility (it can
  // never ack), and a reintegrated site starts gating them again and must be
  // caught up by propagation.
  UpdateDsDurable();
  UpdateGloballyVisible();
  if (active && !crashed_) {
    MaybeSendBatch(s);
  }
}

void WalterServer::HandleTxStatus(const Message& msg, RpcEndpoint::ReplyFn reply) {
  TxStatusRequest req = TxStatusRequest::Deserialize(msg.payload);
  TxStatusResponse resp;
  if (slow_commits_.contains(req.tid)) {
    resp.outcome = TxStatusOutcome::kTxPending;  // 2PC still deciding
  } else if (committed_versions_.contains(req.tid)) {
    resp.outcome = TxStatusOutcome::kTxCommitted;
  } else {
    // Unknown: never committed here, or already globally visible (in which
    // case the asker released the lock when the transaction reached it).
    resp.outcome = TxStatusOutcome::kTxAborted;
  }
  Message m;
  m.payload = resp.Serialize();
  reply(std::move(m));
}

void WalterServer::SweepStaleLocks() {
  // A stale lock's coordinator may have crashed mid-2PC; a stale watermark's
  // origin may have lost the record (crash after the decision, before the
  // flush reached a survivable point), parking readers forever. Ask either for
  // the transaction's fate and drop what it reports aborted. Committed: the
  // record will propagate here; pending: 2PC still in progress (impossible
  // for a watermark, treated like committed); unreachable: keep (conservative).
  for (const LockTable::StaleQuery& q :
       locks_.TakeStale(sim_->Now(), 2 * options_.resend_timeout, options_.site)) {
    ++(q.watermark ? stats_.stale_watermark_queries : stats_.stale_lock_queries);
    TxStatusRequest req{q.tid};
    endpoint_.Call(
        Address{q.ask, kWalterPort}, kTxStatus, req.Serialize(),
        [this, q](Status status, const Message& m) {
          if (!locks_.EndQuery(q) || !status.ok() ||
              TxStatusResponse::Deserialize(m.payload).outcome != TxStatusOutcome::kTxAborted) {
            return;  // released meanwhile, or not known dead
          }
          if (q.watermark) {
            locks_.DropWatermarksOfTx(q.tid);
            WTRACE(sim_->Now(), TraceKind::kWatermarkClear, q.tid, options_.site, 0);
          } else {
            ReleaseLocks(q.tid);  // orphaned prepare: the transaction is dead
          }
        },
        options_.resend_timeout);
  }
}

VectorTimestamp WalterServer::StabilityFloor(bool include_pins) const {
  // min(committed, durably applied): committed alone could roll back across a
  // crash (the volatile suffix), durable alone may not be applied yet. The min
  // survives a crash-and-restore, so an announced floor never retreats.
  VectorTimestamp floor = committed_vts_;
  floor.MergeMin(durable_applied_);
  if (include_pins && pin_floor_provider_) {
    if (auto pins = pin_floor_provider_()) {
      floor.MergeMin(*pins);
    }
  }
  if (locks_.has_watermarks()) {
    // A watermarked version has a parked reader waiting to see it; the GC
    // frontier must not fold histories past it, or the reader would resume
    // onto a folded base.
    for (SiteId s = 0; s < options_.num_sites; ++s) {
      if (auto min = locks_.MinWatermarkSeqno(s)) {
        if (floor.at(s) >= *min) {
          floor.set(s, *min - 1);
        }
      }
    }
  }
  return floor;
}

size_t WalterServer::DriveGc(const VectorTimestamp& frontier) {
  size_t folded = store_.GarbageCollect(frontier);
  ++stats_.gc_runs;
  stats_.gc_folded_entries += folded;
  WTRACE(sim_->Now(), TraceKind::kGcRun, 0, options_.site, folded);
  return folded;
}

void WalterServer::RecordOutcome(TxId tid) {
  if (options_.tx_outcome_retention > 0) {
    outcome_log_.emplace_back(sim_->Now(), tid);
  }
}

void WalterServer::AgeTxOutcomes() {
  if (options_.tx_outcome_retention <= 0) {
    return;
  }
  SimTime now = sim_->Now();
  if (now < options_.tx_outcome_retention) {
    return;
  }
  SimTime cutoff = now - options_.tx_outcome_retention;
  while (!outcome_log_.empty() && outcome_log_.front().first <= cutoff) {
    TxId tid = outcome_log_.front().second;
    auto cv = committed_versions_.find(tid);
    if (cv != committed_versions_.end()) {
      if (cv->second.seqno > visible_through_) {
        break;  // still replicating: a retransmission must find the outcome
      }
      committed_versions_.erase(cv);
    }
    aborted_tids_.erase(tid);
    outcome_log_.pop_front();
  }
}

void WalterServer::ExportMetrics(MetricsRegistry& metrics) const {
  SiteId s = options_.site;
  metrics.Set("server.fast_commits", s, static_cast<double>(stats_.fast_commits));
  metrics.Set("server.slow_commits", s, static_cast<double>(stats_.slow_commits));
  metrics.Set("server.aborts", s, static_cast<double>(stats_.aborts));
  metrics.Set("server.reads", s, static_cast<double>(stats_.reads));
  metrics.Set("server.remote_reads", s, static_cast<double>(stats_.remote_reads));
  metrics.Set("server.remote_txns_applied", s, static_cast<double>(stats_.remote_txns_applied));
  metrics.Set("server.batches_sent", s, static_cast<double>(stats_.batches_sent));
  metrics.Set("server.prepares_handled", s, static_cast<double>(stats_.prepares_handled));
  metrics.Set("server.batch_resends", s, static_cast<double>(stats_.batch_resends));
  metrics.Set("server.prepare_retries", s, static_cast<double>(stats_.prepare_retries));
  metrics.Set("server.commit_dedups", s, static_cast<double>(stats_.commit_dedups));
  metrics.Set("server.op_dedups", s, static_cast<double>(stats_.op_dedups));
  metrics.Set("server.active_txs", s, static_cast<double>(active_.size()));
  metrics.Set("server.held_locks", s, static_cast<double>(locks_.lock_count()));
  metrics.Set("server.committed_seqno", s, static_cast<double>(committed_vts_.at(s)));
  metrics.Set("server.ds_durable_through", s, static_cast<double>(ds_durable_through_));
  metrics.Set("server.visible_through", s, static_cast<double>(visible_through_));
  // Memory-boundedness gauges: under sustained load with GC active these
  // plateau instead of growing with the run.
  metrics.Set("server.history_entries", s, static_cast<double>(store_.TotalEntryCount()));
  metrics.Set("server.wal_bytes", s, static_cast<double>(store_.wal().size()));
  metrics.Set("server.retained_local_commits", s, static_cast<double>(local_commits_.size()));
  metrics.Set("server.tx_outcomes_retained", s,
              static_cast<double>(committed_versions_.size() + aborted_tids_.size()));
  metrics.Set("server.gc_runs", s, static_cast<double>(stats_.gc_runs));
  metrics.Set("server.gc_folded_entries", s, static_cast<double>(stats_.gc_folded_entries));
  metrics.Set("server.gc_stale_reads", s, static_cast<double>(stats_.gc_stale_reads));
  metrics.Set("server.wal_truncated_bytes", s, static_cast<double>(stats_.wal_truncated_bytes));
  // Recovery-path counters: all zero in a healthy run; nonzero values localize
  // which durability layer a chaos/crash-fuzz schedule exercised.
  metrics.Set("server.recoveries", s, static_cast<double>(stats_.recoveries));
  metrics.Set("server.recovery_replayed", s, static_cast<double>(stats_.recovery_replayed));
  metrics.Set("server.recovery_torn_tails", s, static_cast<double>(stats_.recovery_torn_tails));
  metrics.Set("server.recovery_bad_checkpoints", s,
              static_cast<double>(stats_.recovery_bad_checkpoints));
  metrics.Set("server.recovery_backfilled", s, static_cast<double>(stats_.recovery_backfilled));
  metrics.Set("server.disk_stall_bursts", s, static_cast<double>(disk_.stall_bursts()));
  // Early-lock-release counters.
  metrics.Set("server.early_releases", s, static_cast<double>(stats_.early_releases));
  metrics.Set("server.decisions_sent", s, static_cast<double>(stats_.decisions_sent));
  metrics.Set("server.decisions_received", s, static_cast<double>(stats_.decisions_received));
  metrics.Set("server.watermarks_set", s, static_cast<double>(stats_.watermarks_set));
  metrics.Set("server.watermarks_cleared", s, static_cast<double>(stats_.watermarks_cleared));
  metrics.Set("server.watermark_read_waits", s,
              static_cast<double>(stats_.watermark_read_waits));
  metrics.Set("server.reads_starved", s, static_cast<double>(stats_.reads_starved));
  metrics.Set("server.remote_reads_starved", s,
              static_cast<double>(stats_.remote_reads_starved));
  metrics.Set("server.read_park_dedups", s, static_cast<double>(stats_.read_park_dedups));
  metrics.Set("server.commit_gap_parks", s, static_cast<double>(stats_.commit_gap_parks));
  metrics.Set("server.commits_starved", s, static_cast<double>(stats_.commits_starved));
  metrics.Set("server.admit_rejects", s, static_cast<double>(stats_.admit_rejects));
  metrics.Set("server.admitted_inflight_peak", s,
              static_cast<double>(stats_.admitted_inflight_peak));
  metrics.Set("server.cpu_queue_peak", s, static_cast<double>(stats_.cpu_queue_peak));
  metrics.Set("server.live_watermarks", s, static_cast<double>(locks_.watermark_count()));
  metrics.Set("server.lock_waits", s, static_cast<double>(stats_.lock_waits));
  metrics.Set("server.lock_wait_timeouts", s, static_cast<double>(stats_.lock_wait_timeouts));
  metrics.Set("server.lock_wounds", s, static_cast<double>(stats_.lock_wounds));
  metrics.Set("server.stale_lock_queries", s, static_cast<double>(stats_.stale_lock_queries));
  metrics.Set("server.stale_watermark_queries", s,
              static_cast<double>(stats_.stale_watermark_queries));
  metrics.Set("server.aborts_conflict", s, static_cast<double>(stats_.aborts_conflict));
  metrics.Set("server.aborts_wound", s, static_cast<double>(stats_.aborts_wound));
  metrics.Set("server.aborts_timeout", s, static_cast<double>(stats_.aborts_timeout));
  metrics.Set("server.clock_commits", s, static_cast<double>(stats_.clock_commits));
  metrics.Set("server.clock_holds", s, static_cast<double>(stats_.clock_holds));
  metrics.Set("server.clock_fallbacks", s, static_cast<double>(stats_.clock_fallbacks));
  metrics.Set("server.clock_rearms", s, static_cast<double>(stats_.clock_rearms));
  metrics.Set("server.clock_conflict_bypasses", s,
              static_cast<double>(stats_.clock_conflict_bypasses));
  metrics.Set("server.held_prepares", s, static_cast<double>(held_prepares_.size()));
  metrics.Set("server.ser_validations", s, static_cast<double>(stats_.ser_validations));
  metrics.Set("server.aborts_ser_validation", s,
              static_cast<double>(stats_.aborts_ser_validation));
  metrics.Set("server.nmsi_reads_unparked", s,
              static_cast<double>(stats_.nmsi_reads_unparked));
}

}  // namespace walter
