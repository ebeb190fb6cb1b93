// The serving workloads.
//
//   serve_open   an in-process AdServer over DefaultServeConfig(8192) and 4
//                long-lived connections replaying BuildRequestPlan plans.
//   serve_churn  the same server and load, but every connection closes and
//                reconnects as the next client id after kChurnSessionRequests
//                requests, so accept/close, NewSession and the bundle Sell
//                path run all the time.
//
// Load is open loop: request k is due at k / kRequestsPerS seconds after the
// call starts, on connection k % kConnections, whether or not earlier
// requests were answered. Latency runs from the due time to the decoded
// response, so a generator or server stall is charged to every request it
// delays. One server thread and the generator (the calling thread) are the
// only threads. The generator sleeps in ppoll with 1 ns timer slack and never
// spins; how late it ran is reported.
//
// Correctness: each connection session's FNV-1a digest over its response
// payloads must equal the digest of a DecideBatch replay of the same plan,
// computed after the timed call. Unanswered requests, non-OK responses and
// the requests of a session whose digest differs count as failed.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/serve/ad_server.h"
#include "src/serve/load_gen.h"
#include "src/serve/session_adapter.h"
#include "src/serve/wire.h"

namespace perfbench {
namespace {

// Set-up runs once before the timed calls and kSetupRepeats - 1 more times
// after them; setup_s is the median.
constexpr int kSetupRepeats = 3;
constexpr int kServeClients = 8192;
constexpr int kConnections = 4;
// Offered load: well under one reactor's capacity on a shared 4-core host.
constexpr double kRequestsPerS = 40000.0;
constexpr int64_t kChurnSessionRequests = 10;
// How long after the last due time the generator waits for answers before
// counting the rest as failed.
constexpr double kAnswerGraceS = 2.0;

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (const char byte : bytes) {
    hash ^= static_cast<uint8_t>(byte);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

double ThreadCpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// A blocking loopback connect, then nonblocking for the generator; -1 on
// failure.
int Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int enable = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// The engine, the server and its thread. Destruction drains and joins.
class ServerUnderTest {
 public:
  ServerUnderTest(uint64_t seed, double* create_s) {
    pad::ServeConfig config = pad::DefaultServeConfig(kServeClients);
    config.pad.population.seed = 42 + seed;
    config.pad.campaigns.seed = 7 + seed;
    const int64_t start = NowNs();
    pad::StatusOr<std::unique_ptr<pad::DecisionEngine>> engine =
        pad::DecisionEngine::Create(config);
    *create_s = SecondsSince(start);
    if (!engine.ok()) {
      error_ = "DecisionEngine::Create: " + engine.status().ToString();
      return;
    }
    engine_ = std::move(*engine);
    server_ = std::make_unique<pad::AdServer>(*engine_, pad::AdServerOptions{});
    if (const pad::Status started = server_->Start(); !started.ok()) {
      error_ = "AdServer::Start: " + started.ToString();
      server_.reset();
      return;
    }
    thread_ = std::thread([this] { server_->Run(); });
    if (pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) != 0) {
      error_ = "pthread_getcpuclockid failed";
    }
  }
  ~ServerUnderTest() { Stop(); }
  ServerUnderTest(const ServerUnderTest&) = delete;
  ServerUnderTest& operator=(const ServerUnderTest&) = delete;

  // Drains the server and joins its thread; stats() is stable afterwards.
  void Stop() {
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
  }

  const std::string& error() const { return error_; }
  const pad::DecisionEngine& engine() const { return *engine_; }
  uint16_t port() const { return server_->port(); }
  double CpuSeconds() const { return ThreadCpuSeconds(cpu_clock_); }
  const pad::AdServerStats& stats() const { return server_->stats(); }

 private:
  std::string error_;
  std::unique_ptr<pad::DecisionEngine> engine_;
  std::unique_ptr<pad::AdServer> server_;
  clockid_t cpu_clock_{};
  std::thread thread_;
};

// One connection session's plan and what the wire returned for it.
struct SessionRecord {
  std::vector<pad::WireRequest> plan;
  uint64_t digest = kFnvBasis;
  int64_t answered = 0;
};

// The requests one timed call sends. Connection c carries requests
// k = c, c + kConnections, ...; its j-th request belongs to its session
// j / session_length, which is session (j / session_length) * kConnections
// + c of the call.
struct CallPlan {
  int64_t total = 0;  // Requests in the call.
  int64_t session_length = 0;
  std::vector<SessionRecord> sessions;
  std::string frames[kConnections];  // Pre-encoded request frames, in order.
};

int64_t RequestsOn(const CallPlan& plan, int c) {
  return (plan.total - c + kConnections - 1) / kConnections;
}

// Builds the plans of one call. `first_session` numbers sessions across the
// calls of a run; session g speaks for client (base + g) mod kServeClients
// with a plan drawn from (seed, g).
CallPlan BuildCallPlan(uint64_t seed, double seconds, bool churn, int64_t first_session) {
  CallPlan plan;
  plan.total = static_cast<int64_t>(kRequestsPerS * seconds);
  const int64_t per_connection_max = RequestsOn(plan, 0);
  plan.session_length = churn ? kChurnSessionRequests : per_connection_max;
  const int64_t sessions_per_connection =
      (per_connection_max + plan.session_length - 1) / plan.session_length;
  plan.sessions.resize(static_cast<size_t>(sessions_per_connection * kConnections));
  const int64_t base_client = static_cast<int64_t>((seed * 7919) % kServeClients);
  for (int c = 0; c < kConnections; ++c) {
    const int64_t n = RequestsOn(plan, c);
    for (int64_t s = 0; s * plan.session_length < n; ++s) {
      const int64_t index = s * kConnections + c;
      pad::LoadGenOptions options;
      options.seed = seed * 1000003 + static_cast<uint64_t>(first_session + index);
      options.first_client = base_client + first_session + index;
      options.client_count = kServeClients;
      options.requests_per_connection =
          static_cast<int>(std::min(plan.session_length, n - s * plan.session_length));
      SessionRecord& session = plan.sessions[static_cast<size_t>(index)];
      session.plan = pad::BuildRequestPlan(options, 0);
      for (const pad::WireRequest& request : session.plan) {
        pad::AppendRequestFrame(request, &plan.frames[c]);
      }
    }
  }
  return plan;
}

// What the generator measured over one call.
struct CallMeasure {
  std::vector<int64_t> latency_ns;  // By request: due time to decoded response (-1: none).
  std::vector<int64_t> late_ns;     // Due time to the generator reaching it.
  int64_t answered = 0;
  int64_t not_ok = 0;
  int64_t bundles = 0;
  int64_t ads = 0;
  double server_cpu_s = 0.0;
  double wall_s = 0.0;
  std::string error;
};

struct Connection {
  int fd = -1;
  pad::FrameReader reader;
  std::string out;           // Bytes not yet accepted by the kernel.
  int64_t dispatched = 0;    // Requests whose due time has passed.
  int64_t sent = 0;          // Requests copied to `out`.
  int64_t answered = 0;
  int64_t session_start = 0;  // First request of the open session.
};

class Generator {
 public:
  Generator(const ServerUnderTest& server, CallPlan& plan, Tracer& tracer, int32_t call_span)
      : server_(server), plan_(plan), tracer_(tracer), call_span_(call_span) {}
  ~Generator() { CloseAll(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Connects every connection (not timed: part of set-up for the first call).
  bool ConnectAll() {
    for (Connection& connection : connections_) {
      connection.fd = Connect(server_.port());
      if (connection.fd < 0) {
        measure_.error = "connect failed";
        return false;
      }
    }
    return true;
  }

  CallMeasure Run() {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    measure_.latency_ns.assign(static_cast<size_t>(plan_.total), -1);
    measure_.late_ns.reserve(static_cast<size_t>(plan_.total));
    const double interval_ns = 1e9 / kRequestsPerS;
    const double cpu0 = server_.CpuSeconds();
    start_ns_ = NowNs();
    auto due = [&](int64_t k) {
      return start_ns_ + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
    };
    const int64_t give_up = due(plan_.total) + static_cast<int64_t>(kAnswerGraceS * 1e9);
    int64_t next = 0;
    while (measure_.error.empty()) {
      int64_t now = NowNs();
      for (; next < plan_.total && due(next) <= now; ++next) {
        Connection& connection = connections_[next % kConnections];
        measure_.late_ns.push_back(now - due(next));
        ++connection.dispatched;
        Send(static_cast<int>(next % kConnections));
        now = NowNs();
      }
      if (measure_.answered == plan_.total || now > give_up) {
        break;
      }
      const int64_t wait = next < plan_.total ? due(next) - now : give_up - now;
      pollfd fds[kConnections];
      for (int c = 0; c < kConnections; ++c) {
        fds[c] = pollfd{connections_[c].fd,
                        static_cast<short>(POLLIN | (connections_[c].out.empty() ? 0 : POLLOUT)),
                        0};
      }
      const timespec timeout{wait / 1000000000, wait % 1000000000};
      if (ppoll(fds, kConnections, &timeout, nullptr) < 0 && errno != EINTR) {
        measure_.error = "ppoll failed";
        break;
      }
      for (int c = 0; c < kConnections && measure_.error.empty(); ++c) {
        if (fds[c].revents & POLLOUT) {
          Send(c);
        }
        if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
          Receive(c);
        }
      }
    }
    measure_.wall_s = SecondsSince(start_ns_);
    measure_.server_cpu_s = server_.CpuSeconds() - cpu0;
    CloseAll();
    return std::move(measure_);
  }

 private:
  void CloseAll() {
    for (Connection& connection : connections_) {
      if (connection.fd >= 0) {
        close(connection.fd);
        connection.fd = -1;
      }
    }
  }

  // Copies dispatched requests of the open session to the socket.
  void Send(int c) {
    Connection& connection = connections_[c];
    const int64_t session_end = connection.session_start + plan_.session_length;
    while (connection.sent < connection.dispatched && connection.sent < session_end) {
      connection.out.append(plan_.frames[c], static_cast<size_t>(connection.sent) *
                                                 (pad::kFrameHeaderBytes +
                                                  pad::kRequestPayloadBytes),
                            pad::kFrameHeaderBytes + pad::kRequestPayloadBytes);
      ++connection.sent;
    }
    while (!connection.out.empty()) {
      const ssize_t n = send(connection.fd, connection.out.data(), connection.out.size(),
                             MSG_NOSIGNAL);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          measure_.error = "send failed";
        }
        return;
      }
      connection.out.erase(0, static_cast<size_t>(n));
    }
  }

  void Receive(int c) {
    Connection& connection = connections_[c];
    char buffer[16384];
    const ssize_t n = recv(connection.fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
        measure_.error = "connection lost";
      }
      return;
    }
    if (!connection.reader.Append({reinterpret_cast<const uint8_t*>(buffer),
                                   static_cast<size_t>(n)}).ok()) {
      measure_.error = "bad frame";
      return;
    }
    const int64_t per_connection = RequestsOn(plan_, c);
    while (true) {
      bool have = false;
      if (!connection.reader.Next(&payload_, &have).ok()) {
        measure_.error = "bad frame";
        return;
      }
      if (!have) {
        return;
      }
      const pad::StatusOr<pad::WireResponse> response = pad::DecodeResponsePayload(
          Bytes(payload_));
      const int64_t now = NowNs();
      const int64_t k = connection.answered * kConnections + c;
      const int64_t due = start_ns_ + static_cast<int64_t>(static_cast<double>(k) * 1e9 /
                                                           kRequestsPerS);
      measure_.latency_ns[static_cast<size_t>(k)] = now - due;
      const int64_t session = (connection.answered / plan_.session_length) * kConnections + c;
      tracer_.Add("serve.request", due, now, call_span_, static_cast<int32_t>(session));
      SessionRecord& record = plan_.sessions[static_cast<size_t>(session)];
      record.digest = Fnv1a(payload_, record.digest);
      ++record.answered;
      ++connection.answered;
      ++measure_.answered;
      if (!response.ok() || response->status != pad::ResponseStatus::kOk) {
        ++measure_.not_ok;
      } else {
        measure_.bundles += response->decision == pad::DecisionKind::kBundle;
        measure_.ads += static_cast<int64_t>(response->ads.size());
      }
      // Session complete: reconnect as the next session's client. The close
      // is abortive (SO_LINGER 0): every response is in, and an orderly
      // close would leave one TIME_WAIT socket per session, tens of
      // thousands per run, which made connect() stall the generator for
      // milliseconds once they piled up across runs.
      const int64_t session_end = connection.session_start + plan_.session_length;
      if (connection.answered == session_end && session_end < per_connection) {
        const linger abort{1, 0};
        setsockopt(connection.fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
        close(connection.fd);
        connection.fd = Connect(server_.port());
        connection.reader = pad::FrameReader();
        connection.out.clear();
        connection.session_start = session_end;
        if (connection.fd < 0) {
          measure_.error = "reconnect failed";
          return;
        }
        Send(c);
        return;  // The old socket's buffer is gone with it.
      }
    }
  }

  const ServerUnderTest& server_;
  CallPlan& plan_;
  Tracer& tracer_;
  int32_t call_span_;
  Connection connections_[kConnections];
  CallMeasure measure_;
  int64_t start_ns_ = 0;
  std::string payload_;
};

// Replays every session through DecideBatch and compares digests. Returns
// the number of requests that count as failed.
int64_t CheckSessions(const pad::DecisionEngine& engine, const CallPlan& plan,
                      RunResult& result) {
  int64_t failed = 0;
  int64_t bad_sessions = 0;
  for (const SessionRecord& session : plan.sessions) {
    uint64_t digest = kFnvBasis;
    for (const pad::WireResponse& response : engine.DecideBatch(session.plan)) {
      digest = Fnv1a(pad::EncodeResponsePayload(response), digest);
    }
    if (session.answered != static_cast<int64_t>(session.plan.size()) ||
        session.digest != digest) {
      failed += static_cast<int64_t>(session.plan.size());
      ++bad_sessions;
    }
  }
  if (bad_sessions > 0) {
    result.notes.push_back("FAILED: " + std::to_string(bad_sessions) +
                           " sessions differ from their DecideBatch replay");
  }
  return failed;
}

// Times the wire decode, Decide and encode of every request of `plan`, one
// layer at a time, in nanoseconds per request.
void ReplayLayers(const pad::DecisionEngine& engine, const CallPlan& plan, Tracer& tracer,
                  RunResult& result) {
  std::vector<std::string> payloads;
  for (const SessionRecord& session : plan.sessions) {
    for (const pad::WireRequest& request : session.plan) {
      payloads.push_back(pad::EncodeRequestPayload(request));
    }
  }
  const double n = static_cast<double>(std::max<size_t>(payloads.size(), 1));
  const int32_t replay = tracer.Begin("replay", -1, -1);
  std::vector<pad::WireRequest> requests;
  requests.reserve(payloads.size());
  const int32_t decode = tracer.Begin("serve.wire.decode", replay, -1);
  for (const std::string& payload : payloads) {
    requests.push_back(*pad::DecodeRequestPayload(Bytes(payload)));
  }
  tracer.End(decode);
  std::vector<pad::WireResponse> responses;
  responses.reserve(requests.size());
  const int32_t decide = tracer.Begin("serve.session_adapter.decide", replay, -1);
  size_t next = 0;
  for (const SessionRecord& session : plan.sessions) {
    pad::DecisionEngine::Session state = engine.NewSession();
    for (size_t r = 0; r < session.plan.size(); ++r) {
      responses.push_back(engine.Decide(state, requests[next++]));
    }
  }
  tracer.End(decide);
  std::vector<std::string> encoded;
  encoded.reserve(responses.size());
  const int32_t encode = tracer.Begin("serve.wire.encode", replay, -1);
  for (const pad::WireResponse& response : responses) {
    encoded.push_back(pad::EncodeResponsePayload(response));
  }
  tracer.End(encode);
  tracer.End(replay);
  result.metrics["serve.wire.decode_ns"] = tracer.Ms(decode) * 1e6 / n;
  result.metrics["serve.session_adapter.decide_ns"] = tracer.Ms(decide) * 1e6 / n;
  result.metrics["serve.wire.encode_ns"] = tracer.Ms(encode) * 1e6 / n;
}

double NsToUs(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// End-to-end and tail figures of one call's measurements.
void Summarize(CallMeasure& m, const std::string& prefix, RunResult& result) {
  std::vector<int64_t> all;
  all.reserve(m.latency_ns.size());
  for (const int64_t latency : m.latency_ns) {
    if (latency >= 0) {
      all.push_back(latency);
    }
  }
  std::sort(all.begin(), all.end());
  auto& out = result.metrics;
  out[prefix + "op_time_us"] = NsToUs(SortedQuantile(all, 0.5));
  out[prefix + "cpu_us_per_op"] =
      m.answered > 0 ? m.server_cpu_s * 1e6 / static_cast<double>(m.answered) : 0.0;
  if (!prefix.empty()) {
    return;
  }
  std::sort(m.late_ns.begin(), m.late_ns.end());
  const int64_t p99 = SortedQuantile(all, 0.99);
  const int64_t p999 = SortedQuantile(all, 0.999);
  auto beyond = [&](int64_t bound) {
    return static_cast<double>(all.end() - std::upper_bound(all.begin(), all.end(), bound));
  };
  out["serve.p99_us"] = NsToUs(p99);
  out["serve.p999_us"] = NsToUs(p999);
  out["serve.samples"] = static_cast<double>(all.size());
  out["serve.p99_tail_samples"] = beyond(p99);
  out["serve.p999_tail_samples"] = beyond(p999);
  out["serve.load.late_us_p50"] = NsToUs(SortedQuantile(m.late_ns, 0.5));
  out["serve.load.late_us_max"] = m.late_ns.empty() ? 0.0 : NsToUs(m.late_ns.back());
  const double answered = static_cast<double>(std::max<int64_t>(m.answered - m.not_ok, 1));
  out["serve.session_adapter.bundle_share"] = static_cast<double>(m.bundles) / answered;
  out["serve.session_adapter.ads_per_resp"] = static_cast<double>(m.ads) / answered;
  result.notes.push_back(
      "serve: " + std::to_string(m.answered) + " answered in " + std::to_string(m.wall_s) +
      " s; p50 " + std::to_string(out["op_time_us"]) + " us, p99 " +
      std::to_string(NsToUs(p99)) + " us, p999 " + std::to_string(NsToUs(p999)) +
      " us; server cpu/req " + std::to_string(out["cpu_us_per_op"]) +
      " us; generator late p50 " + std::to_string(out["serve.load.late_us_p50"]) +
      " us, max " + std::to_string(out["serve.load.late_us_max"]) + " us");
}

RunResult RunServe(const RunOptions& options, Tracer& tracer, bool churn) {
  RunResult result;

  // An untraced call, then (traced runs) a traced one; each gets its share
  // of the run's seconds.
  const int calls = options.trace ? 2 : 1;
  const double call_seconds = options.seconds / calls;
  std::vector<CallPlan> plans;
  int64_t next_session = 0;
  for (int c = 0; c < calls; ++c) {
    plans.push_back(BuildCallPlan(options.seed, call_seconds, churn, next_session));
    next_session += static_cast<int64_t>(plans.back().sessions.size());
  }

  // Set-up: build the engine, start the server, connect the first call's
  // connections.
  Tracer untraced(false, 0);
  std::vector<double> setup_s;
  std::vector<double> create_ms;
  auto set_up = [&](std::unique_ptr<ServerUnderTest>& server,
                    std::unique_ptr<Generator>& generator) {
    const int64_t start = NowNs();
    double create_s = 0.0;
    server = std::make_unique<ServerUnderTest>(options.seed, &create_s);
    create_ms.push_back(create_s * 1e3);
    if (!server->error().empty()) {
      result.notes.push_back("FAILED: " + server->error());
      return false;
    }
    generator = std::make_unique<Generator>(*server, plans[0], untraced, -1);
    if (!generator->ConnectAll()) {
      result.notes.push_back("FAILED: connect");
      return false;
    }
    setup_s.push_back(SecondsSince(start));
    return true;
  };
  std::unique_ptr<ServerUnderTest> server;
  std::unique_ptr<Generator> generator;
  if (!set_up(server, generator)) {
    result.attempted = result.failed = 1;
    return result;
  }

  std::vector<CallMeasure> measures;
  for (int c = 0; c < calls; ++c) {
    const bool traced = c == 1;
    Tracer& t = traced ? tracer : untraced;
    const int32_t call_span = t.Begin("serve.call", -1, c);
    if (c > 0) {
      generator = std::make_unique<Generator>(*server, plans[c], t, call_span);
      if (!generator->ConnectAll()) {
        result.notes.push_back("FAILED: connect");
        ++result.failed;
        break;
      }
    }
    measures.push_back(generator->Run());
    t.End(call_span);
    generator.reset();
    if (!measures.back().error.empty()) {
      result.notes.push_back("generator: " + measures.back().error);
    }
  }
  server->Stop();

  // Correctness, outside the timed calls.
  for (size_t c = 0; c < measures.size(); ++c) {
    const CallMeasure& m = measures[c];
    result.attempted += plans[c].total;
    const int64_t unanswered = plans[c].total - m.answered;
    const int64_t mismatched = CheckSessions(server->engine(), plans[c], result);
    result.failed += std::max(unanswered + m.not_ok, mismatched);
    if (unanswered + m.not_ok > 0) {
      result.notes.push_back("FAILED: " + std::to_string(unanswered) + " unanswered, " +
                             std::to_string(m.not_ok) + " not OK");
    }
  }
  Summarize(measures[0], "", result);
  result.metrics["peak_rss_mib"] = PeakRssMiB();
  auto& m = result.metrics;
  if (options.trace) {
    const pad::AdServerStats& stats = server->stats();
    m["serve.ad_server.served"] = static_cast<double>(stats.served);
    m["serve.ad_server.accepted"] = static_cast<double>(stats.accepted);
    m["serve.ad_server.backpressure_pauses"] = static_cast<double>(stats.backpressure_pauses);
    if (measures.size() == 2) {
      Summarize(measures[1], "traced.", result);
      m["tracing.overhead_op_time_us"] = m["traced.op_time_us"] - m["op_time_us"];
      m["tracing.overhead_cpu_us_per_op"] = m["traced.cpu_us_per_op"] - m["cpu_us_per_op"];
    }
    ReplayLayers(server->engine(), plans[0], tracer, result);
    m["serve.reactor_us_per_req"] =
        m["cpu_us_per_op"] - (m["serve.wire.decode_ns"] + m["serve.session_adapter.decide_ns"] +
                              m["serve.wire.encode_ns"]) * 1e-3;
  }
  server.reset();

  for (int r = 1; r < kSetupRepeats; ++r) {
    std::unique_ptr<ServerUnderTest> repeat_server;
    std::unique_ptr<Generator> repeat_generator;
    if (!set_up(repeat_server, repeat_generator)) {
      ++result.attempted;
      ++result.failed;
    }
  }
  m["setup_s"] = Median(setup_s);
  if (options.trace) {
    m["serve.session_adapter.create_ms"] = Median(create_ms);
    m["traced.setup_s"] = m["setup_s"];
  }
  return result;
}

}  // namespace

RunResult RunServeOpen(const RunOptions& options, Tracer& tracer) {
  return RunServe(options, tracer, false);
}

RunResult RunServeChurn(const RunOptions& options, Tracer& tracer) {
  return RunServe(options, tracer, true);
}

}  // namespace perfbench
